#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "kernel/kernel.hpp"
#include "util/rng.hpp"

namespace {

using svmdata::CsrMatrix;
using svmdata::Dataset;
using svmdata::Feature;
using namespace svmkernel;

Dataset test_data() {
  return svmdata::synthetic::gaussian_blobs({.n = 30, .d = 6, .separation = 2.0, .seed = 17});
}

class KernelTypesP : public ::testing::TestWithParam<KernelType> {
 protected:
  static KernelParams params_for(KernelType type) {
    KernelParams p;
    p.type = type;
    p.gamma = 0.5;
    p.coef0 = 1.0;
    p.degree = 3;
    return p;
  }
};

TEST_P(KernelTypesP, Symmetry) {
  const Dataset d = test_data();
  const Kernel kernel(params_for(GetParam()));
  const auto sq = d.X.row_squared_norms();
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = 0; j < 10; ++j)
      EXPECT_DOUBLE_EQ(kernel.eval(d.X.row(i), d.X.row(j), sq[i], sq[j]),
                       kernel.eval(d.X.row(j), d.X.row(i), sq[j], sq[i]));
}

TEST_P(KernelTypesP, NameRoundTrip) {
  const KernelType type = GetParam();
  EXPECT_EQ(kernel_type_from_string(to_string(type)), type);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelTypesP,
                         ::testing::Values(KernelType::rbf, KernelType::linear,
                                           KernelType::polynomial, KernelType::sigmoid));

TEST(Rbf, SelfSimilarityIsOne) {
  const Dataset d = test_data();
  const Kernel kernel(KernelParams::rbf_with_sigma_sq(4.0));
  const auto sq = d.X.row_squared_norms();
  for (std::size_t i = 0; i < d.size(); ++i)
    EXPECT_DOUBLE_EQ(kernel.eval(d.X.row(i), d.X.row(i), sq[i], sq[i]), 1.0);
}

TEST(Rbf, ValuesInUnitInterval) {
  const Dataset d = test_data();
  const Kernel kernel(KernelParams::rbf_with_sigma_sq(4.0));
  const auto sq = d.X.row_squared_norms();
  for (std::size_t i = 0; i < d.size(); ++i)
    for (std::size_t j = 0; j < d.size(); ++j) {
      const double k = kernel.eval(d.X.row(i), d.X.row(j), sq[i], sq[j]);
      EXPECT_GT(k, 0.0);
      EXPECT_LE(k, 1.0);
    }
}

TEST(Rbf, MatchesClosedForm) {
  CsrMatrix m;
  m.add_row(std::vector<Feature>{{0, 1.0}, {1, 2.0}});
  m.add_row(std::vector<Feature>{{0, 3.0}, {1, -1.0}});
  const auto sq = m.row_squared_norms();
  const double gamma = 0.25;
  const Kernel kernel(KernelParams{KernelType::rbf, gamma, 0.0, 3});
  const double dist_sq = (1.0 - 3.0) * (1.0 - 3.0) + (2.0 + 1.0) * (2.0 + 1.0);
  EXPECT_NEAR(kernel.eval(m.row(0), m.row(1), sq[0], sq[1]), std::exp(-gamma * dist_sq), 1e-15);
}

TEST(Rbf, SigmaSqParameterization) {
  // Table III reports sigma^2; gamma = 1/sigma^2.
  const KernelParams p = KernelParams::rbf_with_sigma_sq(64.0);
  EXPECT_DOUBLE_EQ(p.gamma, 1.0 / 64.0);
  EXPECT_THROW(Kernel(KernelParams{KernelType::rbf, 0.0, 0.0, 3}), std::invalid_argument);
}

TEST(Linear, EqualsDotProduct) {
  const Dataset d = test_data();
  const Kernel kernel(KernelParams{KernelType::linear, 1.0, 0.0, 3});
  const auto sq = d.X.row_squared_norms();
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_DOUBLE_EQ(kernel.eval(d.X.row(i), d.X.row(j), sq[i], sq[j]),
                       CsrMatrix::dot(d.X.row(i), d.X.row(j)));
}

TEST(Polynomial, MatchesClosedForm) {
  CsrMatrix m;
  m.add_row(std::vector<Feature>{{0, 2.0}});
  m.add_row(std::vector<Feature>{{0, 3.0}});
  const auto sq = m.row_squared_norms();
  const Kernel kernel(KernelParams{KernelType::polynomial, 0.5, 1.0, 3});
  // (0.5*6 + 1)^3 = 64
  EXPECT_DOUBLE_EQ(kernel.eval(m.row(0), m.row(1), sq[0], sq[1]), 64.0);
}

TEST(Sigmoid, MatchesClosedForm) {
  CsrMatrix m;
  m.add_row(std::vector<Feature>{{0, 1.0}});
  m.add_row(std::vector<Feature>{{0, 2.0}});
  const auto sq = m.row_squared_norms();
  const Kernel kernel(KernelParams{KernelType::sigmoid, 0.5, -0.5, 3});
  EXPECT_DOUBLE_EQ(kernel.eval(m.row(0), m.row(1), sq[0], sq[1]), std::tanh(0.5 * 2.0 - 0.5));
}

TEST(KernelCounters, CountEvaluations) {
  const Dataset d = test_data();
  Kernel kernel(KernelParams::rbf_with_sigma_sq(4.0));
  const auto sq = d.X.row_squared_norms();
  EXPECT_EQ(kernel.evaluations(), 0u);
  (void)kernel.eval(d.X.row(0), d.X.row(1), sq[0], sq[1]);
  (void)kernel.eval(d.X.row(1), d.X.row(2), sq[1], sq[2]);
  EXPECT_EQ(kernel.evaluations(), 2u);
  kernel.reset_evaluations();
  EXPECT_EQ(kernel.evaluations(), 0u);
}

TEST(KernelParsing, RejectsUnknownName) {
  EXPECT_THROW((void)kernel_type_from_string("wavelet"), std::invalid_argument);
  EXPECT_EQ(kernel_type_from_string("gaussian"), KernelType::rbf);
  EXPECT_EQ(kernel_type_from_string("poly"), KernelType::polynomial);
}

TEST(GramMatrix, RbfIsPositiveSemiDefinite) {
  // Gershgorin-free check: x' K x >= 0 for a bunch of random x.
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 20, .d = 4, .separation = 1.0, .seed = 23});
  const Kernel kernel(KernelParams::rbf_with_sigma_sq(2.0));
  const auto sq = d.X.row_squared_norms();
  const std::size_t n = d.size();
  std::vector<double> K(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      K[i * n + j] = kernel.eval(d.X.row(i), d.X.row(j), sq[i], sq[j]);
  svmutil::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.normal();
    double quad = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) quad += x[i] * K[i * n + j] * x[j];
    EXPECT_GE(quad, -1e-9);
  }
}

}  // namespace
