#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <string>

#include "core/objective.hpp"
#include "core/sequential_smo.hpp"
#include "data/synthetic.hpp"

namespace {

using svmcore::SequentialResult;
using svmcore::solve_sequential;
using svmcore::SolverParams;
using svmdata::Dataset;
using svmdata::Feature;
using svmkernel::KernelParams;
using svmkernel::KernelType;

Dataset two_points() {
  Dataset d;
  d.X.add_row(std::vector<Feature>{{0, 1.0}});
  d.X.add_row(std::vector<Feature>{{0, -1.0}});
  d.y = {1.0, -1.0};
  return d;
}

SolverParams linear_params(double C = 10.0, double eps = 1e-4) {
  SolverParams p;
  p.C = C;
  p.eps = eps;
  p.kernel = KernelParams{KernelType::linear, 1.0, 0.0, 3};
  return p;
}

TEST(Sequential, TwoPointAnalyticSolution) {
  // Points at x=+1 (y=+1) and x=-1 (y=-1): w = 2*alpha, dual objective
  // 2*alpha - 2*alpha^2, maximized at alpha = 1/2 (then w = 1, margin 1 at
  // both points, boundary at x = 0).
  const SequentialResult r = solve_sequential(two_points(), linear_params());
  EXPECT_TRUE(r.stats.converged);
  EXPECT_NEAR(r.alpha[0], 0.5, 1e-3);
  EXPECT_NEAR(r.alpha[1], 0.5, 1e-3);
  EXPECT_NEAR(r.beta, 0.0, 1e-3);
}

TEST(Sequential, TwoPointBoundedByC) {
  // With C = 0.1 < 1/2, both alphas hit the bound.
  const SequentialResult r = solve_sequential(two_points(), linear_params(0.1));
  EXPECT_NEAR(r.alpha[0], 0.1, 1e-9);
  EXPECT_NEAR(r.alpha[1], 0.1, 1e-9);
}

TEST(Sequential, AsymmetricTwoPoints) {
  // x1 = 3 (y=+1), x2 = 1 (y=-1): midpoint boundary at x = 2, so
  // f(x) = w*x - beta with f(3)=+1, f(1)=-1 -> w=1, beta=2.
  Dataset d;
  d.X.add_row(std::vector<Feature>{{0, 3.0}});
  d.X.add_row(std::vector<Feature>{{0, 1.0}});
  d.y = {1.0, -1.0};
  const SequentialResult r = solve_sequential(d, linear_params(100.0, 1e-5));
  // w = alpha*(3) - alpha*(1) = 2 alpha = 1 -> alpha = 0.5.
  EXPECT_NEAR(r.alpha[0], 0.5, 1e-3);
  EXPECT_NEAR(r.alpha[1], 0.5, 1e-3);
  EXPECT_NEAR(r.beta, 2.0, 1e-2);
}

TEST(Sequential, FourPointXorWithRbf) {
  // XOR is not linearly separable; the RBF kernel must fit it exactly with
  // all four points as support vectors.
  Dataset d;
  d.X.add_row(std::vector<Feature>{{0, 1.0}, {1, 1.0}});
  d.X.add_row(std::vector<Feature>{{0, -1.0}, {1, -1.0}});
  d.X.add_row(std::vector<Feature>{{0, 1.0}, {1, -1.0}});
  d.X.add_row(std::vector<Feature>{{0, -1.0}, {1, 1.0}});
  d.y = {1.0, 1.0, -1.0, -1.0};
  SolverParams p;
  p.C = 100.0;
  p.eps = 1e-5;
  p.kernel = KernelParams{KernelType::rbf, 0.5, 0.0, 3};
  const SequentialResult r = solve_sequential(d, p);
  EXPECT_TRUE(r.stats.converged);
  for (const double a : r.alpha) EXPECT_GT(a, 0.0);
  // By symmetry all four alphas are equal and beta = 0.
  EXPECT_NEAR(r.alpha[0], r.alpha[1], 1e-4);
  EXPECT_NEAR(r.alpha[0], r.alpha[2], 1e-4);
  EXPECT_NEAR(r.beta, 0.0, 1e-4);
}

TEST(Sequential, RejectsSingleClass) {
  Dataset d;
  d.X.add_row(std::vector<Feature>{{0, 1.0}});
  d.X.add_row(std::vector<Feature>{{0, 2.0}});
  d.y = {1.0, 1.0};
  EXPECT_THROW((void)solve_sequential(d, linear_params()), std::invalid_argument);
}

TEST(Sequential, RejectsTooFewSamples) {
  Dataset d;
  d.X.add_row(std::vector<Feature>{{0, 1.0}});
  d.y = {1.0};
  EXPECT_THROW((void)solve_sequential(d, linear_params()), std::invalid_argument);
}

TEST(Sequential, MaxIterationsCapRespected) {
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 200, .d = 8, .separation = 1.0, .label_noise = 0.1, .seed = 5});
  SolverParams p = linear_params(1.0, 1e-6);
  p.kernel = KernelParams::rbf_with_sigma_sq(4.0);
  p.max_iterations = 10;
  const SequentialResult r = solve_sequential(d, p);
  EXPECT_FALSE(r.stats.converged);
  EXPECT_EQ(r.stats.iterations, 10u);
}

// Property sweep: at convergence the KKT conditions must hold for every
// kernel/C combination.
struct KktCase {
  KernelType kernel;
  double C;
  double sigma_sq_or_gamma;
};

/// Names the case by meaning, e.g. "rbf_C10_sigmasq0p5": raw struct bytes
/// would embed padding that changes on every test discovery.
void PrintTo(const KktCase& c, std::ostream* os) {
  std::ostringstream text;
  text << svmkernel::to_string(c.kernel) << "_C" << c.C
       << (c.kernel == KernelType::rbf ? "_sigmasq" : "_gamma") << c.sigma_sq_or_gamma;
  std::string name = text.str();
  std::replace(name.begin(), name.end(), '.', 'p');  // test names allow [A-Za-z0-9_]
  *os << name;
}

class SequentialKktP : public ::testing::TestWithParam<KktCase> {};

TEST_P(SequentialKktP, KktConditionsHoldAtConvergence) {
  const KktCase config = GetParam();
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 120, .d = 6, .separation = 2.0, .label_noise = 0.05, .seed = 11});
  SolverParams p;
  p.C = config.C;
  p.eps = 1e-3;
  p.kernel = config.kernel == KernelType::rbf
                 ? KernelParams::rbf_with_sigma_sq(config.sigma_sq_or_gamma)
                 : KernelParams{config.kernel, config.sigma_sq_or_gamma, 1.0, 2};
  const SequentialResult r = solve_sequential(d, p);
  ASSERT_TRUE(r.stats.converged);

  const svmcore::KktReport report = svmcore::kkt_report(d, r.alpha, p);
  EXPECT_LE(report.gap, 2.0 * p.eps + 1e-9);
  EXPECT_LE(report.max_alpha_bound_violation, 1e-12);
  EXPECT_LE(report.equality_residual, 1e-8 * p.C * d.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SequentialKktP,
    ::testing::Values(KktCase{KernelType::rbf, 1.0, 4.0}, KktCase{KernelType::rbf, 32.0, 64.0},
                      KktCase{KernelType::rbf, 10.0, 0.5}, KktCase{KernelType::linear, 1.0, 1.0},
                      KktCase{KernelType::linear, 100.0, 1.0},
                      KktCase{KernelType::polynomial, 10.0, 0.5}),
    ::testing::PrintToStringParamName());

TEST(DualObjective, MatchesHandComputation) {
  // Two samples at x = +-1, alpha = (0.5, 0.5), linear kernel:
  // L_D = sum(alpha) - 0.5 * sum_ij a_i a_j y_i y_j K_ij
  //     = 1 - 0.5 * (0.25*1 + 2*0.25*(+1)(-1)(-1) + 0.25*1) = 1 - 0.5 = 0.5.
  const Dataset d = two_points();
  const std::vector<double> alpha{0.5, 0.5};
  const double obj =
      svmcore::dual_objective(d, alpha, KernelParams{KernelType::linear, 1.0, 0.0, 3});
  EXPECT_NEAR(obj, 0.5, 1e-12);
}

TEST(DualObjective, ZeroAlphaIsZero) {
  const Dataset d = two_points();
  const std::vector<double> alpha{0.0, 0.0};
  EXPECT_DOUBLE_EQ(
      svmcore::dual_objective(d, alpha, KernelParams{KernelType::linear, 1.0, 0.0, 3}), 0.0);
}

TEST(KktOracle, FlagsBoundViolations) {
  const Dataset d = two_points();
  SolverParams p = linear_params(1.0);
  const std::vector<double> alpha{1.5, -0.2};  // outside [0, C]
  const auto report = svmcore::kkt_report(d, alpha, p);
  EXPECT_NEAR(report.max_alpha_bound_violation, 0.5, 1e-12);  // 1.5 - C
  EXPECT_NEAR(report.equality_residual, 1.7, 1e-12);          // |1.5*1 + (-0.2)*(-1)|
}

TEST(Sequential, ObjectiveImprovesWithTighterTolerance) {
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 150, .d = 5, .separation = 1.5, .label_noise = 0.1, .seed = 13});
  SolverParams loose = linear_params(5.0, 1e-1);
  loose.kernel = KernelParams::rbf_with_sigma_sq(4.0);
  SolverParams tight = loose;
  tight.eps = 1e-5;
  const double obj_loose =
      svmcore::dual_objective(d, solve_sequential(d, loose).alpha, loose.kernel);
  const double obj_tight =
      svmcore::dual_objective(d, solve_sequential(d, tight).alpha, tight.kernel);
  EXPECT_GE(obj_tight, obj_loose - 1e-9);  // dual objective is maximized
}

TEST(Sequential, StatsArepopulated) {
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 80, .d = 4, .separation = 2.0, .seed = 21});
  SolverParams p = linear_params(1.0, 1e-3);
  p.kernel = KernelParams::rbf_with_sigma_sq(2.0);
  const SequentialResult r = solve_sequential(d, p);
  EXPECT_GT(r.stats.iterations, 0u);
  EXPECT_GT(r.stats.kernel_evaluations, r.stats.iterations);  // 2n + 3 per iter
  EXPECT_GE(r.stats.solve_seconds, 0.0);
  EXPECT_LE(r.stats.final_beta_up + 2 * p.eps + 1e-12, r.stats.final_beta_low + 4 * p.eps);
}

}  // namespace
