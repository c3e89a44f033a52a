#include <gtest/gtest.h>

#include <cmath>

#include "data/scale.hpp"
#include "data/sparse.hpp"
#include "data/synthetic.hpp"
#include "data/zoo.hpp"
#include "util/rng.hpp"

namespace {

using namespace svmdata;
using namespace svmdata::synthetic;

double positive_fraction(const Dataset& d) {
  std::size_t pos = 0;
  for (const double y : d.y)
    if (y > 0) ++pos;
  return static_cast<double>(pos) / static_cast<double>(d.size());
}

TEST(Blobs, ShapeAndLabels) {
  const Dataset d = gaussian_blobs({.n = 500, .d = 10, .separation = 3.0, .seed = 1});
  EXPECT_EQ(d.size(), 500u);
  EXPECT_LE(d.dim(), 10u);
  EXPECT_NO_THROW(d.validate());
  EXPECT_NEAR(positive_fraction(d), 0.5, 0.1);
}

TEST(Blobs, DeterministicInSeed) {
  const Dataset a = gaussian_blobs({.n = 100, .d = 5, .separation = 2.0, .seed = 9});
  const Dataset b = gaussian_blobs({.n = 100, .d = 5, .separation = 2.0, .seed = 9});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.y[i], b.y[i]);
    ASSERT_EQ(a.X.row(i).size(), b.X.row(i).size());
    for (std::size_t k = 0; k < a.X.row(i).size(); ++k)
      EXPECT_EQ(a.X.row(i)[k].value, b.X.row(i)[k].value);
  }
}

TEST(Blobs, SeparationMakesClassesLinearlySeparable) {
  // With a huge margin, the class means should be far apart along some axis:
  // verify mean distance >> intra-class spread.
  const Dataset d = gaussian_blobs({.n = 400, .d = 8, .separation = 10.0, .seed = 2});
  std::vector<double> mean_pos(8, 0.0);
  std::vector<double> mean_neg(8, 0.0);
  double np = 0;
  double nn = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (const Feature& f : d.X.row(i))
      (d.y[i] > 0 ? mean_pos : mean_neg)[f.index] += f.value;
    (d.y[i] > 0 ? np : nn) += 1.0;
  }
  double dist_sq = 0.0;
  for (std::size_t j = 0; j < 8; ++j) {
    const double diff = mean_pos[j] / np - mean_neg[j] / nn;
    dist_sq += diff * diff;
  }
  EXPECT_GT(std::sqrt(dist_sq), 8.0);  // ~separation, against unit noise
}

TEST(Blobs, LabelNoiseFlipsRoughlyRequestedFraction) {
  const Dataset clean = gaussian_blobs({.n = 2000, .d = 4, .separation = 3.0,
                                        .label_noise = 0.0, .seed = 5});
  const Dataset noisy = gaussian_blobs({.n = 2000, .d = 4, .separation = 3.0,
                                        .label_noise = 0.2, .seed = 5});
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < clean.size(); ++i)
    if (clean.y[i] != noisy.y[i]) ++flipped;
  EXPECT_NEAR(static_cast<double>(flipped) / 2000.0, 0.2, 0.04);
}

TEST(Rings, RadiiMatchClasses) {
  const Dataset d = two_rings({.n = 600, .d = 3, .inner_radius = 1.0, .gap = 2.0,
                               .thickness = 0.05, .seed = 3});
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double r = std::sqrt(CsrMatrix::squared_norm(d.X.row(i)));
    if (d.y[i] > 0)
      EXPECT_NEAR(r, 1.0, 0.4);
    else
      EXPECT_NEAR(r, 3.0, 0.4);
  }
}

TEST(SparseBinary, DensityMatchesNnzPerRow) {
  const Dataset d =
      sparse_binary({.n = 200, .d = 5000, .nnz_per_row = 40, .pool_overlap = 0.3, .seed = 4});
  EXPECT_EQ(d.X.nonzeros(), 200u * 40u);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d.X.row(i).size(), 40u);
    for (const Feature& f : d.X.row(i)) EXPECT_DOUBLE_EQ(f.value, 1.0);
  }
  EXPECT_LT(d.X.density(), 0.01);
}

TEST(DenseTabular, IsFullyDense) {
  const Dataset d = dense_tabular({.n = 100, .d = 28, .overlap = 0.1, .seed = 6});
  // Gaussian features are almost surely nonzero in every coordinate.
  EXPECT_GT(d.X.density(), 0.99);
  EXPECT_EQ(d.dim(), 28u);
}

TEST(DigitsLike, NonNegativeAndSparse) {
  const Dataset d = digits_like({.n = 150, .d = 784, .noise = 0.3, .seed = 7});
  for (std::size_t i = 0; i < d.size(); ++i)
    for (const Feature& f : d.X.row(i)) EXPECT_GE(f.value, 0.0);
  EXPECT_LT(d.X.density(), 0.6);
  EXPECT_GT(d.X.density(), 0.05);
}

TEST(Zoo, HasElevenEntriesWithTableIIIParams) {
  const auto& entries = zoo();
  EXPECT_EQ(entries.size(), 11u);
  const ZooEntry& higgs = zoo_entry("higgs");
  EXPECT_EQ(higgs.paper_train_size, 2600000u);
  EXPECT_DOUBLE_EQ(higgs.C, 32.0);
  EXPECT_DOUBLE_EQ(higgs.sigma_sq, 64.0);
  EXPECT_DOUBLE_EQ(higgs.gamma(), 1.0 / 64.0);
  const ZooEntry& url = zoo_entry("url");
  EXPECT_EQ(url.paper_train_size, 2300000u);
  EXPECT_DOUBLE_EQ(url.C, 10.0);
}

TEST(Zoo, UnknownNameListsAlternatives) {
  try {
    (void)zoo_entry("imagenet");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("higgs"), std::string::npos);
  }
}

TEST(Zoo, GeneratesEveryEntryAtTinyScale) {
  for (const ZooEntry& entry : zoo()) {
    const Dataset train = make_train(entry, 0.05);
    EXPECT_GE(train.size(), 8u) << entry.name;
    EXPECT_NO_THROW(train.validate()) << entry.name;
    const Dataset test = make_test(entry, 0.05);
    if (entry.default_test_size > 0) {
      EXPECT_GE(test.size(), 8u) << entry.name;
    }
  }
}

TEST(Zoo, ScaleMultipliesSize) {
  const ZooEntry& e = zoo_entry("usps");
  EXPECT_EQ(make_train(e, 0.1).size(), e.default_train_size / 10);
  EXPECT_EQ(make_train(e, 1.0).size(), e.default_train_size);
}

TEST(Zoo, TrainAndTestAreDifferentDraws) {
  const ZooEntry& e = zoo_entry("mnist");
  const Dataset train = make_train(e, 0.1);
  const Dataset test = make_test(e, 0.1);
  ASSERT_GT(train.size(), 0u);
  ASSERT_GT(test.size(), 0u);
  // First rows should differ (different seeds).
  const auto a = train.X.row(0);
  const auto b = test.X.row(0);
  bool different = a.size() != b.size();
  for (std::size_t k = 0; !different && k < a.size(); ++k)
    different = a[k].index != b[k].index || a[k].value != b[k].value;
  EXPECT_TRUE(different);
}

TEST(Zoo, FeatureScaleMatchesSigmaSq) {
  // make_train/make_test rescale features so the mean pairwise squared
  // distance ~ sigma^2 (and both use the SAME train-derived factor).
  using svmdata::CsrMatrix;
  for (const char* name : {"higgs", "forest", "url", "mnist"}) {
    const auto& entry = svmdata::zoo_entry(name);
    const Dataset train = svmdata::make_train(entry, 0.3);
    const auto norms = train.X.row_squared_norms();
    svmutil::Rng rng(7);
    double sum = 0.0;
    constexpr int kPairs = 200;
    for (int k = 0; k < kPairs; ++k) {
      const std::size_t i = rng.uniform_index(train.size());
      std::size_t j = rng.uniform_index(train.size() - 1);
      if (j >= i) ++j;
      sum += CsrMatrix::squared_distance(train.X.row(i), train.X.row(j), norms[i], norms[j]);
    }
    const double mean_dist_sq = sum / kPairs;
    EXPECT_GT(mean_dist_sq, 0.4 * entry.sigma_sq) << name;
    EXPECT_LT(mean_dist_sq, 2.5 * entry.sigma_sq) << name;
  }
}

TEST(Scalers, MaxAbsMapsToUnitBall) {
  const Dataset d = dense_tabular({.n = 60, .d = 6, .overlap = 0.1, .seed = 8});
  const auto scaler = MaxAbsScaler::fit(d);
  const Dataset scaled = scaler.transform(d);
  for (std::size_t i = 0; i < scaled.size(); ++i)
    for (const Feature& f : scaled.X.row(i)) EXPECT_LE(std::abs(f.value), 1.0 + 1e-12);
  // Sparsity is preserved.
  EXPECT_EQ(scaled.X.nonzeros(), d.X.nonzeros());
}

TEST(Scalers, MaxAbsAppliesTrainStatisticsToTest) {
  Dataset train;
  train.X.add_row(std::vector<Feature>{{0, 4.0}});
  train.X.add_row(std::vector<Feature>{{0, -2.0}});
  train.y = {1.0, -1.0};
  Dataset test;
  test.X.add_row(std::vector<Feature>{{0, 8.0}});
  test.y = {1.0};
  const auto scaler = MaxAbsScaler::fit(train);
  const Dataset scaled = scaler.transform(test);
  EXPECT_DOUBLE_EQ(scaled.X.row(0)[0].value, 2.0);  // 8 / max|train| = 8/4
}

TEST(Scalers, StandardScalerCentersAndScales) {
  const Dataset d = dense_tabular({.n = 500, .d = 5, .overlap = 0.1, .seed = 9});
  const auto scaler = StandardScaler::fit(d);
  const Dataset scaled = scaler.transform(d);
  // Column means of the transformed data should be ~0, variances ~1.
  std::vector<double> mean(5, 0.0);
  std::vector<double> sq(5, 0.0);
  for (std::size_t i = 0; i < scaled.size(); ++i)
    for (const Feature& f : scaled.X.row(i)) {
      mean[f.index] += f.value;
      sq[f.index] += f.value * f.value;
    }
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(mean[j] / 500.0, 0.0, 1e-9);
    EXPECT_NEAR(sq[j] / 500.0, 1.0, 1e-6);
  }
}

}  // namespace
