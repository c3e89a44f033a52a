// End-to-end integration: zoo datasets x solvers x rank counts, plus the
// Table V accuracy-parity property (proposed solver vs the libsvm-style
// baseline) on datasets with held-out test sets.
#include <gtest/gtest.h>

#include <ostream>

#include "baseline/libsvm_like.hpp"
#include "core/trainer.hpp"
#include "data/zoo.hpp"

namespace {

using svmcore::Heuristic;
using svmcore::SolverParams;
using svmcore::TrainOptions;
using svmdata::Dataset;
using svmdata::ZooEntry;
using svmkernel::KernelParams;

SolverParams params_for(const ZooEntry& entry) {
  SolverParams p;
  p.C = entry.C;
  p.eps = 1e-3;
  p.kernel = KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  return p;
}

struct ZooCase {
  const char* dataset;
  const char* heuristic;
  int ranks;
  double scale;
};

/// Names the case by meaning, e.g. "a9a_Multi5pc_r4": raw struct bytes would
/// embed string pointers that change on every test discovery.
void PrintTo(const ZooCase& c, std::ostream* os) {
  *os << c.dataset << '_' << c.heuristic << "_r" << c.ranks;
}

class ZooSweepP : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ZooSweepP, TrainsAndSelfClassifies) {
  const ZooCase c = GetParam();
  const ZooEntry& entry = svmdata::zoo_entry(c.dataset);
  const Dataset train = svmdata::make_train(entry, c.scale);

  TrainOptions options;
  options.num_ranks = c.ranks;
  options.heuristic = Heuristic::parse(c.heuristic);
  const auto result = svmcore::train(train, params_for(entry), options);

  EXPECT_TRUE(result.converged) << c.dataset;
  EXPECT_GT(result.num_support_vectors(), 0u);
  // Self-classification: the RBF SVM with tuned hyper-params should fit the
  // training draw well on every zoo dataset.
  EXPECT_GT(result.model.accuracy(train), 0.85) << c.dataset;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooSweepP,
    ::testing::Values(ZooCase{"a9a", "Original", 2, 0.25}, ZooCase{"a9a", "Multi5pc", 4, 0.25},
                      ZooCase{"w7a", "Single5pc", 3, 0.25}, ZooCase{"usps", "Multi5pc", 2, 0.25},
                      ZooCase{"mushrooms", "Multi2", 2, 0.5},
                      ZooCase{"codrna", "Multi10pc", 4, 0.2},
                      ZooCase{"mnist", "Single50pc", 2, 0.1},
                      ZooCase{"realsim", "Multi5pc", 4, 0.1},
                      ZooCase{"rcv1", "Multi5pc", 2, 0.15}),
    ::testing::PrintToStringParamName());

class AccuracyParityP : public ::testing::TestWithParam<const char*> {};

TEST_P(AccuracyParityP, MatchesBaselineOnHeldOutData) {
  // Table V's claim: the proposed heuristics match libsvm's test accuracy.
  const ZooEntry& entry = svmdata::zoo_entry(GetParam());
  const double scale = 0.3;
  const Dataset train = svmdata::make_train(entry, scale);
  const Dataset test = svmdata::make_test(entry, scale);
  ASSERT_GT(test.size(), 0u);

  TrainOptions options;
  options.num_ranks = 4;
  options.heuristic = Heuristic::best();
  const auto ours = svmcore::train(train, params_for(entry), options);

  svmbaseline::BaselineOptions baseline_options;
  baseline_options.C = entry.C;
  baseline_options.eps = 1e-3;
  baseline_options.kernel = KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  const auto baseline = svmbaseline::solve_libsvm_like(train, baseline_options);
  const auto baseline_model =
      svmcore::build_model(train, baseline.alpha, baseline.rho, baseline_options.kernel);

  const double acc_ours = ours.model.accuracy(test);
  const double acc_baseline = baseline_model.accuracy(test);
  EXPECT_NEAR(acc_ours, acc_baseline, 0.03) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TableV, AccuracyParityP,
                         ::testing::Values("a9a", "usps", "mnist", "codrna", "w7a"));

// Property sweep over the ENTIRE zoo at small scale: the best shrinking
// heuristic must match the Original algorithm's training accuracy on every
// dataset family (the paper's central accuracy-preservation claim).
class ZooParityP : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooParityP, ShrinkingPreservesAccuracyEverywhere) {
  const ZooEntry& entry = svmdata::zoo_entry(GetParam());
  const Dataset train = svmdata::make_train(entry, 0.15);
  const SolverParams params = params_for(entry);

  TrainOptions original;
  original.num_ranks = 2;
  TrainOptions best;
  best.num_ranks = 2;
  best.heuristic = Heuristic::best();

  const auto a = svmcore::train(train, params, original);
  const auto b = svmcore::train(train, params, best);
  ASSERT_TRUE(a.converged) << GetParam();
  ASSERT_TRUE(b.converged) << GetParam();
  EXPECT_NEAR(b.model.accuracy(train), a.model.accuracy(train), 0.02) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllZooDatasets, ZooParityP,
                         ::testing::Values("higgs", "url", "forest", "realsim", "mnist",
                                           "codrna", "a9a", "w7a", "rcv1", "usps",
                                           "mushrooms"));

TEST(Integration, HiggsLikeEndToEnd) {
  // The headline workload at container scale: shrink + multi-reconstruction
  // beats Original on work while agreeing on the answer.
  const ZooEntry& entry = svmdata::zoo_entry("higgs");
  const Dataset train = svmdata::make_train(entry, 0.1);
  const SolverParams params = params_for(entry);

  TrainOptions original;
  original.num_ranks = 4;
  TrainOptions best;
  best.num_ranks = 4;
  best.heuristic = Heuristic::best();

  const auto r_original = svmcore::train(train, params, original);
  const auto r_best = svmcore::train(train, params, best);
  ASSERT_TRUE(r_original.converged);
  ASSERT_TRUE(r_best.converged);
  EXPECT_NEAR(r_best.model.accuracy(train), r_original.model.accuracy(train), 0.02);
}

TEST(Integration, UrlLikeSparseEndToEnd) {
  const ZooEntry& entry = svmdata::zoo_entry("url");
  const Dataset train = svmdata::make_train(entry, 0.1);
  TrainOptions options;
  options.num_ranks = 4;
  options.heuristic = Heuristic::best();
  const auto result = svmcore::train(train, params_for(entry), options);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.model.accuracy(train), 0.9);
}

}  // namespace
