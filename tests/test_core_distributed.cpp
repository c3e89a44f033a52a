// Equivalence of the parallel "Original" solver (Algorithm 2) with the
// sequential reference (Algorithm 1). Because the working-set selection uses
// index-tie-broken MINLOC/MAXLOC and the pair update is computed redundantly
// from the reduced state, the parallel solver must match the sequential one
// BITWISE for any rank count.
#include <gtest/gtest.h>

#include "core/sequential_smo.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace {

using svmcore::SolverParams;
using svmcore::TrainOptions;
using svmcore::TrainResult;
using svmdata::Dataset;
using svmkernel::KernelParams;

Dataset medium_dataset() {
  return svmdata::synthetic::gaussian_blobs(
      {.n = 160, .d = 6, .separation = 1.8, .label_noise = 0.05, .seed = 41});
}

SolverParams rbf_params() {
  SolverParams p;
  p.C = 4.0;
  p.eps = 1e-3;
  p.kernel = KernelParams::rbf_with_sigma_sq(4.0);
  return p;
}

class DistributedP : public ::testing::TestWithParam<int> {};

TEST_P(DistributedP, OriginalMatchesSequentialBitwise) {
  const Dataset d = medium_dataset();
  const SolverParams params = rbf_params();
  const auto sequential = svmcore::solve_sequential(d, params);

  TrainOptions options;
  options.num_ranks = GetParam();
  const TrainResult parallel = svmcore::train(d, params, options);

  EXPECT_EQ(parallel.iterations, sequential.stats.iterations);
  // beta averages gamma over I0; rank-partial sums regroup the additions,
  // so beta agrees to the last few ulps rather than bitwise.
  EXPECT_NEAR(parallel.beta, sequential.beta, 1e-12);

  // Reassemble the distributed alphas and compare bitwise.
  std::vector<double> alpha(d.size(), 0.0);
  std::size_t offset = 0;
  for (int r = 0; r < options.num_ranks; ++r) {
    const auto range = svmdata::block_range(d.size(), options.num_ranks, r);
    offset = range.begin;
    (void)offset;
  }
  // train() already stitched them into the model; compare support vectors.
  const auto model_seq =
      svmcore::build_model(d, sequential.alpha, sequential.beta, params.kernel);
  EXPECT_EQ(parallel.model.num_support_vectors(), model_seq.num_support_vectors());
  for (std::size_t j = 0; j < model_seq.num_support_vectors(); ++j)
    EXPECT_EQ(parallel.model.coefficients()[j], model_seq.coefficients()[j]);
}

TEST_P(DistributedP, ConvergedAndBoundsConsistent) {
  const Dataset d = medium_dataset();
  TrainOptions options;
  options.num_ranks = GetParam();
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  EXPECT_TRUE(r.converged);
  for (const auto& s : r.rank_stats) {
    EXPECT_EQ(s.iterations, r.iterations);  // global loop count is shared
    EXPECT_LE(s.final_beta_up + 2e-3 * 2, s.final_beta_low + 4e-3 + 1e-9);
  }
}

TEST_P(DistributedP, WorkSplitsAcrossRanks) {
  const Dataset d = medium_dataset();
  TrainOptions options;
  options.num_ranks = GetParam();
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  // Each rank evaluates kernels only for its block: the per-rank max should
  // be well below the single-rank total for p > 1.
  if (GetParam() > 1) {
    EXPECT_LT(r.max_rank_kernel_evaluations, r.total_kernel_evaluations);
    // And communication must have happened: all of it inside collectives,
    // since the pair travels in the selection allreduce and an Original
    // solve has no reconstruction ring.
    EXPECT_GT(r.traffic.collectives, 0u);
    EXPECT_GT(r.traffic.bytes_collective, 0u);
    EXPECT_EQ(r.traffic.sends, 0u);
  }
  // The rank registries are the one store of the engine's counters; the
  // aggregate sums them and engine_bytes_streamed is read from it.
  double bytes = 0.0;
  for (const auto& m : r.rank_metrics) bytes += m.value("engine.bytes_streamed");
  EXPECT_GT(bytes, 0.0);
  EXPECT_EQ(r.metrics.value("engine.bytes_streamed"), bytes);
  EXPECT_EQ(static_cast<double>(r.engine_bytes_streamed), bytes);
}

INSTANTIATE_TEST_SUITE_P(RankSweep, DistributedP, ::testing::Values(1, 2, 3, 4, 8));

TEST(Distributed, RejectsMoreRanksThanSamples) {
  Dataset d;
  d.X.add_row(std::vector<svmdata::Feature>{{0, 1.0}});
  d.X.add_row(std::vector<svmdata::Feature>{{0, -1.0}});
  d.y = {1.0, -1.0};
  TrainOptions options;
  options.num_ranks = 5;
  EXPECT_THROW((void)svmcore::train(d, rbf_params(), options), std::invalid_argument);
}

TEST(Distributed, RejectsSingleClassDataset) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.X.add_row(std::vector<svmdata::Feature>{{0, static_cast<double>(i)}});
    d.y.push_back(1.0);
  }
  TrainOptions options;
  options.num_ranks = 2;
  EXPECT_THROW((void)svmcore::train(d, rbf_params(), options), std::invalid_argument);
}

TEST(Distributed, ModeledTimeDecreasesWithRanksOnFixedProblem) {
  // The modeled per-rank compute shrinks ~1/p while modeled network time
  // grows only logarithmically: modeled time must improve from p=1 to p=8
  // on a compute-heavy problem.
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 400, .d = 10, .separation = 1.5, .label_noise = 0.05, .seed = 43});
  const SolverParams params = rbf_params();
  TrainOptions one;
  one.num_ranks = 1;
  TrainOptions eight;
  eight.num_ranks = 8;
  const double t1 = svmcore::train(d, params, one).modeled_seconds;
  const double t8 = svmcore::train(d, params, eight).modeled_seconds;
  EXPECT_LT(t8, t1);
}

TEST(Distributed, ActiveTraceRecordsShrinkingCurve) {
  const Dataset d = medium_dataset();
  TrainOptions options;
  options.num_ranks = 2;
  options.heuristic = svmcore::Heuristic::parse("Multi5pc");
  options.trace_active_interval = 50;
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  ASSERT_FALSE(r.active_trace.empty());
  // Iterations in the trace are multiples of the interval, ascending, and
  // active counts never exceed the dataset size.
  std::uint64_t previous = 0;
  for (const auto& [iteration, active] : r.active_trace) {
    EXPECT_EQ(iteration % 50, 0u);
    EXPECT_GT(iteration, previous);
    previous = iteration;
    EXPECT_LE(active, d.size());
    EXPECT_GT(active, 0u);
  }
  // With shrinking, some sample point must show a reduced active set.
  bool shrunk_seen = false;
  for (const auto& [iteration, active] : r.active_trace)
    if (active < d.size()) shrunk_seen = true;
  EXPECT_TRUE(shrunk_seen);
}

TEST(Distributed, TraceDisabledByDefault) {
  const Dataset d = medium_dataset();
  TrainOptions options;
  options.num_ranks = 2;
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  EXPECT_TRUE(r.active_trace.empty());
}

TEST(Distributed, OneSamplePerRankEdgeCase) {
  // p == n: every rank owns exactly one sample; the full communication
  // machinery (pair allreduce, reconstruction ring) runs with minimal blocks.
  svmdata::Dataset d;
  for (int i = 0; i < 12; ++i) {
    d.X.add_row(std::vector<svmdata::Feature>{{0, static_cast<double>(i % 2 ? 1 : -1)},
                                              {1, static_cast<double>(i) / 12.0}});
    d.y.push_back(i % 2 ? 1.0 : -1.0);
  }
  TrainOptions options;
  options.num_ranks = 12;
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.model.accuracy(d), 0.9);

  // And with shrinking on the same extreme layout.
  options.heuristic = svmcore::Heuristic::parse("Multi2");
  const TrainResult s = svmcore::train(d, rbf_params(), options);
  EXPECT_TRUE(s.converged);
  EXPECT_NEAR(s.beta, r.beta, 1e-9);
}

TEST(Distributed, TrafficScalesWithIterations) {
  const Dataset d = medium_dataset();
  TrainOptions options;
  options.num_ranks = 4;
  const TrainResult r = svmcore::train(d, rbf_params(), options);
  // Per iteration and rank: exactly one collective, the pair allreduce that
  // carries both violators; the few setup, loop-exit and threshold
  // reductions stay within 5%. No point-to-point message: an Original solve
  // has no reconstruction ring.
  const std::uint64_t rank_iterations =
      static_cast<std::uint64_t>(options.num_ranks) * r.iterations;
  EXPECT_GE(r.traffic.collectives, rank_iterations);
  EXPECT_LE(r.traffic.collectives, rank_iterations + rank_iterations / 20);
  EXPECT_EQ(r.traffic.sends, 0u);
}

}  // namespace
