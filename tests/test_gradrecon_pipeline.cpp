// Gradient-reconstruction ring parity. The reference backend's ring step is
// the serial ring's per-stale-sample loop (ascending j, merge join,
// (alpha*y)*K summed into a fresh +0.0 partial and added once), so the
// double-buffered ring on the dense_scatter path must produce a
// BIT-IDENTICAL model to the same ring on the reference backend — same
// iteration count, same beta, same support vectors, same coefficients — at
// every world size and through crash/shrink chaos schedules. On top of
// parity the overlap accounting must show the exchanges actually riding
// behind the compute (overlapped steps, overlapped modeled seconds).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/distributed_solver.hpp"
#include "core/trainer.hpp"
#include "data/zoo.hpp"
#include "kernel/kernel.hpp"
#include "mpisim/fault.hpp"
#include "mpisim/spmd.hpp"
#include "obs/metrics.hpp"

namespace {

using svmcore::DistributedConfig;
using svmcore::DistributedSolver;
using svmcore::Heuristic;
using svmcore::RecoveryOptions;
using svmcore::RecoveryPolicy;
using svmcore::RecoveryReport;
using svmcore::SolverParams;
using svmcore::TrainOptions;
using svmcore::TrainResult;
using svmdata::Dataset;
using svmdata::ZooEntry;
using svmkernel::EngineBackend;
using svmmpi::FaultInjector;
using svmmpi::FaultPlan;

// Workload where shrinking (and therefore Algorithm 3 reconstruction) always
// fires: every test below asserts reconstructions > 0 so a parity pass can
// never be vacuous.
constexpr const char* kDataset = "codrna";
constexpr const char* kHeuristic = "Multi5pc";
constexpr double kScale = 0.15;

SolverParams params_for(const ZooEntry& entry,
                        EngineBackend backend = EngineBackend::dense_scatter) {
  SolverParams p;
  p.C = entry.C;
  p.eps = 1e-3;
  p.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  p.engine_backend = backend;
  return p;
}

TrainOptions options_for(int ranks, const char* heuristic = kHeuristic) {
  TrainOptions options;
  options.num_ranks = ranks;
  options.heuristic = Heuristic::parse(heuristic);
  return options;
}

void expect_bit_identical(const TrainResult& a, const TrainResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.model.num_support_vectors(), b.model.num_support_vectors());
  for (std::size_t j = 0; j < a.model.num_support_vectors(); ++j)
    EXPECT_EQ(a.model.coefficients()[j], b.model.coefficients()[j]) << "sv " << j;
}

/// Total communication ops rank `rank` issues during a fault-free solve:
/// lets the chaos tests schedule failures at precise fractions of the run.
std::uint64_t probe_ops(const Dataset& d, const SolverParams& params,
                        const TrainOptions& options, int rank) {
  FaultInjector probe{FaultPlan{}};
  const DistributedConfig config = svmcore::solver_config(params, options);
  svmmpi::run_spmd(
      options.num_ranks,
      [&](svmmpi::Comm& comm) {
        DistributedSolver solver(comm, d, config);
        (void)solver.solve();
      },
      options.net_model, nullptr, &probe);
  return probe.ops(rank);
}

class PipelineParityP : public ::testing::TestWithParam<int> {};

TEST_P(PipelineParityP, ModelBitIdenticalToSerialRing) {
  const int p = GetParam();
  const ZooEntry& entry = svmdata::zoo_entry(kDataset);
  const Dataset train = svmdata::make_train(entry, kScale);

  const TrainResult serial =
      svmcore::train(train, params_for(entry, EngineBackend::reference), options_for(p));
  const TrainResult pipelined = svmcore::train(train, params_for(entry), options_for(p));

  ASSERT_TRUE(serial.converged);
  ASSERT_GT(pipelined.reconstructions, 0u) << "workload must exercise Algorithm 3";
  expect_bit_identical(pipelined, serial);
  // Identical final models AND identical iteration counts mean every
  // intermediate gamma was identical too: WSS picks the extreme-gamma pair,
  // so the first diverging gradient would change the trajectory.
  EXPECT_EQ(pipelined.total_kernel_evaluations, serial.total_kernel_evaluations);
  EXPECT_EQ(pipelined.reconstructions, serial.reconstructions);

  // Overlap accounting, on every rank: each reconstruction runs p ring steps
  // of which the p-1 exchanging ones are overlapped, and the hidden share
  // of the modeled exchange seconds is positive but never more than all.
  ASSERT_EQ(pipelined.rank_metrics.size(), static_cast<std::size_t>(p));
  const auto steps = static_cast<double>(pipelined.reconstructions);
  for (const svmobs::MetricsRegistry& m : pipelined.rank_metrics) {
    EXPECT_EQ(m.value("recon.ring_steps"), steps * p);
    EXPECT_EQ(m.value("recon.overlapped_steps"), steps * (p - 1));
    EXPECT_GT(m.value("recon.comm_s"), 0.0);
    EXPECT_GT(m.value("recon.overlapped_s"), 0.0);
    EXPECT_LE(m.value("recon.overlapped_s"), m.value("recon.comm_s"));
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, PipelineParityP, ::testing::Values(2, 4, 8),
                         [](const auto& param_info) {
                           return "p" + std::to_string(param_info.param);
                         });

TEST(GradReconPipeline, PipelinedDenseScatterMatchesSerialReference) {
  // The same cross-backend parity under Algorithm 4 (one reconstruction,
  // then a sweep without shrinking) on an odd world, whose blocks differ in
  // size.
  const ZooEntry& entry = svmdata::zoo_entry(kDataset);
  const Dataset train = svmdata::make_train(entry, kScale);

  const TrainResult serial_ref = svmcore::train(
      train, params_for(entry, EngineBackend::reference), options_for(3, "Single5pc"));
  const TrainResult pipelined_fused = svmcore::train(
      train, params_for(entry, EngineBackend::dense_scatter), options_for(3, "Single5pc"));

  ASSERT_TRUE(serial_ref.converged);
  ASSERT_GT(pipelined_fused.reconstructions, 0u);
  expect_bit_identical(pipelined_fused, serial_ref);
  EXPECT_EQ(pipelined_fused.total_kernel_evaluations, serial_ref.total_kernel_evaluations);
}

TEST(GradReconPipeline, MinActiveCoversFinalPhaseExit) {
  // stats_.min_active must be sampled at phase exits too, not only at shrink
  // passes: the summed minimum stays a true lower bound on the global active
  // set and never exceeds the dataset size.
  const ZooEntry& entry = svmdata::zoo_entry(kDataset);
  const Dataset train = svmdata::make_train(entry, kScale);
  const TrainResult result = svmcore::train(train, params_for(entry), options_for(4));
  ASSERT_TRUE(result.converged);
  ASSERT_GT(result.samples_shrunk, 0u);

  std::size_t summed_min = 0;
  for (const auto& s : result.rank_stats) {
    EXPECT_GT(s.min_active, 0u);
    summed_min += s.min_active;
  }
  EXPECT_LT(summed_min, train.size()) << "shrinking ran, so some rank dipped below its range";
  EXPECT_GT(summed_min, 0u);
}

TEST(GradReconPipeline, CrashMidPipelineRecoversBitIdentical) {
  // A rank crash while the ring is in flight (Isend/Irecv posted, compute
  // running) must unwind cleanly and replay from the last checkpoint cut to
  // the exact fault-free model. Three crash points sweep the schedule so at
  // least one lands inside a reconstruction's pipelined steps.
  const ZooEntry& entry = svmdata::zoo_entry(kDataset);
  const Dataset train = svmdata::make_train(entry, kScale);
  const SolverParams params = params_for(entry);
  const TrainOptions options = options_for(4);

  const TrainResult baseline = svmcore::train(train, params, options);
  ASSERT_TRUE(baseline.converged);
  ASSERT_GT(baseline.reconstructions, 0u);

  const std::uint64_t total_ops = probe_ops(train, params, options, /*rank=*/1);
  ASSERT_GT(total_ops, 100u);

  for (const std::uint64_t at : {total_ops / 3, total_ops / 2, (2 * total_ops) / 3}) {
    RecoveryOptions recovery;
    recovery.fault_plan = FaultPlan{}.crash(1, at);
    recovery.checkpoint_interval = 32;
    RecoveryReport report;
    const TrainResult recovered =
        svmcore::train_with_recovery(train, params, options, recovery, &report);
    EXPECT_EQ(report.restarts, 1) << "crash op " << at;
    EXPECT_TRUE(recovered.converged) << "crash op " << at;
    expect_bit_identical(recovered, baseline);
  }
}

TEST(GradReconPipeline, ShrinkWorldMidPipelineMatchesFaultFree) {
  // Permanent loss (FaultPlan::die) with in-world shrink recovery: the
  // survivors resume the identical SMO trajectory on p-1 ranks and the
  // pipelined reconstruction keeps running on the compacted ring. Same
  // support-vector set; coefficients differ only by the re-grouped ring and
  // assembly summations.
  const ZooEntry& entry = svmdata::zoo_entry(kDataset);
  const Dataset train = svmdata::make_train(entry, kScale);
  const SolverParams params = params_for(entry);
  TrainOptions options = options_for(4);
  options.net_model.timeout_s = 5.0;  // shrink recovery needs a deadline

  const TrainResult baseline = svmcore::train(train, params, options);
  ASSERT_TRUE(baseline.converged);
  ASSERT_GT(baseline.reconstructions, 0u);

  const std::uint64_t total_ops = probe_ops(train, params, options, /*rank=*/1);
  ASSERT_GT(total_ops, 100u);

  RecoveryOptions recovery;
  recovery.fault_plan = FaultPlan{}.die(1, total_ops / 2);
  recovery.policy = RecoveryPolicy::shrink_world;
  recovery.checkpoint_interval = 32;
  RecoveryReport report;
  const TrainResult shrunk =
      svmcore::train_with_recovery(train, params, options, recovery, &report);

  EXPECT_EQ(report.shrinks, 1);
  EXPECT_EQ(report.restarts, 0) << "shrink_world must never relaunch the world";
  EXPECT_TRUE(shrunk.converged);
  EXPECT_EQ(shrunk.iterations, baseline.iterations);
  ASSERT_EQ(shrunk.model.num_support_vectors(), baseline.model.num_support_vectors());
  for (std::size_t j = 0; j < baseline.model.num_support_vectors(); ++j)
    EXPECT_NEAR(shrunk.model.coefficients()[j], baseline.model.coefficients()[j], 1e-10)
        << "sv " << j;
}

}  // namespace
