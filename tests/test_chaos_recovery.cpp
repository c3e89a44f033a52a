// Checkpoint/restart fault tolerance. A seeded FaultPlan kills a rank (and
// optionally drops/delays messages) mid-solve; train_with_recovery must
// restart from the last consistent checkpoint cut and converge to the same
// model a fault-free run produces — bit-identical for a crash-only schedule,
// within 1e-10 for schedules that also perturb timing. With recovery disabled
// the same schedule must surface RankFailed/TimeoutError in bounded
// wall-clock time, never a hang.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/distributed_solver.hpp"
#include "core/sequential_smo.hpp"
#include "core/trainer.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "kernel/kernel.hpp"
#include "mpisim/fault.hpp"
#include "mpisim/spmd.hpp"

namespace {

using svmcore::CheckpointStore;
using svmcore::DistributedConfig;
using svmcore::DistributedSolver;
using svmcore::Heuristic;
using svmcore::RankCheckpoint;
using svmcore::RecoveryOptions;
using svmcore::RecoveryPolicy;
using svmcore::RecoveryReport;
using svmcore::SolverParams;
using svmcore::TrainOptions;
using svmcore::TrainResult;
using svmdata::Dataset;
using svmkernel::KernelParams;
using svmmpi::FaultInjector;
using svmmpi::FaultPlan;
using svmmpi::FaultSite;

Dataset chaos_dataset() {
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

TrainOptions ranks4(Heuristic heuristic) {
  TrainOptions options;
  options.num_ranks = 4;
  options.heuristic = heuristic;
  return options;
}

/// Total communication ops rank `rank` issues during a fault-free solve:
/// lets tests schedule crashes at a precise fraction of the run.
std::uint64_t probe_ops(const Dataset& d, const SolverParams& params, const TrainOptions& options,
                        int rank) {
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

void expect_same_model(const TrainResult& a, const TrainResult& b, double tolerance) {
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.model.num_support_vectors(), b.model.num_support_vectors());
  if (tolerance == 0.0) {
    EXPECT_EQ(a.beta, b.beta);
    for (std::size_t j = 0; j < a.model.num_support_vectors(); ++j)
      EXPECT_EQ(a.model.coefficients()[j], b.model.coefficients()[j]);
  } else {
    EXPECT_NEAR(a.beta, b.beta, tolerance);
    for (std::size_t j = 0; j < a.model.num_support_vectors(); ++j)
      EXPECT_NEAR(a.model.coefficients()[j], b.model.coefficients()[j], tolerance);
  }
}

/// Dual objective recomputed from the assembled model alone:
///   W = sum_j |c_j| - 1/2 sum_{j,k} c_j c_k K(sv_j, sv_k)
/// (|c_j| = alpha_j because c_j = alpha_j * y_j and y_j^2 = 1). Lets tests
/// compare runs without access to the full alpha vector.
double model_objective(const svmcore::SvmModel& m) {
  const svmdata::CsrMatrix& sv = m.support_vectors();
  const std::vector<double>& c = m.coefficients();
  const svmkernel::Kernel kernel(m.kernel_params());
  std::vector<double> sq(c.size());
  for (std::size_t j = 0; j < c.size(); ++j)
    sq[j] = svmdata::CsrMatrix::squared_norm(sv.row(j));
  double sum_alpha = 0.0;
  double quad = 0.0;
  for (std::size_t j = 0; j < c.size(); ++j) {
    sum_alpha += std::abs(c[j]);
    for (std::size_t k = 0; k < c.size(); ++k)
      quad += c[j] * c[k] * kernel.eval(sv.row(j), sv.row(k), sq[j], sq[k]);
  }
  return sum_alpha - 0.5 * quad;
}

// --- RankCheckpoint serialization ------------------------------------------

RankCheckpoint sample_checkpoint() {
  RankCheckpoint c;
  c.stage = 2;
  c.stalls = 1;
  c.iterations = 4242;
  c.delta_counter = 17;
  c.beta_up = -0.75;
  c.beta_low = 0.5;
  c.i_up = 12;
  c.i_low = 99;
  c.shrink_passes = 3;
  c.samples_shrunk = 40;
  c.reconstructions = 2;
  c.min_active = 11;
  c.alpha = {0.0, 1.5, 4.0};
  c.gamma = {-1.0, 0.25, 2.0};
  c.shrunk = {0, 1, 0};
  c.active = {0, 2};
  return c;
}

TEST(RankCheckpointTest, SerializeDeserializeRoundTrip) {
  const RankCheckpoint original = sample_checkpoint();
  const RankCheckpoint restored = RankCheckpoint::deserialize(original.serialize());
  EXPECT_EQ(restored, original);
}

TEST(RankCheckpointTest, CorruptBuffersAreRejected) {
  const std::vector<std::byte> bytes = sample_checkpoint().serialize();

  // Truncation anywhere must throw, never read out of bounds.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{17},
                                 bytes.size() / 2, bytes.size() - 1}) {
    const std::vector<std::byte> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW((void)RankCheckpoint::deserialize(cut), std::runtime_error) << keep;
  }
  // Trailing garbage.
  std::vector<std::byte> padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)RankCheckpoint::deserialize(padded), std::runtime_error);
  // Bad magic.
  std::vector<std::byte> wrong = bytes;
  wrong[0] = std::byte{0xFF};
  EXPECT_THROW((void)RankCheckpoint::deserialize(wrong), std::runtime_error);
  // Inconsistent array lengths (gamma shorter than alpha).
  RankCheckpoint mismatched = sample_checkpoint();
  mismatched.gamma.pop_back();
  EXPECT_THROW((void)RankCheckpoint::deserialize(mismatched.serialize()), std::runtime_error);
}

// --- CheckpointStore semantics ---------------------------------------------

TEST(CheckpointStoreTest, PinsNewestEpochPresentOnAllRanks) {
  CheckpointStore store(2);
  RankCheckpoint c = sample_checkpoint();

  EXPECT_FALSE(store.begin_restart().has_value());  // nothing saved yet

  c.iterations = 64;
  store.save(0, 64, c);
  EXPECT_FALSE(store.begin_restart().has_value());  // rank 1 never checkpointed

  store.save(1, 64, c);
  c.iterations = 128;
  store.save(0, 128, c);  // rank 0 ran ahead one boundary
  const auto epoch = store.begin_restart();
  ASSERT_TRUE(epoch.has_value());
  EXPECT_EQ(*epoch, 64u);  // newest epoch both ranks have

  const auto restored = store.restore(0);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->iterations, 64u);
  // Non-pinned epochs were discarded by begin_restart.
  EXPECT_EQ(store.epochs(0), std::vector<std::uint64_t>{64});
}

TEST(CheckpointStoreTest, RetainsOnlyTwoEpochsPerRank) {
  CheckpointStore store(1);
  RankCheckpoint c = sample_checkpoint();
  for (std::uint64_t e : {32u, 64u, 96u, 128u}) store.save(0, e, c);
  EXPECT_EQ(store.epochs(0), (std::vector<std::uint64_t>{96, 128}));
  EXPECT_EQ(store.saves(), 4u);
}

TEST(CheckpointStoreTest, FileBackedStoreSurvivesReopen) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "shrinksvm_ckpt_test";
  std::filesystem::remove_all(dir);

  RankCheckpoint c = sample_checkpoint();
  {
    CheckpointStore store(2, dir.string());
    store.save(0, 64, c);
    store.save(1, 64, c);
    store.save(0, 128, c);  // straggler epoch, only on rank 0
  }
  CheckpointStore reopened = CheckpointStore::open(2, dir.string());
  const auto epoch = reopened.begin_restart();
  ASSERT_TRUE(epoch.has_value());
  EXPECT_EQ(*epoch, 64u);
  const auto restored = reopened.restore(1);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, c);
  // begin_restart pruned the rank-0-only epoch, on disk too.
  EXPECT_FALSE(std::filesystem::exists(dir / "ckpt_r0_e128.bin"));
  EXPECT_TRUE(std::filesystem::exists(dir / "ckpt_r0_e64.bin"));
  std::filesystem::remove_all(dir);
}

// --- buddy replication & elastic repartition --------------------------------

/// Slices a consistent global solver state into rank `rank`'s checkpoint
/// under a `num_ranks`-way contiguous partition. Global scalars are the same
/// on every rank, as at a real checkpoint boundary.
RankCheckpoint slice_checkpoint(const std::vector<double>& alpha_g,
                                const std::vector<double>& gamma_g,
                                const std::vector<std::uint8_t>& shrunk_g,
                                std::uint64_t epoch, int num_ranks, int rank) {
  const svmdata::BlockRange range = svmdata::block_range(alpha_g.size(), num_ranks, rank);
  RankCheckpoint c;
  c.stage = 1;
  c.stalls = 2;
  c.iterations = epoch;
  c.delta_counter = 7;
  c.beta_up = -0.25;
  c.beta_low = 0.75;
  c.i_up = 3;
  c.i_low = 9;
  c.shrink_passes = 1;
  c.reconstructions = 1;
  c.alpha.assign(alpha_g.begin() + static_cast<std::ptrdiff_t>(range.begin),
                 alpha_g.begin() + static_cast<std::ptrdiff_t>(range.end));
  c.gamma.assign(gamma_g.begin() + static_cast<std::ptrdiff_t>(range.begin),
                 gamma_g.begin() + static_cast<std::ptrdiff_t>(range.end));
  c.shrunk.assign(shrunk_g.begin() + static_cast<std::ptrdiff_t>(range.begin),
                  shrunk_g.begin() + static_cast<std::ptrdiff_t>(range.end));
  for (std::uint32_t i = 0; i < c.alpha.size(); ++i)
    if (c.shrunk[i] == 0) c.active.push_back(i);
  // Per-rank work counters cover the local block only.
  c.samples_shrunk = static_cast<std::uint64_t>(
      std::count_if(c.shrunk.begin(), c.shrunk.end(), [](std::uint8_t s) { return s != 0; }));
  c.min_active = c.active.size();
  return c;
}

/// A 10-sample global state with non-trivial per-sample values, saved into a
/// `num_ranks`-way store at `epoch`.
struct GlobalState {
  std::vector<double> alpha;
  std::vector<double> gamma;
  std::vector<std::uint8_t> shrunk;
};

GlobalState sample_global_state() {
  GlobalState g;
  for (std::size_t i = 0; i < 10; ++i) {
    g.alpha.push_back(0.5 * static_cast<double>(i));
    g.gamma.push_back(-1.0 + 0.1 * static_cast<double>(i));
    g.shrunk.push_back(static_cast<std::uint8_t>(i % 3 == 0));
  }
  return g;
}

void save_all_ranks(CheckpointStore& store, const GlobalState& g, std::uint64_t epoch) {
  for (int r = 0; r < store.num_ranks(); ++r)
    store.save(r, epoch, slice_checkpoint(g.alpha, g.gamma, g.shrunk, epoch, store.num_ranks(), r));
}

TEST(ElasticRepartitionTest, BuddyReplicaRecoversSingleRankLossInMemory) {
  const GlobalState g = sample_global_state();
  CheckpointStore store(4);  // memory-only: no spill directory
  save_all_ranks(store, g, 64);
  save_all_ranks(store, g, 96);

  // Rank 1's process memory is gone; its newest state survives only as the
  // buddy replica mirrored into rank 2's memory.
  store.mark_rank_lost(1);
  EXPECT_TRUE(store.epochs(1).empty());

  CheckpointStore target(3);
  const auto epoch = svmcore::repartition_from_checkpoints(store, g.alpha.size(), target);
  ASSERT_TRUE(epoch.has_value());
  EXPECT_EQ(*epoch, 96u);

  const auto pinned = target.begin_restart();
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(*pinned, 96u);
  for (int r = 0; r < 3; ++r) {
    const auto restored = target.restore(r);
    ASSERT_TRUE(restored.has_value()) << "target rank " << r;
    // Per-sample state re-sliced along the 3-way partition matches the
    // stitched global arrays exactly.
    const RankCheckpoint expected =
        slice_checkpoint(g.alpha, g.gamma, g.shrunk, 96, /*num_ranks=*/3, r);
    EXPECT_EQ(restored->alpha, expected.alpha) << "target rank " << r;
    EXPECT_EQ(restored->gamma, expected.gamma) << "target rank " << r;
    EXPECT_EQ(restored->shrunk, expected.shrunk) << "target rank " << r;
    EXPECT_EQ(restored->active, expected.active) << "target rank " << r;
    // Global scalars carry over verbatim.
    EXPECT_EQ(restored->stage, expected.stage);
    EXPECT_EQ(restored->stalls, expected.stalls);
    EXPECT_EQ(restored->iterations, 96u);
    EXPECT_EQ(restored->delta_counter, expected.delta_counter);
    EXPECT_EQ(restored->beta_up, expected.beta_up);
    EXPECT_EQ(restored->beta_low, expected.beta_low);
    EXPECT_EQ(restored->i_up, expected.i_up);
    EXPECT_EQ(restored->i_low, expected.i_low);
    EXPECT_EQ(restored->samples_shrunk, expected.samples_shrunk);
  }
}

TEST(ElasticRepartitionTest, AdjacentDoubleLossIsUnrecoverableNonAdjacentIsNot) {
  const GlobalState g = sample_global_state();
  {
    // Adjacent pair (1, 2): rank 1's only replica lived in rank 2's memory,
    // so no fully-reachable consistent cut remains.
    CheckpointStore store(4);
    save_all_ranks(store, g, 64);
    store.mark_rank_lost(1);
    store.mark_rank_lost(2);
    CheckpointStore target(2);
    EXPECT_FALSE(svmcore::repartition_from_checkpoints(store, g.alpha.size(), target).has_value());
  }
  {
    // Non-adjacent pair (0, 2): each dead rank's replica lives in a survivor.
    CheckpointStore store(4);
    save_all_ranks(store, g, 64);
    store.mark_rank_lost(0);
    store.mark_rank_lost(2);
    CheckpointStore target(2);
    const auto epoch = svmcore::repartition_from_checkpoints(store, g.alpha.size(), target);
    ASSERT_TRUE(epoch.has_value());
    EXPECT_EQ(*epoch, 64u);
  }
  {
    // Without buddy replication, any single memory loss is unrecoverable.
    CheckpointStore store(4, /*directory=*/{}, /*buddy_replication=*/false);
    save_all_ranks(store, g, 64);
    store.mark_rank_lost(1);
    CheckpointStore target(3);
    EXPECT_FALSE(svmcore::repartition_from_checkpoints(store, g.alpha.size(), target).has_value());
  }
}

TEST(CheckpointStoreTest, TruncatedDiskCheckpointIsSkippedNotFatal) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "shrinksvm_ckpt_truncated";
  std::filesystem::remove_all(dir);

  RankCheckpoint c = sample_checkpoint();
  {
    CheckpointStore store(2, dir.string());
    for (const std::uint64_t epoch : {64u, 128u}) {
      c.iterations = epoch;
      store.save(0, epoch, c);
      store.save(1, epoch, c);
    }
  }
  // Model a torn write: rank 1's newest spill is cut short mid-file.
  std::filesystem::resize_file(dir / "ckpt_r1_e128.bin", 10);

  // open() must skip the bad file (with a warning) instead of throwing the
  // whole store away; the restart falls back to the older complete epoch.
  CheckpointStore reopened = CheckpointStore::open(2, dir.string());
  EXPECT_EQ(reopened.corrupt_skipped(), 1u);
  const auto epoch = reopened.begin_restart();
  ASSERT_TRUE(epoch.has_value());
  EXPECT_EQ(*epoch, 64u);
  const auto restored = reopened.restore(1);
  ASSERT_TRUE(restored.has_value());
  c.iterations = 64;
  EXPECT_EQ(*restored, c);
  std::filesystem::remove_all(dir);
}

// --- end-to-end chaos runs -------------------------------------------------

TEST(ChaosRecovery, CrashOnlyScheduleRecoversBitIdentically) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  // Multi-reconstruction heuristic: exercises the staged Algorithm 5 driver,
  // so the crash can land after reconstructions and mid-tight-phase.
  const TrainOptions options = ranks4(Heuristic::best());

  const TrainResult baseline = svmcore::train(d, params, options);
  ASSERT_TRUE(baseline.converged);

  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/1);
  ASSERT_GT(total_ops, 100u);

  RecoveryOptions recovery;
  recovery.fault_plan = FaultPlan{}.crash(1, total_ops / 2);
  recovery.checkpoint_interval = 32;
  RecoveryReport report;
  const TrainResult recovered =
      svmcore::train_with_recovery(d, params, options, recovery, &report);

  EXPECT_EQ(report.restarts, 1);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("injected crash"), std::string::npos);
  ASSERT_EQ(report.restore_epochs.size(), 1u);
  EXPECT_GT(report.restore_epochs[0], 0u) << "restart should resume from a checkpoint";
  EXPECT_GT(report.checkpoints_saved, 0u);

  EXPECT_TRUE(recovered.converged);
  // Deterministic replay from a consistent cut: bit-identical model.
  expect_same_model(recovered, baseline, /*tolerance=*/0.0);
}

TEST(ChaosRecovery, CrashDuringAlgorithm4FinishPhaseRecovers) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  const TrainOptions options = ranks4(Heuristic::parse("Single2"));

  const TrainResult baseline = svmcore::train(d, params, options);
  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/2);

  // Crash late in the run — typically inside the post-reconstruction sweep,
  // exercising the stage-1 resume path.
  RecoveryOptions recovery;
  recovery.fault_plan = FaultPlan{}.crash(2, (total_ops * 9) / 10);
  recovery.checkpoint_interval = 16;
  RecoveryReport report;
  const TrainResult recovered =
      svmcore::train_with_recovery(d, params, options, recovery, &report);

  EXPECT_EQ(report.restarts, 1);
  expect_same_model(recovered, baseline, /*tolerance=*/0.0);
}

TEST(ChaosRecovery, SeededChaosScheduleStaysWithinTolerance) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  TrainOptions options = ranks4(Heuristic::best());
  // Drops starve a receiver forever; the pop deadline turns that into a
  // TimeoutError the retry driver can recover from.
  options.net_model.timeout_s = 0.25;

  const TrainResult baseline = svmcore::train(d, params, options);
  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/0);

  RecoveryOptions recovery;
  // Seeded drops and delays, plus a crash pinned mid-run so the schedule is
  // guaranteed to kill one attempt regardless of the seed.
  recovery.fault_plan =
      FaultPlan::chaos(/*seed=*/1234, options.num_ranks, /*horizon=*/total_ops,
                       /*drops=*/2, /*delays=*/3, /*with_crash=*/false, /*max_delay_s=*/1e-3)
          .crash(1, total_ops / 2);
  recovery.checkpoint_interval = 32;
  RecoveryReport report;
  const TrainResult recovered =
      svmcore::train_with_recovery(d, params, options, recovery, &report);

  EXPECT_TRUE(recovered.converged);
  EXPECT_GE(report.restarts, 1) << "the crash alone should force one restart";
  // Replay is deterministic, so even the mixed schedule reproduces the
  // fault-free model far inside the 1e-10 acceptance bound.
  expect_same_model(recovered, baseline, /*tolerance=*/1e-10);
}

TEST(ChaosRecovery, DroppedRingSendRecoversBitIdentically) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  // The violating pair travels inside the selection allreduce, so the
  // reconstruction ring is an SMO solve's only point-to-point traffic and a
  // dropped send can only land there. Multi-reconstruction runs the ring
  // at the end of every phase, the last one past the run's midpoint.
  TrainOptions options = ranks4(Heuristic::best());
  // The starved ring receiver and the peers waiting for it at the next
  // selection rendezvous give up after the deadline: a TimeoutError the
  // retry driver recovers from. A fault-free op never comes near 1 s.
  options.net_model.timeout_s = 1.0;

  const TrainResult baseline = svmcore::train(d, params, options);
  ASSERT_GT(baseline.reconstructions, 0u);
  // Every send of the solve is a ring exchange: p - 1 of each rank's p steps.
  const auto ring_steps = static_cast<std::uint64_t>(baseline.metrics.value("recon.ring_steps"));
  ASSERT_GT(ring_steps, 0u);
  EXPECT_EQ(baseline.traffic.sends * 4, ring_steps * 3);
  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/1);

  RecoveryOptions recovery;
  // Fires at rank 1's first send from mid-run on: a ring step.
  recovery.fault_plan = FaultPlan{}.drop(1, total_ops / 2);
  recovery.checkpoint_interval = 32;
  RecoveryReport report;
  const TrainResult recovered =
      svmcore::train_with_recovery(d, params, options, recovery, &report);

  EXPECT_EQ(report.restarts, 1) << "the dropped ring message must stall one attempt";
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("timed out"), std::string::npos) << report.failures[0];
  ASSERT_EQ(report.restore_epochs.size(), 1u);
  EXPECT_GT(report.restore_epochs[0], 0u) << "restart should resume from a checkpoint";
  EXPECT_TRUE(recovered.converged);
  expect_same_model(recovered, baseline, /*tolerance=*/0.0);
}

TEST(ChaosRecovery, RecoveryDisabledFailsFastInsteadOfHanging) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  TrainOptions options = ranks4(Heuristic::best());
  options.net_model.timeout_s = 0.25;

  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/0);
  RecoveryOptions recovery;
  recovery.fault_plan =
      FaultPlan::chaos(1234, options.num_ranks, total_ops, 2, 3, false, 1e-3)
          .crash(1, total_ops / 2);
  recovery.max_restarts = 0;  // recovery disabled: first failure is fatal

  const auto start = std::chrono::steady_clock::now();
  bool failed_as_expected = false;
  try {
    (void)svmcore::train_with_recovery(d, params, options, recovery);
  } catch (const svmmpi::RankFailed&) {
    failed_as_expected = true;
  } catch (const svmmpi::TimeoutError&) {
    failed_as_expected = true;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_TRUE(failed_as_expected)
      << "the schedule contains a crash, so the run must fail without recovery";
  EXPECT_LT(elapsed, 60.0) << "pop deadline must bound wall-clock time";
}

TEST(ChaosRecovery, ZeroIntervalReplaysFromScratch) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  const TrainOptions options = ranks4(Heuristic::best());

  const TrainResult baseline = svmcore::train(d, params, options);
  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/1);

  RecoveryOptions recovery;
  recovery.fault_plan = FaultPlan{}.crash(1, total_ops / 3);
  recovery.checkpoint_interval = 0;  // checkpointing off: restart = rerun
  RecoveryReport report;
  const TrainResult recovered =
      svmcore::train_with_recovery(d, params, options, recovery, &report);

  EXPECT_EQ(report.restarts, 1);
  ASSERT_EQ(report.restore_epochs.size(), 1u);
  EXPECT_EQ(report.restore_epochs[0], 0u);  // no checkpoint to resume from
  expect_same_model(recovered, baseline, /*tolerance=*/0.0);
}

// --- elastic shrink-world recovery -----------------------------------------

TEST(ElasticShrinkRecovery, MatchesFaultFreeModelAndReplaysFewerIterations) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  TrainOptions options = ranks4(Heuristic::best());
  options.net_model.timeout_s = 5.0;  // shrink recovery needs a deadline

  const TrainResult baseline = svmcore::train(d, params, options);
  ASSERT_TRUE(baseline.converged);
  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/1);
  ASSERT_GT(total_ops, 100u);

  // Permanent mid-solve loss of rank 1: its process memory (primary
  // checkpoints included) is gone; only the buddy replica in rank 2's memory
  // keeps a warm cut reachable. The store is memory-only on purpose.
  RecoveryOptions shrink;
  shrink.fault_plan = FaultPlan{}.die(1, total_ops / 2);
  shrink.policy = RecoveryPolicy::shrink_world;
  shrink.checkpoint_interval = 32;
  RecoveryReport shrink_report;
  const TrainResult shrunk =
      svmcore::train_with_recovery(d, params, options, shrink, &shrink_report);

  EXPECT_EQ(shrink_report.shrinks, 1);
  EXPECT_EQ(shrink_report.restarts, 0) << "shrink_world must never relaunch the world";
  EXPECT_EQ(shrink_report.ranks_lost, std::vector<int>{1});
  ASSERT_EQ(shrink_report.restore_epochs.size(), 1u);
  EXPECT_GT(shrink_report.restore_epochs[0], 0u)
      << "the buddy replica must make a warm cut reachable on a memory-only store";
  EXPECT_TRUE(shrunk.converged);

  // The resumed trajectory on 3 ranks is the same SMO trajectory: identical
  // support-vector set; coefficients/objective differ only by re-grouped
  // floating-point summation in the ring/assembly paths.
  expect_same_model(shrunk, baseline, /*tolerance=*/1e-10);
  EXPECT_NEAR(model_objective(shrunk.model), model_objective(baseline.model), 1e-10);

  // Same schedule under restart_world: the die() wiped rank 1's memory, the
  // memory-only store has no consistent cut left, and the cold world replays
  // from iteration 0.
  RecoveryOptions restart = shrink;
  restart.policy = RecoveryPolicy::restart_world;
  RecoveryReport restart_report;
  const TrainResult restarted =
      svmcore::train_with_recovery(d, params, options, restart, &restart_report);
  EXPECT_EQ(restart_report.restarts, 1);
  EXPECT_EQ(restart_report.shrinks, 0);
  ASSERT_EQ(restart_report.restore_epochs.size(), 1u);
  EXPECT_EQ(restart_report.restore_epochs[0], 0u)
      << "a cold replacement rank cannot read the dead rank's RAM";
  expect_same_model(restarted, baseline, /*tolerance=*/0.0);

  // The headline acceptance bound: in-world shrink replays strictly fewer
  // iterations than the restart path on the identical failure.
  EXPECT_GT(shrink_report.iterations_replayed, 0u);
  EXPECT_LT(shrink_report.iterations_replayed, restart_report.iterations_replayed);
}

TEST(ElasticShrinkRecovery, ShrinkThenRestartSurvivesDoubleDeath) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  TrainOptions options = ranks4(Heuristic::best());
  options.net_model.timeout_s = 5.0;

  const TrainResult baseline = svmcore::train(d, params, options);
  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/1);

  // Adjacent ranks 1 and 2 die around the same point. When both deaths land
  // in one agreed set the buddy chain is severed (rank 1's replica lived in
  // rank 2) and shrink_then_restart escalates to a full cold restart; when
  // they are detected one at a time two successive shrinks recover in-world.
  // Either way the run must finish with the fault-free model.
  RecoveryOptions recovery;
  recovery.fault_plan = FaultPlan{}.die(1, total_ops / 2).die(2, total_ops / 2);
  recovery.policy = RecoveryPolicy::shrink_then_restart;
  recovery.checkpoint_interval = 32;
  RecoveryReport report;
  const TrainResult out = svmcore::train_with_recovery(d, params, options, recovery, &report);

  EXPECT_TRUE(out.converged);
  EXPECT_EQ(report.ranks_lost, (std::vector<int>{1, 2}));
  EXPECT_GE(report.shrinks + report.restarts, 1);
  expect_same_model(out, baseline, /*tolerance=*/1e-10);
  EXPECT_NEAR(model_objective(out.model), model_objective(baseline.model), 1e-10);
}

TEST(ElasticShrinkRecovery, ShrinkThenRestartWithoutCheckpointsEscalates) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  TrainOptions options = ranks4(Heuristic::best());
  options.net_model.timeout_s = 5.0;

  const TrainResult baseline = svmcore::train(d, params, options);
  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/1);

  // Checkpointing off: no cut is ever reachable, so shrink_then_restart
  // escalates to a full-width restart instead of shrinking.
  RecoveryOptions recovery;
  recovery.fault_plan = FaultPlan{}.die(1, total_ops / 2);
  recovery.policy = RecoveryPolicy::shrink_then_restart;
  recovery.checkpoint_interval = 0;
  RecoveryReport report;
  const TrainResult out = svmcore::train_with_recovery(d, params, options, recovery, &report);

  EXPECT_EQ(report.shrinks, 0);
  EXPECT_EQ(report.restarts, 1);
  EXPECT_EQ(report.ranks_lost, std::vector<int>{1});
  ASSERT_EQ(report.restore_epochs.size(), 1u);
  EXPECT_EQ(report.restore_epochs[0], 0u);
  expect_same_model(out, baseline, /*tolerance=*/0.0);
}

TEST(ElasticShrinkRecovery, SpentShrinkBudgetRestartsWithoutTheDeadRanksMemory) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  TrainOptions options = ranks4(Heuristic::best());
  options.net_model.timeout_s = 5.0;

  const TrainResult baseline = svmcore::train(d, params, options);
  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/1);

  // max_shrinks = 0: the first permanent loss escalates to a full-world
  // relaunch even under shrink_world. The dead rank's RAM is gone for that
  // relaunch too, so on a memory-only store the cold world replays from
  // scratch, exactly as restart_world does on the same failure.
  RecoveryOptions recovery;
  recovery.fault_plan = FaultPlan{}.die(1, total_ops / 2);
  recovery.policy = RecoveryPolicy::shrink_world;
  recovery.checkpoint_interval = 32;
  recovery.max_shrinks = 0;
  RecoveryReport report;
  const TrainResult out = svmcore::train_with_recovery(d, params, options, recovery, &report);

  EXPECT_EQ(report.restarts, 1);
  EXPECT_EQ(report.shrinks, 0);
  EXPECT_EQ(report.ranks_lost, std::vector<int>{1});
  ASSERT_EQ(report.restore_epochs.size(), 1u);
  EXPECT_EQ(report.restore_epochs[0], 0u)
      << "a cold replacement rank cannot read the dead rank's RAM";
  expect_same_model(out, baseline, /*tolerance=*/0.0);
}

TEST(ElasticShrinkRecovery, ShrinkPolicyRequiresDeadlineDetection) {
  const Dataset d = chaos_dataset();
  RecoveryOptions recovery;
  recovery.policy = RecoveryPolicy::shrink_world;
  TrainOptions options = ranks4(Heuristic::best());
  options.net_model.timeout_s = 0.0;  // no failure detector
  EXPECT_THROW((void)svmcore::train_with_recovery(d, rbf_params(), options, recovery),
               std::invalid_argument);
}

TEST(ChaosRecovery, ReconstructionDelayPastDeadlineNamesTheCollective) {
  const Dataset d = chaos_dataset();
  const SolverParams params = rbf_params();
  // Multi-reconstruction heuristic: mid-solve ops sit where Algorithm 3's
  // ring gradient reconstruction interleaves with the selection reductions.
  TrainOptions options = ranks4(Heuristic::best());
  options.net_model.timeout_s = 0.25;
  const std::uint64_t total_ops = probe_ops(d, params, options, /*rank=*/2);

  // Rank 2 sleeps through the deadline right at a collective rendezvous; the
  // peers stuck in that rendezvous must fail fast with an error naming it,
  // never hang.
  RecoveryOptions recovery;
  recovery.fault_plan =
      FaultPlan{}.delay(2, total_ops / 2, /*seconds=*/2.0, FaultSite::collective);
  recovery.max_restarts = 0;

  const auto start = std::chrono::steady_clock::now();
  std::string message;
  try {
    (void)svmcore::train_with_recovery(d, params, options, recovery);
    ADD_FAILURE() << "a delay past the deadline must surface TimeoutError";
  } catch (const svmmpi::TimeoutError& e) {
    message = e.what();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_NE(message.find("collective rendezvous"), std::string::npos) << message;
  EXPECT_LT(elapsed, 60.0) << "deadline detection must bound wall-clock time";
}

}  // namespace
