// Parallel Block Minimization solver (src/solver/pbm_solver.*):
//  - degenerate case (1 rank, 1 block) reproduces the sequential SMO bitwise
//  - the trained model reaches the same optimality gap as SMO
//  - warm-started rounds are deterministic (bitwise re-runnable) and the
//    model is partition-independent across rank counts
//  - alpha-beta comm-volume accounting: each rank's TrafficStats
//    bytes_collective matches the hand-computed payload formula of the PBM
//    collective schedule at p = 2 and p = 4
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/objective.hpp"
#include "core/sequential_smo.hpp"
#include "core/trainer.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"

namespace {

using svmcore::SolverAlgo;
using svmcore::SolverParams;
using svmcore::TrainOptions;
using svmcore::TrainResult;
using svmdata::Dataset;
using svmkernel::KernelParams;

Dataset pbm_dataset() {
  return svmdata::synthetic::gaussian_blobs(
      {.n = 160, .d = 6, .separation = 1.8, .label_noise = 0.05, .seed = 41});
}

SolverParams pbm_params() {
  SolverParams p;
  p.C = 4.0;
  p.eps = 1e-3;
  p.kernel = KernelParams::rbf_with_sigma_sq(4.0);
  p.algo = SolverAlgo::pbm;
  return p;
}

TrainOptions ranks(int n) {
  TrainOptions options;
  options.num_ranks = n;
  return options;
}

std::uint64_t rank_counter(const TrainResult& result, int rank, const char* name) {
  const auto& counters = result.rank_metrics[rank].counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

TEST(PbmSolver, SingleRankSingleBlockMatchesSequentialBitwise) {
  const Dataset d = pbm_dataset();
  SolverParams params = pbm_params();
  params.pbm_blocks = 1;
  const auto sequential = svmcore::solve_sequential(d, [&] {
    SolverParams p = params;
    p.algo = SolverAlgo::smo;  // the sequential solver ignores algo; be explicit
    return p;
  }());

  const TrainResult pbm = svmcore::train(d, params, ranks(1));
  EXPECT_TRUE(pbm.converged);
  EXPECT_EQ(pbm.solver_algo, "pbm");
  // One block over [0, n): the inner solver IS the sequential solver, so
  // alpha (via the support vectors) and beta must agree bitwise.
  ASSERT_EQ(pbm.alpha.size(), sequential.alpha.size());
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(pbm.alpha[i], sequential.alpha[i]);
  EXPECT_EQ(pbm.beta, sequential.beta);
}

TEST(PbmSolver, ReachesSameOptimalityGapAsSmo) {
  const Dataset d = pbm_dataset();
  const SolverParams params = pbm_params();
  const TrainResult pbm = svmcore::train(d, params, ranks(4));
  EXPECT_TRUE(pbm.converged);

  const auto kkt = svmcore::kkt_report(d, pbm.alpha, params);
  // Same termination criterion as SMO: beta_low - beta_up <= 2*eps, plus
  // feasibility of the recovered alpha.
  EXPECT_LE(kkt.gap, 2.0 * params.eps + 1e-9);
  EXPECT_EQ(kkt.max_alpha_bound_violation, 0.0);
  EXPECT_LT(kkt.equality_residual, 1e-9);
}

TEST(PbmSolver, WarmStartedRoundsAreDeterministic) {
  const Dataset d = pbm_dataset();
  const SolverParams params = pbm_params();
  const TrainResult a = svmcore::train(d, params, ranks(4));
  const TrainResult b = svmcore::train(d, params, ranks(4));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.beta, b.beta);
  ASSERT_EQ(a.model.num_support_vectors(), b.model.num_support_vectors());
  for (std::size_t j = 0; j < a.model.num_support_vectors(); ++j)
    EXPECT_EQ(a.model.coefficients()[j], b.model.coefficients()[j]);
}

TEST(PbmSolver, DenseEncodingIsPartitionIndependent) {
  // Fixed B = 4 blocks executed by 1, 2 and 4 ranks: the trajectory depends
  // only on the block structure, so all three must produce the identical
  // model bitwise (this is the invariant shrink-world recovery relies on).
  const Dataset d = pbm_dataset();
  SolverParams params = pbm_params();
  params.pbm_blocks = 4;
  const TrainResult p1 = svmcore::train(d, params, ranks(1));
  const TrainResult p2 = svmcore::train(d, params, ranks(2));
  const TrainResult p4 = svmcore::train(d, params, ranks(4));
  EXPECT_EQ(p1.iterations, p2.iterations);
  EXPECT_EQ(p1.iterations, p4.iterations);
  EXPECT_EQ(p1.beta, p2.beta);
  EXPECT_EQ(p1.beta, p4.beta);
  ASSERT_EQ(p1.model.num_support_vectors(), p2.model.num_support_vectors());
  ASSERT_EQ(p1.model.num_support_vectors(), p4.model.num_support_vectors());
  for (std::size_t j = 0; j < p1.model.num_support_vectors(); ++j) {
    EXPECT_EQ(p1.model.coefficients()[j], p2.model.coefficients()[j]);
    EXPECT_EQ(p1.model.coefficients()[j], p4.model.coefficients()[j]);
  }
}

TEST(PbmSolver, RejectsFewerBlocksThanRanks) {
  const Dataset d = pbm_dataset();
  SolverParams params = pbm_params();
  params.pbm_blocks = 2;
  EXPECT_THROW((void)svmcore::train(d, params, ranks(4)), std::invalid_argument);
}

// --- alpha-beta comm-volume accounting --------------------------------------

class PbmCommVolume : public ::testing::TestWithParam<int> {};

TEST_P(PbmCommVolume, BytesCollectiveMatchesHandComputedSchedule) {
  const int p = GetParam();
  const Dataset d = pbm_dataset();
  const std::size_t n = d.size();
  const SolverParams params = pbm_params();  // B = p
  const TrainResult result = svmcore::train(d, params, ranks(p));
  ASSERT_TRUE(result.converged);

  for (int r = 0; r < p; ++r) {
    const svmmpi::TrafficStats& t = result.rank_traffic[r];
    const std::uint64_t rounds = rank_counter(result, r, "pbm.rounds");
    // Every round that moved alpha syncs it once and bills 8n payload bytes.
    const std::uint64_t payload = rank_counter(result, r, "pbm.sync_payload_bytes");
    ASSERT_EQ(payload % (8 * n), 0u);
    const std::uint64_t syncs = payload / (8 * n);
    const std::uint64_t searches = rank_counter(result, r, "pbm.line_search_rounds");

    // PBM's collective schedule, per rank: one class-presence allreduce
    // (2 int64 = 16 B), one 16 B census allreduce per round, one alpha
    // allgatherv per sync round charging each rank its OWN span's
    // 8 bytes/entry (spans tile [0, n), so the whole round moves 8n total
    // across ranks, not 8n per rank), one line-search allreduce of
    // 2 doubles per block (16 B per block) per multi-block round, one
    // beta-assembly allreduce of 2 doubles per block, and 2 16-byte
    // MINLOC/MAXLOC collectives per bounds refresh (loop tops + polish
    // steps). Recover the refresh count from the collective COUNT, then
    // check the BYTES identity:
    //   collectives = 1 + rounds + syncs + searches + 1 + 2 * refreshes
    const std::uint64_t fixed = 2 + rounds + syncs + searches;
    ASSERT_GE(t.collectives, fixed);
    ASSERT_EQ((t.collectives - fixed) % 2, 0u);
    const std::uint64_t refreshes = (t.collectives - fixed) / 2;

    const auto blocks = static_cast<std::uint64_t>(p);  // pbm_blocks defaults to p
    // B = p puts exactly one block on each rank: rank r's span is block r.
    const std::uint64_t span = svmdata::block_range(n, p, r).size();
    const std::uint64_t expected_bytes = 16 +                // class presence
                                         16 * rounds +       // delta census
                                         8 * span * syncs +  // own alpha slice
                                         16 * blocks * searches +  // line-search slots
                                         16 * blocks +             // beta slots
                                         32 * refreshes;           // minloc + maxloc
    EXPECT_EQ(t.bytes_collective, expected_bytes) << "rank " << r;
    // PBM never moves samples point-to-point (no per-iteration broadcast
    // pattern): pt2pt volume must be exactly zero.
    EXPECT_EQ(t.bytes_sent, 0u) << "rank " << r;
  }
  // The schedule is SPMD-identical and p divides n here, so the spans are
  // equal and every rank charges the same volume.
  for (int r = 1; r < p; ++r)
    EXPECT_EQ(result.rank_traffic[r].bytes_collective,
              result.rank_traffic[0].bytes_collective);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, PbmCommVolume, ::testing::Values(2, 4));

}  // namespace
