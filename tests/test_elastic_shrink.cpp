// ULFM-style elastic recovery in the mpisim layer: a permanent rank death
// (FaultPlan::die) under run_spmd_elastic is marked in the World instead of
// aborting it; survivors' blocked operations surface the recoverable
// RankLost verdict promptly (poke-driven, not deadline-driven), agreement
// completes across the survivors, and Comm::shrink yields a compacted
// renumbered communicator whose collectives and ring exchanges keep working.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/fault.hpp"
#include "mpisim/spmd.hpp"

namespace {

using svmmpi::Comm;
using svmmpi::ElasticReport;
using svmmpi::FaultInjector;
using svmmpi::FaultPlan;
using svmmpi::NetModel;
using svmmpi::RankLost;
using svmmpi::ReduceOp;

NetModel elastic_model(double timeout_s = 5.0) {
  NetModel model;
  model.timeout_s = timeout_s;
  return model;
}

TEST(ElasticSpmd, RequiresDeadlineDrivenDetection) {
  EXPECT_THROW((void)svmmpi::run_spmd_elastic(2, [](Comm&) {}, NetModel{}),
               std::invalid_argument);
}

TEST(ElasticSpmd, FaultFreeRegionRunsToCompletion) {
  std::array<int, 4> sums{};
  const ElasticReport report = svmmpi::run_spmd_elastic(
      4, [&](Comm& comm) { sums[comm.rank()] = comm.allreduce(comm.rank(), ReduceOp::sum); },
      elastic_model());
  EXPECT_TRUE(report.failed_ranks.empty());
  EXPECT_FALSE(report.any_permanent);
  for (const int s : sums) EXPECT_EQ(s, 0 + 1 + 2 + 3);
}

TEST(ElasticSpmd, DieSurfacesRankLostToEverySurvivor) {
  FaultInjector injector{FaultPlan{}.die(2, 1)};
  std::array<bool, 4> caught{};
  std::array<bool, 4> permanent{};
  const ElasticReport report = svmmpi::run_spmd_elastic(
      4,
      [&](Comm& comm) {
        try {
          (void)comm.allreduce(comm.rank(), ReduceOp::sum);
          ADD_FAILURE() << "rank " << comm.rank() << " completed a collective missing a member";
        } catch (const RankLost& lost) {
          caught[comm.rank()] = true;
          permanent[comm.rank()] = lost.permanent;
          EXPECT_EQ(lost.dead, std::vector<int>{2});
        }
      },
      elastic_model(), nullptr, &injector);
  EXPECT_EQ(report.failed_ranks, std::vector<int>{2});
  EXPECT_TRUE(report.any_permanent);
  for (const int r : {0, 1, 3}) {
    EXPECT_TRUE(caught[r]) << "survivor " << r;
    EXPECT_TRUE(permanent[r]) << "survivor " << r;
  }
  EXPECT_FALSE(caught[2]) << "the dead rank must not observe its own loss as RankLost";
}

TEST(ElasticSpmd, TransientCrashIsReportedNonPermanent) {
  FaultInjector injector{FaultPlan{}.crash(1, 1)};
  std::array<bool, 2> permanent{true, true};
  const ElasticReport report = svmmpi::run_spmd_elastic(
      2,
      [&](Comm& comm) {
        try {
          (void)comm.allreduce(1, ReduceOp::sum);
        } catch (const RankLost& lost) {
          permanent[comm.rank()] = lost.permanent;
        }
      },
      elastic_model(), nullptr, &injector);
  EXPECT_EQ(report.failed_ranks, std::vector<int>{1});
  EXPECT_FALSE(report.any_permanent);
  EXPECT_FALSE(permanent[0]);
}

TEST(ElasticSpmd, RecvFromDeadPeerIsInterruptedPromptly) {
  // The deadline is deliberately generous: a prompt RankLost proves the
  // interrupt/poke path fired, not the timeout backstop.
  FaultInjector injector{FaultPlan{}.die(1, 1)};
  bool caught = false;
  const auto start = std::chrono::steady_clock::now();
  (void)svmmpi::run_spmd_elastic(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 1) {
          comm.send_value(7, 0);  // the die event fires on this op
          return;
        }
        try {
          (void)comm.recv_value<int>(1);
        } catch (const RankLost& lost) {
          caught = true;
          EXPECT_EQ(lost.dead, std::vector<int>{1});
        }
      },
      elastic_model(/*timeout_s=*/30.0), nullptr, &injector);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_TRUE(caught);
  EXPECT_LT(elapsed, 10.0) << "RankLost must beat the 30s deadline by a wide margin";
}

TEST(ElasticSpmd, AgreeReturnsSortedUnionAcrossRanks) {
  std::array<std::vector<int>, 3> agreed;
  (void)svmmpi::run_spmd_elastic(
      3,
      [&](Comm& comm) {
        agreed[comm.rank()] = comm.agree({comm.rank(), 10 + comm.rank(), 42});
      },
      elastic_model());
  const std::vector<int> expected{0, 1, 2, 10, 11, 12, 42};
  for (const auto& result : agreed) EXPECT_EQ(result, expected);
}

TEST(ElasticSpmd, ShrinkCompactsRenumbersAndKeepsCommunicating) {
  FaultInjector injector{FaultPlan{}.die(2, 1)};
  std::array<int, 4> new_size{}, new_rank{-1, -1, -1, -1}, sum{}, ring_peer{-1, -1, -1, -1};
  const ElasticReport report = svmmpi::run_spmd_elastic(
      4,
      [&](Comm& comm) {
        try {
          (void)comm.allreduce(comm.rank(), ReduceOp::sum);
        } catch (const RankLost&) {
          Comm next = comm.shrink();
          const int world_rank = comm.world_rank_of(comm.rank());
          new_size[world_rank] = next.size();
          new_rank[world_rank] = next.rank();
          // Collectives over the shrunken communicator: sum of surviving
          // world ranks.
          sum[world_rank] = next.allreduce(world_rank, ReduceOp::sum);
          // Ring exchange (the Algorithm 3 building block): pass my world
          // rank one step around the survivors' ring.
          const int to = (next.rank() + 1) % next.size();
          const int from = (next.rank() + next.size() - 1) % next.size();
          svmmpi::Request sent = next.isend(std::span<const int>(&world_rank, 1), to);
          const std::vector<int> got = next.recv<int>(from);
          sent.wait();
          ring_peer[world_rank] = got.at(0);
          next.barrier();
        }
      },
      elastic_model(), nullptr, &injector);
  EXPECT_EQ(report.failed_ranks, std::vector<int>{2});
  // Survivors 0,1,3 renumbered 0,1,2; ascending world-rank order preserved.
  EXPECT_EQ(new_rank[0], 0);
  EXPECT_EQ(new_rank[1], 1);
  EXPECT_EQ(new_rank[3], 2);
  for (const int r : {0, 1, 3}) {
    EXPECT_EQ(new_size[r], 3);
    EXPECT_EQ(sum[r], 0 + 1 + 3);
  }
  // Ring: 0 <- 3, 1 <- 0, 3 <- 1.
  EXPECT_EQ(ring_peer[0], 3);
  EXPECT_EQ(ring_peer[1], 0);
  EXPECT_EQ(ring_peer[3], 1);
}

TEST(ElasticSpmd, ShrinkExcludesDeathsMarkedDuringAgreement) {
  // Two permanent deaths: rank 1 dies immediately; rank 3 dies on its second
  // op, typically while the survivors are already agreeing. The dynamic dead
  // set must fold the late death in, so the final communicator is {0, 2}.
  FaultInjector injector{FaultPlan{}.die(1, 1).die(3, 2)};
  std::array<int, 4> final_size{}, final_rank{-1, -1, -1, -1};
  const ElasticReport report = svmmpi::run_spmd_elastic(
      4,
      [&](Comm& comm) {
        Comm current = comm;
        for (;;) {
          try {
            (void)current.allreduce(current.rank(), ReduceOp::sum);
            break;
          } catch (const RankLost&) {
            current = current.shrink();
          }
        }
        const int world_rank = current.world_rank_of(current.rank());
        final_size[world_rank] = current.size();
        final_rank[world_rank] = current.rank();
      },
      elastic_model(), nullptr, &injector);
  EXPECT_EQ(report.failed_ranks, (std::vector<int>{1, 3}));
  EXPECT_EQ(final_size[0], 2);
  EXPECT_EQ(final_size[2], 2);
  EXPECT_EQ(final_rank[0], 0);
  EXPECT_EQ(final_rank[2], 1);
}

}  // namespace
