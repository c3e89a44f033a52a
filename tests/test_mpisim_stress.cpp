// Stress and interleaving tests for the message-passing runtime: many ranks,
// mixed pt2pt + collective traffic, repeated rounds — the access patterns the
// SVM solvers generate at much higher volume.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "mpisim/spmd.hpp"

namespace {

using svmmpi::Comm;
using svmmpi::ReduceOp;
using svmmpi::run_spmd;

TEST(Stress, ManyRanksBarrierStorm) {
  run_spmd(32, [](Comm& comm) {
    for (int i = 0; i < 50; ++i) comm.barrier();
  });
}

TEST(Stress, AllToAllViaPt2Pt) {
  constexpr int kRanks = 8;
  run_spmd(kRanks, [](Comm& comm) {
    // Everyone sends to everyone (including self), then receives all.
    for (int dst = 0; dst < kRanks; ++dst)
      comm.send_value(comm.rank() * 1000 + dst, dst, /*tag=*/dst);
    std::int64_t sum = 0;
    for (int src = 0; src < kRanks; ++src)
      sum += comm.recv_value<int>(src, /*tag=*/comm.rank());
    // Each sender src sent src*1000 + my_rank.
    std::int64_t expected = 0;
    for (int src = 0; src < kRanks; ++src) expected += src * 1000 + comm.rank();
    EXPECT_EQ(sum, expected);
  });
}

TEST(Stress, InterleavedCollectivesAndPt2Pt) {
  constexpr int kRanks = 6;
  run_spmd(kRanks, [](Comm& comm) {
    for (int round = 0; round < 30; ++round) {
      const int to = (comm.rank() + 1) % kRanks;
      const int from = (comm.rank() - 1 + kRanks) % kRanks;
      const std::vector<int> token{comm.rank(), round};
      svmmpi::Request sent = comm.isend<int>(token, to);
      const auto got = comm.recv<int>(from);
      sent.wait();
      EXPECT_EQ(got[0], from);
      EXPECT_EQ(got[1], round);
      const auto check = comm.allreduce(static_cast<std::int64_t>(round), ReduceOp::min);
      EXPECT_EQ(check, round);
    }
  });
}

TEST(Stress, LargePayloadRing) {
  constexpr int kRanks = 4;
  constexpr std::size_t kDoubles = 1 << 16;  // 512 KiB per message
  run_spmd(kRanks, [](Comm& comm) {
    std::vector<double> block(kDoubles, static_cast<double>(comm.rank()));
    const int to = (comm.rank() + 1) % kRanks;
    const int from = (comm.rank() - 1 + kRanks) % kRanks;
    for (int step = 0; step < kRanks; ++step) {
      svmmpi::Request sent = comm.isend<double>(block, to);
      block = comm.recv<double>(from);
      sent.wait();
    }
    // Back to the original block after p rotations.
    for (std::size_t i = 0; i < 16; ++i)
      EXPECT_DOUBLE_EQ(block[i], static_cast<double>(comm.rank()));
  });
}

TEST(Stress, ReductionDeterminismAcrossRuns) {
  // Rank-ordered combining must give bitwise-identical results on every run,
  // regardless of thread scheduling.
  constexpr int kRanks = 7;
  double first = 0.0;
  for (int run = 0; run < 5; ++run) {
    std::vector<double> result(kRanks);
    run_spmd(kRanks, [&](Comm& comm) {
      // Values chosen so that summation order changes the rounding.
      const double mine = 1.0 / (3.0 + comm.rank()) * (comm.rank() % 2 ? 1e-13 : 1.0);
      result[comm.rank()] = comm.allreduce(mine, ReduceOp::sum);
    });
    for (int r = 1; r < kRanks; ++r) EXPECT_EQ(result[0], result[r]);
    if (run == 0)
      first = result[0];
    else
      EXPECT_EQ(result[0], first);  // bitwise equality across runs
  }
}

TEST(Stress, ManySmallMessagesBackToBack) {
  run_spmd(2, [](Comm& comm) {
    constexpr int kCount = 5000;
    if (comm.rank() == 0) {
      for (int i = 0; i < kCount; ++i) comm.send_value(i, 1);
      std::int64_t sum = 0;
      for (int i = 0; i < kCount; ++i) sum += comm.recv_value<int>(1);
      EXPECT_EQ(sum, static_cast<std::int64_t>(kCount) * (kCount - 1) / 2);
    } else {
      std::int64_t sum = 0;
      for (int i = 0; i < kCount; ++i) {
        const int v = comm.recv_value<int>(0);
        sum += v;
        comm.send_value(v, 0);
      }
      EXPECT_EQ(sum, static_cast<std::int64_t>(kCount) * (kCount - 1) / 2);
    }
  });
}

TEST(Stress, AbortDuringCollectiveUnblocksEveryone) {
  // One rank dies while the others are parked inside a collective; the
  // abort must wake them (no deadlock) and surface the original error.
  EXPECT_THROW(run_spmd(4,
                        [](Comm& comm) {
                          if (comm.rank() == 2) throw std::logic_error("rank 2 died");
                          (void)comm.allreduce(1.0, ReduceOp::sum);
                          // Extra round in case the abort lands late.
                          (void)comm.allreduce(2.0, ReduceOp::sum);
                        }),
               std::logic_error);
}

TEST(Stress, AbortDuringRingUnblocksEveryone) {
  EXPECT_THROW(run_spmd(4,
                        [](Comm& comm) {
                          if (comm.rank() == 0) throw std::runtime_error("boom");
                          const std::vector<int> token{comm.rank()};
                          const int to = (comm.rank() + 1) % 4;
                          const int from = (comm.rank() + 3) % 4;
                          for (int step = 0; step < 4; ++step) {
                            svmmpi::Request sent = comm.isend<int>(token, to);
                            (void)comm.recv<int>(from);
                            sent.wait();
                          }
                        }),
               std::runtime_error);
}

TEST(Stress, PerRankStatsAreConsistent) {
  std::vector<svmmpi::TrafficStats> per_rank;
  run_spmd(
      4,
      [](Comm& comm) {
        if (comm.rank() == 0)
          for (int dst = 1; dst < 4; ++dst) comm.send<double>(std::vector<double>(10, 1.0), dst);
        else
          (void)comm.recv<double>(0);
      },
      svmmpi::NetModel{},
      [&](const svmmpi::World& world) {
        for (int r = 0; r < 4; ++r) per_rank.push_back(world.stats(r));
      });
  EXPECT_EQ(per_rank[0].sends, 3u);
  EXPECT_EQ(per_rank[0].bytes_sent, 240u);
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(per_rank[r].recvs, 1u);
    EXPECT_EQ(per_rank[r].bytes_received, 80u);
  }
}

}  // namespace
