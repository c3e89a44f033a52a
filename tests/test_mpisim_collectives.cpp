#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "mpisim/spmd.hpp"

namespace {

using svmmpi::Comm;
using svmmpi::DoubleInt;
using svmmpi::MinMaxLoc;
using svmmpi::ReduceOp;
using svmmpi::run_spmd;

class CollectivesP : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesP, BarrierCompletes) {
  run_spmd(GetParam(), [](Comm& comm) {
    for (int i = 0; i < 10; ++i) comm.barrier();
  });
}

TEST_P(CollectivesP, BcastFromEveryRoot) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data;
      if (comm.rank() == root) data = {root * 10, root * 10 + 1};
      comm.bcast(data, root);
      EXPECT_EQ(data, (std::vector<int>{root * 10, root * 10 + 1}));
    }
  });
}

TEST_P(CollectivesP, AllreduceSumMatchesFormula) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    const auto sum = comm.allreduce(static_cast<std::int64_t>(comm.rank() + 1), ReduceOp::sum);
    EXPECT_EQ(sum, static_cast<std::int64_t>(p) * (p + 1) / 2);
  });
}

TEST_P(CollectivesP, AllreduceMinMax) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce(static_cast<double>(comm.rank()), ReduceOp::min), 0.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(static_cast<double>(comm.rank()), ReduceOp::max),
                     static_cast<double>(p - 1));
  });
}

TEST_P(CollectivesP, AllreduceVectorElementwise) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    const std::vector<double> mine{static_cast<double>(comm.rank()), 1.0,
                                   static_cast<double>(-comm.rank())};
    const auto out = comm.allreduce(std::span<const double>(mine), ReduceOp::sum);
    ASSERT_EQ(out.size(), 3u);
    const double ranks_sum = static_cast<double>(p) * (p - 1) / 2.0;
    EXPECT_DOUBLE_EQ(out[0], ranks_sum);
    EXPECT_DOUBLE_EQ(out[1], static_cast<double>(p));
    EXPECT_DOUBLE_EQ(out[2], -ranks_sum);
  });
}

TEST_P(CollectivesP, MinlocPicksSmallestValue) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    // Rank r contributes value p - r, so the last rank has the minimum.
    const DoubleInt mine{static_cast<double>(p - comm.rank()), comm.rank()};
    const DoubleInt best = comm.allreduce_minloc(mine);
    EXPECT_DOUBLE_EQ(best.value, 1.0);
    EXPECT_EQ(best.index, p - 1);
  });
}

TEST_P(CollectivesP, MinlocTieBreaksTowardSmallerIndex) {
  run_spmd(GetParam(), [](Comm& comm) {
    const DoubleInt mine{5.0, comm.rank() + 100};
    const DoubleInt best = comm.allreduce_minloc(mine);
    EXPECT_EQ(best.index, 100);
  });
}

TEST_P(CollectivesP, MaxlocPicksLargestValue) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    const DoubleInt mine{static_cast<double>(comm.rank()), comm.rank() * 2};
    const DoubleInt best = comm.allreduce_maxloc(mine);
    EXPECT_DOUBLE_EQ(best.value, static_cast<double>(p - 1));
    EXPECT_EQ(best.index, (p - 1) * 2);
  });
}

TEST_P(CollectivesP, MaxlocTieBreaksTowardSmallerIndex) {
  run_spmd(GetParam(), [](Comm& comm) {
    const DoubleInt mine{5.0, comm.rank() + 100};
    EXPECT_EQ(comm.allreduce_maxloc(mine).index, 100);
  });
}

TEST_P(CollectivesP, AllgathervVariableLengths) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    // Rank r contributes r elements (rank 0 contributes none).
    std::vector<double> mine(comm.rank(), static_cast<double>(comm.rank()));
    const auto parts = comm.allgatherv(std::span<const double>(mine));
    ASSERT_EQ(parts.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      ASSERT_EQ(parts[r].size(), static_cast<std::size_t>(r));
      for (const double v : parts[r]) EXPECT_DOUBLE_EQ(v, static_cast<double>(r));
    }
  });
}

TEST_P(CollectivesP, RepeatedCollectivesDoNotCrossRounds) {
  const int p = GetParam();
  run_spmd(p, [](Comm& comm) {
    for (int round = 0; round < 100; ++round) {
      const auto v = comm.allreduce(static_cast<std::int64_t>(round), ReduceOp::max);
      EXPECT_EQ(v, round);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectivesP, ::testing::Values(1, 2, 3, 4, 8));

// --- allreduce_minmaxloc: both loc-winners and their payloads at once -----

/// Rank r's payload: 5 + 3r bytes of a rank-specific pattern, so a winner
/// delivered from the wrong rank (or cut short) differs byte for byte.
std::vector<std::byte> rank_payload(int rank) {
  std::vector<std::byte> bytes(5 + 3 * static_cast<std::size_t>(rank));
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::byte>((rank * 31 + static_cast<int>(i) * 7) & 0xff);
  return bytes;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int64_t kNoIndex = std::numeric_limits<std::int64_t>::max();

class MinMaxLocP : public ::testing::TestWithParam<int> {};

TEST_P(MinMaxLocP, EqualKeysPickTheSmallerIndexLikeMinlocAndMaxloc) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    const int r = comm.rank();
    // Every rank ties on value; the smallest index sits on rank p - 1 for
    // the min side and on rank ceil(p/2) mod p for the max side, so neither
    // winner is simply the first part of the rank-ordered combine.
    const DoubleInt min_key{-2.5, 100 + (p - 1 - r)};
    const DoubleInt max_key{7.0, 1000 + (r + p / 2) % p};
    const std::vector<std::byte> min_bytes = rank_payload(r);
    const std::vector<std::byte> max_bytes = rank_payload(r + p);
    const MinMaxLoc both = comm.allreduce_minmaxloc(min_key, min_bytes, max_key, max_bytes);
    const DoubleInt minloc = comm.allreduce_minloc(min_key);
    const DoubleInt maxloc = comm.allreduce_maxloc(max_key);
    EXPECT_EQ(both.min.key.index, 100);
    EXPECT_EQ(both.max.key.index, 1000);
    EXPECT_EQ(both.min.key.value, minloc.value);
    EXPECT_EQ(both.min.key.index, minloc.index);
    EXPECT_EQ(both.max.key.value, maxloc.value);
    EXPECT_EQ(both.max.key.index, maxloc.index);
    const int max_winner = (p - p / 2) % p;
    EXPECT_EQ(both.min.payload, rank_payload(p - 1));
    EXPECT_EQ(both.max.payload, rank_payload(max_winner + p));
  });
}

TEST_P(MinMaxLocP, WinnerPayloadsArriveByteForByteInOneCollective) {
  const int p = GetParam();
  const svmmpi::TrafficStats stats = run_spmd(p, [p](Comm& comm) {
    const int r = comm.rank();
    // Rank 0 holds the minimum and rank p - 1 the maximum.
    const std::vector<std::byte> mine = rank_payload(r);
    const MinMaxLoc both = comm.allreduce_minmaxloc({static_cast<double>(r), 10 + r}, mine,
                                                    {static_cast<double>(r), 20 + r}, mine);
    EXPECT_EQ(both.min.key.value, 0.0);
    EXPECT_EQ(both.min.key.index, 10);
    EXPECT_EQ(both.max.key.value, static_cast<double>(p - 1));
    EXPECT_EQ(both.max.key.index, 20 + p - 1);
    EXPECT_EQ(both.min.payload, rank_payload(0));
    EXPECT_EQ(both.max.payload, rank_payload(p - 1));
  });
  EXPECT_EQ(stats.collectives, static_cast<std::uint64_t>(p));  // one per rank
  EXPECT_EQ(stats.sends, 0u);
}

TEST_P(MinMaxLocP, SideWithoutAnyCandidateReturnsTheSentinelAndNoPayload) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    const int r = comm.rank();
    const std::vector<std::byte> mine = rank_payload(r);
    // No rank has a min-side candidate; every rank has a max-side one.
    const MinMaxLoc no_min =
        comm.allreduce_minmaxloc({kInf, kNoIndex}, {}, {static_cast<double>(r), r}, mine);
    EXPECT_EQ(no_min.min.key.value, kInf);
    EXPECT_EQ(no_min.min.key.index, kNoIndex);
    EXPECT_TRUE(no_min.min.payload.empty());
    EXPECT_EQ(no_min.max.key.index, p - 1);
    EXPECT_EQ(no_min.max.payload, rank_payload(p - 1));
    // And the mirror image: no max-side candidate anywhere.
    const MinMaxLoc no_max =
        comm.allreduce_minmaxloc({static_cast<double>(r), r}, mine, {-kInf, kNoIndex}, {});
    EXPECT_EQ(no_max.max.key.value, -kInf);
    EXPECT_EQ(no_max.max.key.index, kNoIndex);
    EXPECT_TRUE(no_max.max.payload.empty());
    EXPECT_EQ(no_max.min.key.index, 0);
    EXPECT_EQ(no_max.min.payload, rank_payload(0));
    // A rank without a candidate loses to every rank with one.
    const bool has_min = r == p - 1;
    const std::span<const std::byte> min_bytes =
        has_min ? std::span<const std::byte>(mine) : std::span<const std::byte>();
    const MinMaxLoc sparse =
        comm.allreduce_minmaxloc(has_min ? DoubleInt{1e300, r} : DoubleInt{kInf, kNoIndex},
                                 min_bytes, {-kInf, kNoIndex}, {});
    EXPECT_EQ(sparse.min.key.index, p - 1);
    EXPECT_EQ(sparse.min.payload, rank_payload(p - 1));
  });
}

TEST_P(MinMaxLocP, TruncatedOrPaddedContributionThrows) {
  using svmmpi::detail::combine_minmaxloc;
  using svmmpi::detail::pack_minmaxloc;
  const int p = GetParam();
  std::vector<std::vector<std::byte>> parts;
  for (int r = 0; r < p; ++r)
    parts.push_back(pack_minmaxloc({1.0, r}, rank_payload(r), {2.0, r}, rank_payload(r + 1)));
  EXPECT_NO_THROW((void)combine_minmaxloc(parts));

  // The last rank's contribution, cut one byte short, padded by one byte,
  // and cut inside its fixed header: its sizes no longer match its length.
  std::vector<std::vector<std::byte>> bad = parts;
  bad.back().pop_back();
  EXPECT_THROW((void)combine_minmaxloc(bad), std::runtime_error);
  bad = parts;
  bad.back().push_back(std::byte{0});
  EXPECT_THROW((void)combine_minmaxloc(bad), std::runtime_error);
  bad = parts;
  bad.back().resize(2 * sizeof(DoubleInt) + sizeof(std::uint64_t));
  EXPECT_THROW((void)combine_minmaxloc(bad), std::runtime_error);
  // A size field larger than the whole buffer must not be trusted either.
  bad = parts;
  const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max() - 3;
  std::memcpy(bad.back().data() + 2 * sizeof(DoubleInt), &huge, sizeof(huge));
  EXPECT_THROW((void)combine_minmaxloc(bad), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, MinMaxLocP, ::testing::Values(1, 2, 3, 8));

TEST(CollectivesModel, TreeCostGrowsWithRanks) {
  svmmpi::NetModel model;
  EXPECT_GT(model.tree(1000, 8), model.tree(1000, 2));
  EXPECT_EQ(svmmpi::NetModel::ceil_log2(1), 0);
  EXPECT_EQ(svmmpi::NetModel::ceil_log2(2), 1);
  EXPECT_EQ(svmmpi::NetModel::ceil_log2(5), 3);
  EXPECT_EQ(svmmpi::NetModel::ceil_log2(4096), 12);
}

TEST(CollectivesModel, CollectiveChargesModeledTime) {
  const auto stats = run_spmd(4, [](Comm& comm) { comm.barrier(); });
  EXPECT_EQ(stats.collectives, 4u);  // one per rank
  EXPECT_GT(stats.modeled_seconds, 0.0);
}

}  // namespace
