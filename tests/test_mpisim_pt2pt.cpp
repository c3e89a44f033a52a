#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpisim/spmd.hpp"

namespace {

using svmmpi::Comm;
using svmmpi::run_spmd;

TEST(Pt2Pt, SimpleSendRecv) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> data{1, 2, 3};
      comm.send<int>(data, 1);
    } else {
      const auto received = comm.recv<int>(0);
      EXPECT_EQ(received, (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(Pt2Pt, SendValueRoundTrip) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0)
      comm.send_value(3.25, 1, 7);
    else
      EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 7), 3.25);
  });
}

TEST(Pt2Pt, EmptyPayload) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0)
      comm.send<int>({}, 1);
    else
      EXPECT_TRUE(comm.recv<int>(0).empty());
  });
}

TEST(Pt2Pt, TagsMatchSelectively) {
  // Rank 1 receives tag 5 first even though tag 3 arrived earlier.
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(30, 1, 3);
      comm.send_value(50, 1, 5);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 5), 50);
      EXPECT_EQ(comm.recv_value<int>(0, 3), 30);
    }
  });
}

TEST(Pt2Pt, FifoPerSourceAndTag) {
  run_spmd(2, [](Comm& comm) {
    constexpr int kCount = 200;
    if (comm.rank() == 0) {
      for (int i = 0; i < kCount; ++i) comm.send_value(i, 1, 9);
    } else {
      for (int i = 0; i < kCount; ++i) EXPECT_EQ(comm.recv_value<int>(0, 9), i);
    }
  });
}

TEST(Pt2Pt, IsendIrecvWaitall) {
  run_spmd(2, [](Comm& comm) {
    const int peer = 1 - comm.rank();
    const std::vector<double> mine(64, static_cast<double>(comm.rank()) + 0.5);
    std::vector<std::byte> bytes;
    svmmpi::Request requests[2] = {comm.isend<double>(mine, peer, 1),
                                   comm.irecv_into(bytes, peer, 1)};
    for (svmmpi::Request& r : requests) r.wait();
    const std::vector<double> theirs = svmmpi::detail::from_bytes<double>(bytes);
    ASSERT_EQ(theirs.size(), 64u);
    EXPECT_DOUBLE_EQ(theirs[0], static_cast<double>(peer) + 0.5);
  });
}

TEST(Pt2Pt, SendrecvRingRotation) {
  constexpr int kRanks = 5;
  run_spmd(kRanks, [](Comm& comm) {
    const int to = (comm.rank() + 1) % kRanks;
    const int from = (comm.rank() - 1 + kRanks) % kRanks;
    std::vector<int> token{comm.rank()};
    for (int step = 0; step < kRanks; ++step) {
      svmmpi::Request sent = comm.isend<int>(token, to);
      token = comm.recv<int>(from);
      sent.wait();
    }
    // After p rotations the token returns home.
    EXPECT_EQ(token[0], comm.rank());
  });
}

TEST(Pt2Pt, OutOfRangeDestinationThrows) {
  EXPECT_THROW(run_spmd(2,
                        [](Comm& comm) {
                          if (comm.rank() == 0) comm.send_value(1, 5);
                        }),
               std::out_of_range);
  EXPECT_THROW(run_spmd(2,
                        [](Comm& comm) {
                          if (comm.rank() == 0) (void)comm.recv<int>(-1);
                        }),
               std::out_of_range);
}

TEST(Pt2Pt, ExceptionInOneRankPropagates) {
  EXPECT_THROW(run_spmd(3,
                        [](Comm& comm) {
                          if (comm.rank() == 1) throw std::runtime_error("rank 1 died");
                          // Other ranks block; the abort must wake them.
                          (void)comm.recv<int>(1);
                        }),
               std::runtime_error);
}

TEST(Pt2Pt, TrafficStatsCountBytes) {
  const auto total = run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::int32_t> payload(25, 7);
      comm.send<std::int32_t>(payload, 1);
    } else {
      (void)comm.recv<std::int32_t>(0);
    }
  });
  EXPECT_EQ(total.sends, 1u);
  EXPECT_EQ(total.recvs, 1u);
  EXPECT_EQ(total.bytes_sent, 100u);
  EXPECT_EQ(total.bytes_received, 100u);
  EXPECT_GT(total.modeled_seconds, 0.0);
}

TEST(Pt2Pt, RequestIdempotentWait) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1);
    } else {
      std::vector<std::byte> bytes;
      auto r = comm.irecv_into(bytes, 0);
      r.wait();
      r.wait();  // second wait is a no-op
      EXPECT_TRUE(r.complete());
      const std::vector<int> out = svmmpi::detail::from_bytes<int>(bytes);
      EXPECT_EQ(out, std::vector<int>{1});
    }
  });
}

TEST(Pt2Pt, SingleRankWorldTrivia) {
  run_spmd(1, [](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    comm.send_value(42, 0, 1);  // self-send
    EXPECT_EQ(comm.recv_value<int>(0, 1), 42);
  });
}

}  // namespace
