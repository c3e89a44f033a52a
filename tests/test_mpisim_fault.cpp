// Fault-injection substrate: deterministic FaultPlan/FaultInjector behavior,
// hang -> TimeoutError conversion (blocking receives and collective
// rendezvous), WorldAborted propagation through deferred receives, mailbox
// wildcard matching, and validation of the allgatherv wire format.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/fault.hpp"
#include "mpisim/mailbox.hpp"
#include "mpisim/spmd.hpp"

namespace {

using svmmpi::Comm;
using svmmpi::FaultAction;
using svmmpi::FaultInjector;
using svmmpi::FaultPlan;
using svmmpi::FaultSite;
using svmmpi::Mailbox;
using svmmpi::Message;
using svmmpi::NetModel;
using svmmpi::RankFailed;
using svmmpi::TimeoutError;
using svmmpi::WorldAborted;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

NetModel with_timeout(double timeout_s) {
  NetModel model;
  model.timeout_s = timeout_s;
  return model;
}

// --- FaultInjector unit behavior -------------------------------------------

TEST(FaultInjector, CrashFiresOnceAtTheScheduledOp) {
  FaultInjector injector(FaultPlan{}.crash(1, 3));
  EXPECT_EQ(injector.pending(), 1u);

  // Other ranks are unaffected.
  for (int i = 0; i < 10; ++i) (void)injector.on_op(0, FaultSite::send);

  (void)injector.on_op(1, FaultSite::send);  // op 1
  (void)injector.on_op(1, FaultSite::recv);  // op 2
  try {
    (void)injector.on_op(1, FaultSite::collective);  // op 3 -> boom
    FAIL() << "expected RankFailed";
  } catch (const RankFailed& failure) {
    EXPECT_EQ(failure.rank, 1);
    EXPECT_EQ(failure.op, 3u);
  }
  EXPECT_EQ(injector.fired(), 1u);
  EXPECT_EQ(injector.pending(), 0u);

  // Consumed: the same rank keeps going on a relaunch.
  (void)injector.on_op(1, FaultSite::send);
  EXPECT_EQ(injector.ops(1), 4u);
}

TEST(FaultInjector, CrashAtOrAfterSemanticsForSiteRestrictedEvents) {
  // Crash restricted to collectives, scheduled at op 2: ops 2..4 are sends,
  // so it must fire at the first collective afterwards (op 5).
  FaultInjector injector(FaultPlan{}.crash(0, 2, FaultSite::collective));
  (void)injector.on_op(0, FaultSite::send);
  (void)injector.on_op(0, FaultSite::send);
  (void)injector.on_op(0, FaultSite::send);
  (void)injector.on_op(0, FaultSite::send);
  EXPECT_THROW((void)injector.on_op(0, FaultSite::collective), RankFailed);
}

TEST(FaultInjector, DropAppliesToSendsOnly) {
  FaultInjector injector(FaultPlan{}.drop(0, 1));
  const FaultAction recv_action = injector.on_op(0, FaultSite::recv);
  EXPECT_FALSE(recv_action.drop);  // op 1 is a recv: drop waits for a send
  const FaultAction send_action = injector.on_op(0, FaultSite::send);
  EXPECT_TRUE(send_action.drop);
  EXPECT_FALSE(injector.on_op(0, FaultSite::send).drop);  // fires once
}

TEST(FaultInjector, DelayReportsItsDuration) {
  FaultInjector injector(FaultPlan{}.delay(2, 1, 0.25));
  const FaultAction action = injector.on_op(2, FaultSite::recv);
  EXPECT_DOUBLE_EQ(action.delay_s, 0.25);
  EXPECT_EQ(injector.fired(), 1u);
}

TEST(FaultPlan, ChaosIsDeterministicPerSeed) {
  const FaultPlan a = FaultPlan::chaos(7, 4, 1000, 3, 3, true);
  const FaultPlan b = FaultPlan::chaos(7, 4, 1000, 3, 3, true);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].rank, b.events()[i].rank);
    EXPECT_EQ(a.events()[i].op, b.events()[i].op);
    EXPECT_DOUBLE_EQ(a.events()[i].delay_s, b.events()[i].delay_s);
  }
  const FaultPlan c = FaultPlan::chaos(8, 4, 1000, 3, 3, true);
  bool identical = c.events().size() == a.events().size();
  if (identical) {
    for (std::size_t i = 0; i < a.events().size(); ++i)
      identical = identical && a.events()[i].rank == c.events()[i].rank &&
                  a.events()[i].op == c.events()[i].op;
  }
  EXPECT_FALSE(identical) << "different seeds should give different schedules";
}

// --- end-to-end fault behavior through run_spmd ----------------------------

TEST(FaultSpmd, InjectedCrashSurfacesAsRankFailed) {
  FaultInjector injector(FaultPlan{}.crash(1, 2));
  EXPECT_THROW(svmmpi::run_spmd(
                   2,
                   [](Comm& comm) {
                     for (int i = 0; i < 8; ++i)
                       (void)comm.allreduce(comm.rank(), svmmpi::ReduceOp::sum);
                   },
                   {}, nullptr, &injector),
               RankFailed);
  EXPECT_EQ(injector.fired(), 1u);
}

TEST(FaultSpmd, DroppedSendSuppressesExactlyOneMessage) {
  FaultInjector injector(FaultPlan{}.drop(0, 1));
  std::vector<int> received;
  svmmpi::run_spmd(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value(11, 1);  // op 1: dropped
          comm.send_value(22, 1);  // op 2: delivered
        } else {
          received.push_back(comm.recv_value<int>(0));
        }
      },
      {}, nullptr, &injector);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 22);  // the first message silently vanished
}

TEST(FaultSpmd, DelayedOpStillDeliversCorrectly) {
  FaultInjector injector(FaultPlan{}.delay(0, 1, 0.05, FaultSite::send));
  const auto start = std::chrono::steady_clock::now();
  int received = -1;
  svmmpi::run_spmd(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0)
          comm.send_value(99, 1);
        else
          received = comm.recv_value<int>(0);
      },
      {}, nullptr, &injector);
  EXPECT_EQ(received, 99);
  EXPECT_GE(seconds_since(start), 0.05);
}

// --- hang -> TimeoutError conversion ---------------------------------------

TEST(Timeout, DeadlockedExchangeResolvesWithinTheDeadline) {
  // Both ranks receive before sending: a guaranteed deadlock under MPI
  // semantics. The pop deadline converts it into a TimeoutError instead of
  // hanging the test suite forever.
  const auto start = std::chrono::steady_clock::now();
  try {
    svmmpi::run_spmd(
        2,
        [](Comm& comm) {
          const int peer = 1 - comm.rank();
          const int got = comm.recv_value<int>(peer, /*tag=*/5);  // deadlock
          comm.send_value(got, peer, 5);
        },
        with_timeout(0.2));
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& timeout) {
    EXPECT_GE(timeout.rank, 0);
    EXPECT_LE(timeout.rank, 1);
    EXPECT_EQ(timeout.source, 1 - timeout.rank);
    EXPECT_EQ(timeout.tag, 5);
    EXPECT_DOUBLE_EQ(timeout.deadline_s, 0.2);
  }
  EXPECT_LT(seconds_since(start), 5.0) << "timeout must bound wall-clock time";
}

TEST(Timeout, AbandonedCollectiveTimesOutInsteadOfHanging) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(svmmpi::run_spmd(
                   2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) comm.barrier();  // rank 1 never joins
                   },
                   with_timeout(0.2)),
               TimeoutError);
  EXPECT_LT(seconds_since(start), 5.0);
}

TEST(Timeout, ZeroTimeoutMeansWaitForever) {
  // Sanity check that the default still blocks: a matched exchange completes
  // and no spurious timeout fires.
  std::vector<int> got(2, -1);
  svmmpi::run_spmd(2, [&](Comm& comm) {
    const int peer = 1 - comm.rank();
    if (comm.rank() == 0) {
      comm.send_value(7, peer);
      got[0] = comm.recv_value<int>(peer);
    } else {
      got[1] = comm.recv_value<int>(peer);
      comm.send_value(8, peer);
    }
  });
  EXPECT_EQ(got[0], 8);
  EXPECT_EQ(got[1], 7);
}

// --- WorldAborted propagation ----------------------------------------------

TEST(Abort, SiblingFailurePropagatesThroughIrecvWaitAll) {
  // Rank 0 parks waiting on deferred receives that will never be satisfied;
  // rank 1 throws. The launcher must abort the world (waking rank 0 with
  // WorldAborted) and rethrow rank 1's original error to the caller.
  try {
    svmmpi::run_spmd(2, [](Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<std::byte> a, b;
        svmmpi::Request requests[2] = {comm.irecv_into(a, 1, 1), comm.irecv_into(b, 1, 2)};
        for (svmmpi::Request& r : requests) r.wait();
      } else {
        throw std::runtime_error("rank 1 exploded");
      }
    });
    FAIL() << "expected the original rank error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "rank 1 exploded");
  }
}

// --- mailbox matching -------------------------------------------------------

TEST(MailboxTryPop, MatchesContextSourceAndTagExactly) {
  Mailbox box(/*owner_rank=*/0);
  box.push(Message{.context = 0, .source = 2, .tag = 7, .payload = {}});
  box.push(Message{.context = 0, .source = 3, .tag = 9, .payload = {}});
  box.push(Message{.context = 1, .source = 2, .tag = 7, .payload = {}});

  Message out;
  // Source mismatch: nothing from source 5.
  EXPECT_FALSE(box.try_pop(0, 5, 7, out));
  // Tag mismatch: source 2 sent tag 7, not 9.
  EXPECT_FALSE(box.try_pop(0, 2, 9, out));
  // Context mismatch: nothing in context 2.
  EXPECT_FALSE(box.try_pop(2, 2, 7, out));

  ASSERT_TRUE(box.try_pop(0, 3, 9, out));
  EXPECT_EQ(out.source, 3);
  EXPECT_EQ(out.tag, 9);
  // (2, 7) is queued in contexts 0 and 1; each context takes only its own.
  ASSERT_TRUE(box.try_pop(0, 2, 7, out));
  EXPECT_EQ(out.context, 0);
  EXPECT_FALSE(box.try_pop(0, 2, 7, out));
  ASSERT_TRUE(box.try_pop(1, 2, 7, out));
  EXPECT_EQ(out.context, 1);
  EXPECT_EQ(box.pending(), 0u);
}

// --- allgatherv wire-format validation -------------------------------------

std::vector<std::byte> payload_with_count_and_sizes(std::uint64_t count,
                                                    const std::vector<std::uint64_t>& sizes,
                                                    std::size_t trailing_bytes) {
  std::vector<std::byte> bytes(sizeof(std::uint64_t) * (1 + sizes.size()) + trailing_bytes);
  std::memcpy(bytes.data(), &count, sizeof(count));
  if (!sizes.empty())
    std::memcpy(bytes.data() + sizeof(count), sizes.data(),
                sizes.size() * sizeof(std::uint64_t));
  return bytes;
}

TEST(SplitConcatenated, RejectsMalformedPayloads) {
  using svmmpi::detail::split_concatenated;
  // Too short for even the count header.
  EXPECT_THROW((void)split_concatenated<int>(std::vector<std::byte>(3)), std::runtime_error);
  // Count larger than the buffer can possibly hold.
  EXPECT_THROW((void)split_concatenated<int>(
                   payload_with_count_and_sizes(1'000'000, {}, 0)),
               std::runtime_error);
  // Declared part size overruns the buffer.
  EXPECT_THROW((void)split_concatenated<int>(payload_with_count_and_sizes(1, {64}, 8)),
               std::runtime_error);
  // Part size not a multiple of the element size.
  EXPECT_THROW((void)split_concatenated<int>(payload_with_count_and_sizes(1, {6}, 6)),
               std::runtime_error);
}

TEST(SplitConcatenated, RoundTripsThroughConcat) {
  using svmmpi::detail::concat_with_sizes;
  using svmmpi::detail::split_concatenated;
  using svmmpi::detail::to_bytes;
  const std::vector<std::vector<int>> parts{{1, 2, 3}, {}, {42}};
  std::vector<std::vector<std::byte>> byte_parts;
  for (const auto& p : parts) byte_parts.push_back(to_bytes(std::span<const int>(p)));
  const auto packed = concat_with_sizes(byte_parts);
  EXPECT_EQ(split_concatenated<int>(packed), parts);
}

}  // namespace
