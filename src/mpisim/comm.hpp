// Comm: the typed communicator API modelled on MPI. Each SPMD thread holds
// its own handle (rank, group, collective context). Point-to-point transfers
// move through per-rank mailboxes; collectives rendezvous through a shared
// CollectiveContext with rank-ordered (deterministic) reduction. Modeled
// network time is charged per operation using the NetModel formulas for the
// algorithms a real MPI would execute (binomial trees, rings).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "mpisim/fault.hpp"
#include "mpisim/mailbox.hpp"
#include "mpisim/netmodel.hpp"
#include "mpisim/request.hpp"
#include "mpisim/world.hpp"

namespace svmmpi {

enum class ReduceOp { sum, min, max };

/// Value/index pair for MINLOC/MAXLOC reductions (worst-KKT-violator
/// selection in the SVM solvers). Ties break toward the smaller index so the
/// parallel solver selects exactly the sample the sequential solver would.
struct DoubleInt {
  double value = 0.0;
  std::int64_t index = -1;
};

/// One side of Comm::allreduce_minmaxloc: a MINLOC or MAXLOC key and the
/// opaque bytes that travel with it.
struct LocPayload {
  DoubleInt key;
  std::vector<std::byte> payload;
};

/// The MINLOC winner and the MAXLOC winner of Comm::allreduce_minmaxloc,
/// each with the payload its rank contributed.
struct MinMaxLoc {
  LocPayload min;
  LocPayload max;
};

namespace detail {

template <typename T>
[[nodiscard]] std::vector<std::byte> to_bytes(std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>, "mpisim transfers trivially copyable types");
  std::vector<std::byte> bytes(data.size_bytes());
  if (!bytes.empty()) std::memcpy(bytes.data(), data.data(), bytes.size());
  return bytes;
}

template <typename T>
[[nodiscard]] std::vector<T> from_bytes(std::span<const std::byte> bytes) {
  static_assert(std::is_trivially_copyable_v<T>, "mpisim transfers trivially copyable types");
  if (bytes.size() % sizeof(T) != 0)
    throw std::runtime_error("svmmpi: payload size is not a multiple of element size");
  std::vector<T> data(bytes.size() / sizeof(T));
  if (!bytes.empty()) std::memcpy(data.data(), bytes.data(), bytes.size());
  return data;
}

template <typename T>
void apply_reduce(ReduceOp op, std::span<T> accumulator, std::span<const T> operand) {
  for (std::size_t i = 0; i < accumulator.size(); ++i) {
    switch (op) {
      case ReduceOp::sum: accumulator[i] += operand[i]; break;
      case ReduceOp::min:
        accumulator[i] = operand[i] < accumulator[i] ? operand[i] : accumulator[i];
        break;
      case ReduceOp::max:
        accumulator[i] = accumulator[i] < operand[i] ? operand[i] : accumulator[i];
        break;
    }
  }
}

/// Packs parts as [uint64 count][uint64 sizes...][concatenated payloads];
/// also the combine step of allgatherv.
[[nodiscard]] std::vector<std::byte> concat_with_sizes(
    const std::vector<std::vector<std::byte>>& parts);

/// Inverse of concat_with_sizes. Every header field is validated against the
/// actual buffer length before any copy, so a malformed or truncated payload
/// throws std::runtime_error instead of reading out of bounds.
template <typename T>
[[nodiscard]] std::vector<std::vector<T>> split_concatenated(std::span<const std::byte> bytes) {
  if (bytes.size() < sizeof(std::uint64_t))
    throw std::runtime_error("svmmpi: malformed allgatherv payload (missing count)");
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data(), sizeof(count));
  std::size_t offset = sizeof(std::uint64_t);
  if (count > (bytes.size() - offset) / sizeof(std::uint64_t))
    throw std::runtime_error("svmmpi: malformed allgatherv payload (count exceeds buffer)");
  std::vector<std::uint64_t> sizes(count);
  if (count > 0)
    std::memcpy(sizes.data(), bytes.data() + offset, count * sizeof(std::uint64_t));
  offset += count * sizeof(std::uint64_t);
  std::vector<std::vector<T>> result(count);
  for (std::size_t r = 0; r < count; ++r) {
    if (sizes[r] > bytes.size() - offset)
      throw std::runtime_error("svmmpi: malformed allgatherv payload (truncated part)");
    result[r] = from_bytes<T>(bytes.subspan(offset, sizes[r]));
    offset += sizes[r];
  }
  return result;
}

/// Wire form of one allreduce_minmaxloc contribution, and of its result:
/// [DoubleInt min][DoubleInt max][uint64 min size][uint64 max size]
/// [min payload][max payload].
[[nodiscard]] std::vector<std::byte> pack_minmaxloc(DoubleInt min_key,
                                                    std::span<const std::byte> min_payload,
                                                    DoubleInt max_key,
                                                    std::span<const std::byte> max_payload);

/// The combine step of allreduce_minmaxloc: keeps the MINLOC winner and the
/// MAXLOC winner over the rank-ordered parts, each with its payload. Throws
/// std::runtime_error when a part's sizes do not match its length.
[[nodiscard]] std::vector<std::byte> combine_minmaxloc(
    const std::vector<std::vector<std::byte>>& parts);

}  // namespace detail

class Comm {
 public:
  Comm(World* world, std::shared_ptr<const std::vector<int>> group, int rank, int context_id)
      : world_(world), group_(std::move(group)), rank_(rank), context_id_(context_id) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(group_->size()); }
  [[nodiscard]] World& world() const noexcept { return *world_; }
  /// This communicator's collective-context id; the handle the scheduler's
  /// watchdog passes to World::cancel_context to interrupt a stuck job.
  [[nodiscard]] int context_id() const noexcept { return context_id_; }
  /// Sorted world ranks of this comm's members (ascending iff the comm was
  /// built by split_subset/shrink; world order for the world comm).
  [[nodiscard]] const std::vector<int>& group() const noexcept { return *group_; }
  [[nodiscard]] int world_rank_of(int comm_rank) const { return (*group_)[comm_rank]; }
  /// Inverse of world_rank_of: this comm's rank holding `world_rank`, or -1
  /// if that world rank is not a member of this communicator.
  [[nodiscard]] int comm_rank_of_world(int world_rank) const;

  // --- point to point ----------------------------------------------------

  template <typename T>
  void send(std::span<const T> data, int destination, int tag = 0) {
    send_bytes(detail::to_bytes(data), destination, tag);
  }

  template <typename T>
  void send_value(const T& value, int destination, int tag = 0) {
    send(std::span<const T>(&value, 1), destination, tag);
  }

  /// Blocking receive from rank `source`; returns the payload.
  template <typename T>
  [[nodiscard]] std::vector<T> recv(int source, int tag = 0) {
    return detail::from_bytes<T>(recv_message(source, tag).payload);
  }

  template <typename T>
  [[nodiscard]] T recv_value(int source, int tag = 0) {
    auto v = recv<T>(source, tag);
    if (v.size() != 1) throw std::runtime_error("svmmpi: recv_value expected one element");
    return v[0];
  }

  /// Deadline-bounded receive: waits at most `deadline_s` seconds and
  /// returns false on expiry instead of throwing — a miss is an expected
  /// outcome on the serving engine's retry/hedge path, so there is no grace
  /// poll and no TimeoutError. Still throws RankLost if the awaited source
  /// is (or becomes) dead while waiting, and ContextCancelled if this comm's
  /// context is cancelled.
  template <typename T>
  [[nodiscard]] bool recv_deadline(std::vector<T>& out, int source, int tag, double deadline_s) {
    std::vector<std::byte> bytes;
    if (!recv_bytes_deadline(bytes, source, tag, deadline_s)) return false;
    out = detail::from_bytes<T>(bytes);
    return true;
  }

  /// Buffered eager send: the Request is complete on return.
  template <typename T>
  [[nodiscard]] Request isend(std::span<const T> data, int destination, int tag = 0) {
    send(data, destination, tag);
    return Request{};
  }

  /// Deferred receive into a reusable buffer: the payload is copied into
  /// `out`, reusing its capacity — steady-state ring steps allocate nothing
  /// on the receive side (the double-buffered reconstruction pipeline).
  [[nodiscard]] Request irecv_into(std::vector<std::byte>& out, int source, int tag = 0) {
    return Request([this, &out, source, tag] {
      // assign() reuses out's capacity: steady-state ring steps whose
      // payloads have stabilized in size perform no receive-side allocation.
      const Message m = recv_message(source, tag);
      out.assign(m.payload.begin(), m.payload.end());
    });
  }

  // --- collectives ---------------------------------------------------------

  void barrier();

  /// Broadcast; non-root contents are replaced (size included).
  template <typename T>
  void bcast(std::vector<T>& data, int root) {
    std::vector<std::byte> mine =
        rank_ == root ? detail::to_bytes(std::span<const T>(data)) : std::vector<std::byte>{};
    auto out = collective(
        std::move(mine),
        [root](const std::vector<std::vector<std::byte>>& parts) { return parts[root]; },
        /*modeled=*/ModelAs::tree, data.size() * sizeof(T), "bcast");
    data = detail::from_bytes<T>(out);
  }

  /// Element-wise allreduce over equal-length vectors.
  template <typename T>
  [[nodiscard]] std::vector<T> allreduce(std::span<const T> data, ReduceOp op) {
    auto out = collective(
        detail::to_bytes(data),
        [op](const std::vector<std::vector<std::byte>>& parts) {
          std::vector<T> acc = detail::from_bytes<T>(parts[0]);
          for (std::size_t r = 1; r < parts.size(); ++r) {
            const std::vector<T> operand = detail::from_bytes<T>(parts[r]);
            if (operand.size() != acc.size())
              throw std::runtime_error("svmmpi: allreduce length mismatch across ranks");
            detail::apply_reduce<T>(op, acc, operand);
          }
          return detail::to_bytes(std::span<const T>(acc));
        },
        ModelAs::tree, data.size_bytes(), "allreduce");
    return detail::from_bytes<T>(out);
  }

  template <typename T>
  [[nodiscard]] T allreduce(T value, ReduceOp op) {
    return allreduce(std::span<const T>(&value, 1), op)[0];
  }

  /// MINLOC: smallest value wins; value ties break toward the smaller index.
  [[nodiscard]] DoubleInt allreduce_minloc(DoubleInt mine);
  /// MAXLOC: largest value wins; value ties break toward the smaller index.
  [[nodiscard]] DoubleInt allreduce_maxloc(DoubleInt mine);

  /// MINLOC and MAXLOC in one rendezvous, each winner carrying its payload:
  /// every rank contributes a min-side and a max-side candidate, and every
  /// rank gets back both global winners with the bytes their ranks passed.
  /// Ties break as in allreduce_minloc/allreduce_maxloc. A rank with no
  /// candidate on a side passes a sentinel key every real candidate beats
  /// (value +inf for min, -inf for max) and an empty payload; when no rank
  /// has one, the sentinel and an empty payload come back.
  [[nodiscard]] MinMaxLoc allreduce_minmaxloc(DoubleInt min_key,
                                              std::span<const std::byte> min_payload,
                                              DoubleInt max_key,
                                              std::span<const std::byte> max_payload);

  /// Variable-length allgather; result[r] is rank r's contribution.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> allgatherv(std::span<const T> mine) {
    auto out = collective(detail::to_bytes(mine), detail::concat_with_sizes, ModelAs::ring,
                          mine.size_bytes(), "allgatherv");
    return detail::split_concatenated<T>(out);
  }

  /// Dispatcher-coordinated split: builds the communicator over the given
  /// (sorted, ascending) subset of this comm's member world ranks, using a
  /// collective context the dispatcher pre-allocated with
  /// World::create_context(world_ranks.size()), or the one every member gets
  /// from World::context_for_group(world_ranks). It is NOT collective over
  /// the parent — only the subset's members call it, each deriving the
  /// identical group locally (the same trick shrink() uses).
  /// This is the rank-allocation primitive of the multi-tenant scheduler:
  /// ranks busy inside other jobs never participate, and a fresh context per
  /// job attempt isolates the attempt's traffic from any stale messages a
  /// previous attempt left behind. The caller's world rank must be a member.
  [[nodiscard]] Comm split_subset(const std::vector<int>& world_ranks, int context_id) const;

  // --- elastic recovery (ULFM-style) -------------------------------------

  /// Sorted world ranks of this comm's members currently marked failed.
  [[nodiscard]] std::vector<int> dead_members() const;

  /// Fault-tolerant agreement (MPI_Comm_agree): returns the sorted union of
  /// every survivor's `values` plus the world ranks of every member known
  /// dead by completion. Completes even while members are dying — a member's
  /// arrival requirement is waived the moment it is marked failed. All
  /// survivors receive the identical result. Must be called by every
  /// surviving member.
  [[nodiscard]] std::vector<int> agree(const std::vector<int>& values);

  /// ULFM MPI_Comm_shrink: survivors agree on the dead set and return a
  /// compacted communicator over the survivors, ranks renumbered 0..s-1 in
  /// ascending world-rank order. The new collective context is derived
  /// deterministically from the surviving group, so no post-agreement
  /// communication is needed. Must be called by every surviving member.
  /// `context_salt` keys the derived context (see World::context_for_group):
  /// the scheduler passes a per-attempt-per-generation salt so concurrent
  /// jobs shrinking onto a rank set some earlier job once occupied get a
  /// pristine context instead of one the earlier tenant may have abandoned
  /// mid-collective. Single-job callers keep the default.
  [[nodiscard]] Comm shrink(std::uint64_t context_salt = 0);

  // --- overlap accounting --------------------------------------------------

  /// This rank's traffic counters; snapshot modeled_seconds around a
  /// pipelined step to meter the step's modeled communication cost.
  [[nodiscard]] const TrafficStats& traffic() const {
    return world_->stats((*group_)[rank_]);
  }

  /// Applies the pipelined charging rule to one compute-overlapped step: the
  /// step's transfers were posted before `compute_s` seconds of local work,
  /// so of the `comm_s` modeled network seconds already charged for them,
  /// min(compute, comm) was hidden behind the compute. That portion moves
  /// from modeled_seconds into overlapped_seconds, leaving the step charged
  /// max(compute, comm) overall (compute wall time + the uncovered network
  /// remainder). Returns the credited (hidden) seconds.
  double credit_overlap(double compute_s, double comm_s);

 private:
  enum class ModelAs { tree, ring };

  void send_bytes(std::vector<std::byte> payload, int destination, int tag);
  /// Shared receive core: validated, fault-checked, interrupt-aware pop.
  [[nodiscard]] Message recv_message(int source, int tag);
  /// A blocked receive's wake condition: the awaited peer `source` was
  /// marked failed, or this comm's context was cancelled.
  [[nodiscard]] std::function<bool()> recv_interrupt(int source) const;
  /// Books a delivered message: trace flow end, receive counters, model.
  void account_recv(const Message& m);
  /// Deadline-bounded receive core behind recv_deadline<T>.
  [[nodiscard]] bool recv_bytes_deadline(std::vector<std::byte>& out, int source, int tag,
                                         double deadline_s);
  /// `label` names the collective on the trace timeline (string literal).
  [[nodiscard]] std::vector<std::byte> collective(std::vector<std::byte> contribution,
                                                  const CollectiveContext::Combine& combine,
                                                  ModelAs model_as, std::size_t payload_bytes,
                                                  const char* label);

  /// Consults the world's FaultInjector (if any) before a communication op;
  /// may sleep (delay; throws ContextCancelled if the context is cancelled
  /// meanwhile) or throw RankFailed (crash). Returns true when the op must
  /// be suppressed (dropped send).
  [[nodiscard]] bool faulted_op(FaultSite site);

  /// Throws ContextCancelled when this comm's context has been cancelled;
  /// called at every communication-op entry so a member mid-compute stops at
  /// its next op, and from blocked-wait interrupt paths.
  void check_cancelled() const;

  /// Raises the RankLost verdict for the currently-dead members.
  [[noreturn]] void throw_rank_lost() const;
  /// Deadline-driven detection: a timeout may race the failing rank's own
  /// RankFailed by a hair, so grace-poll the failure registry briefly; if a
  /// member death explains the stall, convert to RankLost, else rethrow.
  [[noreturn]] void convert_timeout(const TimeoutError& timeout) const;

  World* world_;
  std::shared_ptr<const std::vector<int>> group_;
  int rank_;
  int context_id_;
};

}  // namespace svmmpi
