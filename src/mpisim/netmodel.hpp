// Alpha-beta network cost model. The paper analyses communication with a
// latency term `l` and an inverse-bandwidth term `G` (Table I): a point-to-
// point message of b bytes costs l + b*G, a tree collective over p ranks
// costs (l + b*G) * ceil(log2 p), and a ring exchange costs p-1 steps of
// l + b*G. Since this reproduction executes ranks as threads in one process,
// the *modeled* time from these formulas is what stands in for real network
// time on the paper's InfiniBand FDR testbed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace svmmpi {

struct NetModel {
  /// One-way small-message latency `l` in seconds (default ~ FDR IB MPI).
  double latency_s = 2.0e-6;
  /// Seconds per byte `G` (default ~ 6 GB/s effective per-rank bandwidth).
  double seconds_per_byte = 1.0 / 6.0e9;
  /// Wall-clock deadline for blocking receives and collective rendezvous:
  /// when > 0, a rank stuck longer than this throws TimeoutError (naming the
  /// stuck rank/source/tag) instead of hanging forever. 0 keeps MPI's
  /// wait-forever semantics. Essential under fault injection, where dropped
  /// messages would otherwise deadlock the world.
  double timeout_s = 0.0;

  [[nodiscard]] double pt2pt(std::size_t bytes) const noexcept {
    return latency_s + static_cast<double>(bytes) * seconds_per_byte;
  }

  /// Binomial-tree collective (Barrier / Bcast / small Allreduce).
  [[nodiscard]] double tree(std::size_t bytes, int p) const noexcept {
    return pt2pt(bytes) * static_cast<double>(ceil_log2(p));
  }

  /// One ring step; a full ring pass is (p-1) steps.
  [[nodiscard]] double ring_step(std::size_t bytes) const noexcept { return pt2pt(bytes); }

  [[nodiscard]] static int ceil_log2(int p) noexcept {
    int levels = 0;
    int reach = 1;
    while (reach < p) {
      reach <<= 1;
      ++levels;
    }
    return levels;
  }
};

/// Per-rank communication accounting. `modeled_seconds` accumulates NetModel
/// costs; the byte/message counters are exact for the executed pattern.
///
/// Overlap accounting: a pipelined code region that posts its transfers
/// before computing (Isend/Irecv ... compute ... Waitall) hides network time
/// behind kernel work, so such a step costs max(compute, comm) rather than
/// compute + comm. Comm::credit_overlap implements that charging rule by
/// moving the hidden portion min(compute, comm) out of `modeled_seconds`
/// into `overlapped_seconds`; `modeled_seconds` then holds only the network
/// time the rank actually had to wait for, while modeled_seconds +
/// overlapped_seconds remains the gross (un-overlapped) network cost.
struct TrafficStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t collectives = 0;
  /// This rank's contribution bytes across collectives (the b of the tree /
  /// ring formulas, charged once per participating rank per collective).
  /// Together with bytes_sent this is the rank's injected communication
  /// volume — the quantity the solver comparisons (SMO vs PBM) gate on.
  std::uint64_t bytes_collective = 0;
  double modeled_seconds = 0.0;
  double overlapped_seconds = 0.0;  ///< modeled network time hidden behind compute

  TrafficStats& operator+=(const TrafficStats& other) noexcept {
    sends += other.sends;
    recvs += other.recvs;
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    collectives += other.collectives;
    bytes_collective += other.bytes_collective;
    modeled_seconds += other.modeled_seconds;
    overlapped_seconds += other.overlapped_seconds;
    return *this;
  }
};

}  // namespace svmmpi
