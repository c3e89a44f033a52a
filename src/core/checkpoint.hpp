// Checkpoint/restart support for the distributed solver. Each rank
// periodically serializes its complete solver state (multipliers, gradients,
// shrink flags, active set, global bounds, shrink counter, iteration cursor
// and the solve driver's phase cursor) into a CheckpointStore. Because every
// rank checkpoints at the same deterministic iteration boundaries, the
// per-rank snapshots with a common epoch form a globally consistent cut; the
// retry driver (train_with_recovery) restores the newest epoch present on
// ALL ranks and replays from there. The solver is deterministic given a
// loop-top state, so a fault-free replay from any consistent cut converges
// to the bit-identical model a failure-free run would produce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace svmcore {

/// One rank's complete solver state at a checkpoint boundary (a run_phase
/// loop top). Serialization is a versioned flat binary layout; deserialize()
/// validates every length field against the buffer before copying.
struct RankCheckpoint {
  // Solve-driver cursor: index of the phase being executed (number of
  // completed run_phase calls before it) and the consecutive-stall count at
  // that phase's entry (Algorithm 5 driver state).
  std::uint32_t stage = 0;
  std::uint32_t stalls = 0;

  // Iteration cursor and shrink scheduling.
  std::uint64_t iterations = 0;
  std::uint64_t delta_counter = ~0ULL;

  // Global selection state (replica-consistent at a loop top).
  double beta_up = 0.0;
  double beta_low = 0.0;
  std::int64_t i_up = -1;
  std::int64_t i_low = -1;

  // Work counters restored so post-recovery statistics stay meaningful.
  std::uint64_t shrink_passes = 0;
  std::uint64_t samples_shrunk = 0;
  std::uint64_t reconstructions = 0;
  std::uint64_t min_active = 0;

  // Per-local-sample state.
  std::vector<double> alpha;
  std::vector<double> gamma;
  std::vector<std::uint8_t> shrunk;
  std::vector<std::uint32_t> active;

  [[nodiscard]] std::vector<std::byte> serialize() const;
  /// Throws std::runtime_error on a corrupt or truncated buffer.
  [[nodiscard]] static RankCheckpoint deserialize(const std::vector<std::byte>& bytes);

  [[nodiscard]] bool operator==(const RankCheckpoint& other) const = default;
};

/// Thread-safe store of per-(rank, epoch) checkpoints. In-memory by default;
/// when constructed with a directory, every save is also spilled to
/// `<dir>/ckpt_r<rank>_e<epoch>.bin` and `open()` can reload a store from
/// disk — surviving not just rank failures but whole-process restarts.
///
/// Protocol: the retry driver calls begin_restart() once (single-threaded)
/// before each SPMD launch; it pins the newest epoch present on all ranks
/// and discards everything else. Rank threads then call restore() during
/// solver construction and save() at checkpoint boundaries.
class CheckpointStore {
 public:
  /// `buddy_replication` (on by default, no-op at num_ranks == 1) mirrors
  /// every save of rank r into rank (r+1) mod p's memory as a buddy replica.
  /// Replicas model survivor RAM: they are invisible to begin_restart()/
  /// restore()/epochs()/saves(), are never spilled to disk, and are consumed
  /// only by repartition_from_checkpoints() during an elastic shrink — the
  /// one path that can reach another live rank's memory.
  explicit CheckpointStore(int num_ranks, std::string directory = {},
                           bool buddy_replication = true);

  /// Reloads a file-backed store's contents from `directory`. A truncated or
  /// corrupt checkpoint file (failed validation) is skipped — logged through
  /// svmutil at warn level and counted (corrupt_skipped(), plus the
  /// `ckpt_skipped_files` trace counter track) rather than poisoning the
  /// store — the restart then falls back to an older epoch or a fresh start.
  [[nodiscard]] static CheckpointStore open(int num_ranks, const std::string& directory);

  /// Spilled checkpoint files skipped by open() because they were truncated,
  /// corrupt or unreadable; recovery drivers surface this in their reports.
  [[nodiscard]] std::uint64_t corrupt_skipped() const noexcept { return corrupt_skipped_; }

  /// Saves rank `rank`'s checkpoint for `epoch`, pruning epochs older than
  /// the previous one (two epochs per rank are retained — enough to cover
  /// ranks straddling a boundary when a failure hits).
  void save(int rank, std::uint64_t epoch, const RankCheckpoint& state);

  /// Pins the restore epoch: the newest epoch every rank has a checkpoint
  /// for. Returns it, or nullopt when no consistent cut exists (fresh
  /// start). Checkpoints from other epochs are discarded.
  std::optional<std::uint64_t> begin_restart();

  /// The checkpoint pinned by the last begin_restart() for this rank, or
  /// nullopt for a fresh start. Thread-safe (read-only after pinning).
  [[nodiscard]] std::optional<RankCheckpoint> restore(int rank) const;

  /// Models the permanent loss of `rank`'s process memory: its in-memory
  /// checkpoints are erased, as are the buddy replicas it was holding for
  /// rank (rank-1) mod p. Disk spills survive (they are durable storage, not
  /// process memory) and are re-read for a file-backed store — a cold
  /// replacement process can read the dead rank's disk, but never its RAM.
  /// The replica of `rank` held by its own buddy is untouched: that is what
  /// keeps a memory-only store recoverable through an elastic shrink.
  void mark_rank_lost(int rank);

  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }
  /// Total save() calls, across all ranks and epochs.
  [[nodiscard]] std::uint64_t saves() const;
  /// Epochs currently retained for `rank` (newest last).
  [[nodiscard]] std::vector<std::uint64_t> epochs(int rank) const;

 private:
  friend std::optional<std::uint64_t> repartition_from_checkpoints(const CheckpointStore& source,
                                                                   std::size_t num_samples,
                                                                   CheckpointStore& target);

  struct LoadFromDisk {};
  CheckpointStore(int num_ranks, std::string directory, LoadFromDisk);

  [[nodiscard]] std::string file_path(int rank, std::uint64_t epoch) const;
  /// Reads and validates one spilled checkpoint file; false (logged at warn
  /// level and counted) on a truncated/corrupt/unreadable file.
  [[nodiscard]] bool read_validated(const std::string& path, std::vector<std::byte>& out);

  int num_ranks_;
  std::string directory_;  ///< empty = in-memory only
  bool buddy_ = true;
  mutable std::mutex mutex_;
  /// checkpoints_[rank]: epoch -> serialized state, at most 2 entries.
  std::vector<std::map<std::uint64_t, std::vector<std::byte>>> checkpoints_;
  /// buddy_replicas_[rank]: rank's state mirrored in (rank+1) mod p's memory.
  std::vector<std::map<std::uint64_t, std::vector<std::byte>>> buddy_replicas_;
  std::optional<std::uint64_t> restore_epoch_;
  std::uint64_t saves_ = 0;
  std::uint64_t corrupt_skipped_ = 0;  ///< open()-time skips; see corrupt_skipped()
};

/// Elastic-shrink state migration: finds the newest epoch for which EVERY
/// source rank's checkpoint is reachable (primary copy, or the buddy replica
/// when the primary was lost via mark_rank_lost), stitches the per-sample
/// state back into global arrays using the source partition of `num_samples`,
/// re-slices it along `target.num_ranks()`'s partition and save()s one
/// checkpoint per target rank at that epoch. Global scalars (stage, stalls,
/// iteration cursor, shrink counter, beta bounds, i_up/i_low) carry over
/// verbatim — they are replica-consistent at a checkpoint boundary. Returns
/// the migrated epoch (caller then calls target.begin_restart()), or nullopt
/// when no fully-reachable consistent cut exists.
std::optional<std::uint64_t> repartition_from_checkpoints(const CheckpointStore& source,
                                                          std::size_t num_samples,
                                                          CheckpointStore& target);

}  // namespace svmcore
