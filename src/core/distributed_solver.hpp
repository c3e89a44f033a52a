// Distributed SMO solvers, executed SPMD by every rank of a communicator:
//
//  - Heuristic "Original" (no shrinking)      -> Algorithm 2
//  - Single gradient reconstruction            -> Algorithm 4
//  - Multiple gradient reconstruction          -> Algorithm 5
//  - Ring gradient reconstruction              -> Algorithm 3
//
// Data layout: every rank owns the contiguous block of samples given by
// block_range(n, p, rank) and touches only those rows of the shared dataset
// directly; remote samples arrive exclusively through communication: the
// per-iteration pair allreduce and the reconstruction ring. The pair
// allreduce fuses Algorithm 2's MINLOC/MAXLOC selection with its x_up/x_low
// send and broadcast: each rank's local candidates travel inside the
// reduction and every rank gets the two winning samples back, one
// rendezvous per iteration instead of three. All ranks compute the pair
// update redundantly from the reduced state, so solver state stays
// replica-consistent without further synchronization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/heuristics.hpp"
#include "core/sample_block.hpp"
#include "core/types.hpp"
#include "data/split.hpp"
#include "data/sparse.hpp"
#include "kernel/kernel_engine.hpp"
#include "mpisim/comm.hpp"
#include "obs/metrics.hpp"

namespace svmcore {

struct DistributedConfig {
  SolverParams params{};
  Heuristic heuristic{};
  /// CA-SVM-style ablation (§IV, design choice the paper rejects): shrink
  /// permanently and never reconstruct gradients. Faster, loses accuracy.
  bool permanent_shrink = false;
  /// When > 0, record (iteration, global active-set size) every this many
  /// iterations into SolverStats::active_trace (rank 0 only). Costs one
  /// Allreduce per sample point; used by the figure benches.
  std::uint64_t trace_active_interval = 0;
  /// Checkpoint/restart: when both are set, every rank serializes its solver
  /// state into `checkpoint_store` at iteration multiples of
  /// `checkpoint_interval` (purely local for SMO; PBM swaps the gamma slices
  /// at its span edges), and a freshly constructed solver restores the
  /// store's pinned epoch (see CheckpointStore::begin_restart) before
  /// solving. Used by train_with_recovery and scheduled jobs to survive
  /// injected rank failures.
  std::uint64_t checkpoint_interval = 0;
  CheckpointStore* checkpoint_store = nullptr;
};

/// Per-rank output of a distributed solve. Alphas cover this rank's block.
struct RankResult {
  svmdata::BlockRange range{};
  std::vector<double> alpha;  ///< local block's multipliers
  double beta = 0.0;          ///< hyperplane threshold (identical on all ranks)
  SolverStats stats;          ///< this rank's counters and timings (snapshot)
  /// The registry the solver's counters live in; `stats` is derived from it
  /// at solve() end. Feeds run reports (obs/report.hpp).
  svmobs::MetricsRegistry metrics;
};

class DistributedSolver {
 public:
  /// `dataset` is the full training set; the solver derives this rank's
  /// block from comm.rank()/comm.size().
  DistributedSolver(svmmpi::Comm& comm, const svmdata::Dataset& dataset,
                    const DistributedConfig& config);

  [[nodiscard]] RankResult solve();

 private:
  enum class PhaseExit { converged, stalled, iteration_cap };

  /// One SMO phase: iterate until beta_up + tolerance >= beta_low over the
  /// active set. `shrinking` enables the Eq. (9) elimination logic.
  PhaseExit run_phase(double tolerance, bool shrinking);

  /// Samples stats_.min_active at a phase's exit (not only at shrink passes,
  /// which a phase can end without reaching) and forwards the verdict.
  PhaseExit phase_exit(PhaseExit exit) noexcept;

  /// Algorithm 3 (gradient_reconstruction.cpp): repairs gamma of shrunk
  /// samples via the ring exchange, reactivates all samples and refreshes
  /// the global bounds. No-op (except bounds refresh) when nothing shrunk.
  void reconstruct_gradients();

  /// Worst-violator selection over active samples and the one pair
  /// allreduce (Comm::allreduce_minmaxloc) that returns both global winners
  /// with their samples: sets beta_up_/beta_low_, i_up_/i_low_ and
  /// up_sample_/low_sample_.
  void select_violators();

  /// Packs the locally-owned sample `global` into `out` as a one-sample
  /// PackedSamples block; leaves `out` empty when there is no candidate.
  void pack_local_sample(std::int64_t global, std::vector<std::byte>& out);

  /// Records the global active-set size when tracing is enabled.
  void maybe_trace_active();

  /// Fills the SolverStats fields the registry does not hold by name, plus
  /// the few counters callers read from SolverStats, and publishes the
  /// engine and kernel totals into the registry.
  void snapshot_stats();

  /// Restores solver state from the store's pinned epoch, if any.
  void maybe_restore();

  /// Saves a checkpoint at run_phase loop tops on the configured iteration
  /// cadence. Purely local; all ranks hit the same boundaries because the
  /// iteration counter advances in lockstep.
  void maybe_checkpoint();

  /// Marks the solve driver's position for checkpoints: the index of the
  /// run_phase call about to execute and the Algorithm 5 stall count at its
  /// entry.
  void begin_stage(std::uint32_t stage, std::uint32_t stalls) noexcept {
    stage_ = stage;
    stage_stalls_ = stalls;
  }

  [[nodiscard]] std::size_t local_of(std::int64_t global) const noexcept {
    return static_cast<std::size_t>(global) - range_.begin;
  }
  [[nodiscard]] bool owns(std::int64_t global) const noexcept {
    return range_.contains(static_cast<std::size_t>(global));
  }

  svmmpi::Comm& comm_;
  const svmdata::Dataset& data_;
  DistributedConfig config_;
  svmdata::BlockRange range_;
  svmkernel::Kernel kernel_;
  /// Batched kernel evaluation over this rank's block; owns the block's row
  /// squared norms and the dense scatter state (see kernel_engine.hpp).
  svmkernel::KernelEngine engine_;

  // Per-local-sample state (index = global - range_.begin).
  std::vector<double> alpha_;
  std::vector<double> gamma_;
  std::vector<std::uint8_t> shrunk_;
  std::vector<std::uint32_t> active_;  ///< local indices still in play
  std::vector<double> k_up_;   ///< per-iteration K(x_up, i) over active_
  std::vector<double> k_low_;  ///< per-iteration K(x_low, i) over active_
  // Selection scratch, reused every iteration: the local candidate block,
  // its packed bytes per side and the received winners (x_up, x_low).
  PackedSamples candidate_;
  std::vector<std::byte> up_bytes_;
  std::vector<std::byte> low_bytes_;
  PackedSamples up_sample_;
  PackedSamples low_sample_;

  // Global selection state, identical on every rank after each selection.
  double beta_up_ = 0.0;
  double beta_low_ = 0.0;
  std::int64_t i_up_ = -1;
  std::int64_t i_low_ = -1;

  // Shrinking counters (Algorithm 4): delta_counter_ iterations remain until
  // the next shrink pass; ~0ULL disables.
  std::uint64_t delta_counter_ = ~0ULL;

  // Checkpoint cursor: current solve-driver stage, the stall count at its
  // entry, the restored stage/stalls to resume from, and the iteration of
  // the last save (suppresses duplicate saves when phases change without
  // advancing the iteration counter — a mixed-stage epoch would break the
  // consistent-cut property).
  std::uint32_t stage_ = 0;
  std::uint32_t stage_stalls_ = 0;
  std::uint32_t resume_stage_ = 0;
  std::uint32_t resume_stalls_ = 0;
  bool restored_ = false;
  std::uint64_t last_checkpoint_iteration_ = ~0ULL;

  // The solver's counters live in the metrics registry; the hot ones are
  // bound once as references (map nodes are stable) so the SMO loop pays a
  // single add on a plain word, same as the struct fields they replace.
  // `stats_` keeps only what the registry does not model (exit flags,
  // bounds, the active-set trace) and is completed by snapshot_stats().
  svmobs::MetricsRegistry metrics_;
  svmobs::Counter& iterations_;
  svmobs::Counter& shrink_passes_;
  svmobs::Counter& samples_shrunk_;
  svmobs::Counter& reconstructions_;
  svmobs::Counter& recon_ring_steps_;
  svmobs::Counter& recon_overlapped_steps_;

  SolverStats stats_;
};

}  // namespace svmcore
