// Parallel Block Minimization (PBM) solver — the communication-efficient
// second training algorithm beside shrinking-SMO (Hsieh, Si, Dhillon,
// arXiv:1608.02010, with Glasmachers-style warm starts, arXiv:2207.01016).
//
// Where the distributed SMO reduces a working-set pair every iteration
// (O(iterations) small collectives), PBM partitions the dual variables into B
// fixed blocks, re-solves each block's subproblem locally with the
// sequential SMO as the inner solver (warm-started from the previous
// round's alpha), and synchronizes alpha ONCE per outer round: a 16-byte
// census allreduce, then a single allgatherv of the owned alpha slices
// (~8n/p injected bytes per rank) — the per-iteration pair exchange
// disappears entirely.
//
// State layout: the full alpha vector is REPLICATED on every rank (the
// sync keeps the replicas exactly equal: the inner solver only writes
// its own span, and the spans tile [0, n) in rank order, so concatenating
// the gathered slices reconstructs the identical vector everywhere). The
// gradient gamma is partitioned: each rank maintains it over the contiguous
// union of its ASSIGNED BLOCKS. The block count B is fixed at launch
// (decoupled from the current world size), so the optimization trajectory —
// every inner-solve decision, every cross-block gamma update, the final
// model — is independent of how many ranks execute it. That is what makes
// shrink-world recovery bit-identical: after a permanent rank death the
// survivors repartition the round-boundary checkpoints, re-assign the same
// B blocks among p-1 ranks and replay the identical arithmetic.
//
// Cross-block stalls: block minimization alone cannot fix a violating pair
// that spans two blocks (each block can be internally optimal while the
// global gap stays open). When a round moves no alpha at all, the solver
// switches to cross-block pair polishing: Keerthi pair updates on the
// global worst violators, computed redundantly on every rank from the
// replicated alpha and the shared dataset — two 16-byte MINLOC/MAXLOC
// collectives per polish step, no sample broadcast, terminating with
// exactly SMO's beta_up + 2*eps >= beta_low criterion.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/distributed_solver.hpp"
#include "core/types.hpp"
#include "data/split.hpp"
#include "data/sparse.hpp"
#include "kernel/kernel_engine.hpp"
#include "mpisim/comm.hpp"
#include "obs/metrics.hpp"

namespace svmcore {

class PbmSolver {
 public:
  /// `dataset` is the full training set. `config.params.pbm_blocks` must be
  /// resolved (> 0) and >= comm.size(); the trainer pins it to the LAUNCH
  /// rank count before the SPMD region so it survives shrinks unchanged.
  PbmSolver(svmmpi::Comm& comm, const svmdata::Dataset& dataset,
            const DistributedConfig& config);

  [[nodiscard]] RankResult solve();

 private:
  /// `assigned` is this rank's block run [first, last).
  PbmSolver(svmmpi::Comm& comm, const svmdata::Dataset& dataset, const DistributedConfig& config,
            std::pair<int, int> assigned);

  /// Re-solves every assigned block (warm-started), synchronizes the
  /// round's combined alpha direction D, and commits alpha + t*D where t is
  /// the exact line-search step (see line_search) — the paper's guard
  /// against simultaneous-block-update overshoot. Returns true when any
  /// alpha moved; a false return escalates to cross-block polishing.
  bool run_round();

  /// Alpha sync: one allgatherv of each rank's owned alpha slice,
  /// concatenated in rank order (spans tile [0, n)). Accumulates the
  /// cross-block gamma direction into dgamma_.
  void sync_alpha(const std::vector<double>& previous_alpha);

  /// Accumulates Sum_j y_j*delta_j*K(j, i) into dgamma_ over every assigned
  /// block, excluding each block's own rows (the inner solver's own-block
  /// effect is already captured as gamma_ - gamma_prev_). `changed` holds
  /// global indices of non-zero deltas, ascending.
  void apply_cross_block_deltas(const std::vector<std::uint32_t>& changed,
                                const std::vector<double>& delta);

  /// Exact line search along the combined direction D = alpha* - alpha_prev:
  /// the dual is quadratic, so the ascent-optimal step is
  ///   t* = clamp(a / b, 0, 1),  a = -Sum_i y_i D_i gamma_prev_i,
  ///                             b = D^T Q D = Sum_i y_i D_i dgamma_i.
  /// a and b are folded from per-block partial sums via one exact allreduce
  /// (one contributor per slot, ascending-block combine), so t* — and with
  /// it the whole trajectory — is partition-independent. Returns t*.
  [[nodiscard]] double line_search(const std::vector<double>& previous_alpha);

  /// Cross-block pair polishing (see file comment). Returns when the global
  /// gap closes or the round/iteration caps hit.
  void polish();

  /// Global worst-violator bounds over the assigned span via MINLOC/MAXLOC;
  /// grouping-independent (value then smaller-global-index tie-break).
  void refresh_bounds();

  void maybe_restore();
  void maybe_checkpoint();

  /// Publishes one outer round's local time split through MetricsRegistry
  /// (obs.round_compute_s / obs.round_wait_s / obs.imbalance_ratio plus the
  /// obs.straggler_suspects counter). Local wall-clock proxies only — no
  /// extra communication, so the solver's message/byte counts are untouched.
  void record_round_obs(double wall_s, double compute_s, double wait_s);

  /// Partition-independent threshold: per-block I0 (sum, count) slots
  /// allreduced exactly (one contributor per slot), combined in ascending
  /// block order on every rank.
  [[nodiscard]] double assemble_beta();

  void snapshot_stats();

  [[nodiscard]] svmdata::BlockRange block_of(int b) const {
    return svmdata::block_range(n_, blocks_, b);
  }

  svmmpi::Comm& comm_;
  const svmdata::Dataset& data_;
  DistributedConfig config_;
  std::size_t n_ = 0;
  int blocks_ = 0;                     ///< B, fixed at launch
  svmdata::BlockRange range_;          ///< this rank's checkpoint partition slice
  int first_block_ = 0;                ///< assigned blocks [first_block_, last_block_)
  int last_block_ = 0;
  svmdata::BlockRange span_;           ///< contiguous union of assigned blocks
  svmkernel::Kernel kernel_;
  svmkernel::KernelEngine engine_;     ///< norm range = span_

  std::vector<double> alpha_;          ///< FULL replicated alpha (n entries)
  std::vector<double> gamma_;          ///< gamma over span_ (index = global - span_.begin)

  double beta_up_ = 0.0;
  double beta_low_ = 0.0;
  std::int64_t i_up_ = -1;
  std::int64_t i_low_ = -1;
  bool converged_ = false;

  std::uint64_t round_ = 0;
  std::uint64_t last_checkpoint_round_ = ~0ULL;

  // Round scratch, reused so the steady state allocates nothing.
  std::vector<std::uint32_t> changed_;
  std::vector<double> delta_;
  std::vector<double> gamma_prev_;  ///< span gamma at round entry
  std::vector<double> dgamma_;      ///< span CROSS-block gamma direction (own
                                    ///< direction is gamma_ - gamma_prev_)
  std::vector<double> k_up_;
  std::vector<double> k_low_;

  svmobs::MetricsRegistry metrics_;
  svmobs::Counter& rounds_;
  svmobs::Counter& inner_iterations_;
  svmobs::Counter& polish_iterations_;
  svmobs::Counter& delta_nnz_;
  svmobs::Counter& sync_payload_bytes_;

  SolverStats stats_;
};

}  // namespace svmcore
