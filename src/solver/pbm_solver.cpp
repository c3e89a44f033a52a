#include "solver/pbm_solver.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/pair_update.hpp"
#include "core/sequential_smo.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace svmcore {

namespace {

constexpr int kTagPbmSliver = 22;  ///< checkpoint-time gamma sliver hand-off

/// Safety valve on outer rounds (max_iterations plays this role for SMO).
constexpr std::uint64_t kMaxRounds = 10'000;

/// Squared norm of an arbitrary dataset row, computed with the exact same
/// helper the engine's norm table uses, so a row's norm is bitwise identical
/// whether it is read in-span from the engine or recomputed off-span here
/// (partition independence of the cross-block kernel values depends on it).
double row_sq_norm(const svmdata::CsrMatrix& X, std::size_t g) {
  return svmdata::CsrMatrix::squared_norm(X.row(g));
}

/// This rank's assigned blocks [first, last): the contiguous run of blocks
/// whose first sample falls inside its partition slice. Fixed B >= p
/// guarantees at least one per rank (both partitions front-load their
/// remainder).
std::pair<int, int> assigned_blocks(const svmmpi::Comm& comm, std::size_t n, int blocks) {
  if (blocks < comm.size())
    throw std::invalid_argument(
        "PbmSolver: pbm_blocks must be >= the rank count (the trainer resolves 0 to "
        "the launch rank count)");
  if (static_cast<std::size_t>(blocks) > n)
    throw std::invalid_argument("PbmSolver: pbm_blocks must not exceed the sample count");
  int first = -1;
  int last = -1;
  for (int b = 0; b < blocks; ++b) {
    if (svmdata::owner_of(n, comm.size(), svmdata::block_range(n, blocks, b).begin) ==
        comm.rank()) {
      if (first < 0) first = b;
      last = b + 1;
    }
  }
  if (first < 0) throw std::logic_error("PbmSolver: rank received no blocks (partition anomaly)");
  return {first, last};
}

}  // namespace

PbmSolver::PbmSolver(svmmpi::Comm& comm, const svmdata::Dataset& dataset,
                     const DistributedConfig& config)
    : PbmSolver(comm, dataset, config,
                assigned_blocks(comm, dataset.size(), config.params.pbm_blocks)) {}

PbmSolver::PbmSolver(svmmpi::Comm& comm, const svmdata::Dataset& dataset,
                     const DistributedConfig& config, std::pair<int, int> assigned)
    : comm_(comm),
      data_(dataset),
      config_(config),
      n_(dataset.size()),
      blocks_(config.params.pbm_blocks),
      range_(svmdata::block_range(dataset.size(), comm.size(), comm.rank())),
      first_block_(assigned.first),
      last_block_(assigned.second),
      span_{block_of(first_block_).begin, block_of(last_block_ - 1).end},
      kernel_(config.params.kernel),
      engine_(kernel_, dataset.X, config.params.engine_backend, span_.begin, span_.end),
      metrics_(),
      rounds_(metrics_.counter("pbm.rounds")),
      inner_iterations_(metrics_.counter("pbm.inner_iterations")),
      polish_iterations_(metrics_.counter("pbm.polish_iterations")),
      delta_nnz_(metrics_.counter("pbm.delta_nnz")),
      sync_payload_bytes_(metrics_.counter("pbm.sync_payload_bytes")) {
  alpha_.assign(n_, 0.0);
  gamma_.resize(span_.size());
  for (std::size_t i = 0; i < span_.size(); ++i)
    gamma_[i] = -data_.y[span_.begin + i];  // alpha = 0 => gamma = -y
  k_up_.resize(span_.size());
  k_low_.resize(span_.size());
  metrics_.gauge("pbm.blocks").set(static_cast<double>(blocks_));
}

void PbmSolver::maybe_restore() {
  // The config is SPMD-shared, so a null store short-circuits uniformly —
  // plain training pays zero restore-path collectives.
  if (config_.checkpoint_store == nullptr) return;
  const std::optional<RankCheckpoint> c = config_.checkpoint_store->restore(comm_.rank());
  // The pinned epoch is all-or-nothing across ranks, but the restore path
  // below is collective — agree explicitly so a disagreement surfaces as a
  // clean fresh start instead of a deadlocked allgatherv.
  if (comm_.allreduce(c.has_value() ? 1 : 0, svmmpi::ReduceOp::min) != 1) return;
  if (c->alpha.size() != range_.size())
    throw std::runtime_error("PbmSolver: checkpoint does not match this rank's partition");

  // Rebuild the replicated global state from the per-rank partition slices;
  // every rank then re-slices its assigned span. The checkpointed gamma is
  // the block owners' authoritative values (see maybe_checkpoint's sliver
  // hand-off), so the rebuilt trajectory is bitwise the pre-failure one.
  const auto alpha_parts = comm_.allgatherv(std::span<const double>(c->alpha));
  const auto gamma_parts = comm_.allgatherv(std::span<const double>(c->gamma));
  std::vector<double> global_gamma(n_);
  for (int r = 0; r < comm_.size(); ++r) {
    const svmdata::BlockRange slice = svmdata::block_range(n_, comm_.size(), r);
    if (alpha_parts[r].size() != slice.size() || gamma_parts[r].size() != slice.size())
      throw std::runtime_error("PbmSolver: checkpoint slice size mismatch");
    std::copy(alpha_parts[r].begin(), alpha_parts[r].end(), alpha_.begin() + slice.begin);
    std::copy(gamma_parts[r].begin(), gamma_parts[r].end(), global_gamma.begin() + slice.begin);
  }
  std::copy(global_gamma.begin() + span_.begin, global_gamma.begin() + span_.end,
            gamma_.begin());
  round_ = c->iterations;
  beta_up_ = c->beta_up;
  beta_low_ = c->beta_low;
  last_checkpoint_round_ = round_;
  svmobs::trace_instant("checkpoint_restore", "ckpt");
}

void PbmSolver::maybe_checkpoint() {
  if (config_.checkpoint_store == nullptr || config_.checkpoint_interval == 0) return;
  if (round_ % config_.checkpoint_interval != 0 || round_ == last_checkpoint_round_) return;
  svmobs::TraceSpan span("checkpoint_save", "ckpt");

  RankCheckpoint c;
  c.iterations = round_;  // PBM epochs are outer-round boundaries
  c.beta_up = beta_up_;
  c.beta_low = beta_low_;
  c.i_up = i_up_;
  c.i_low = i_low_;
  c.min_active = range_.size();
  c.alpha.assign(alpha_.begin() + range_.begin, alpha_.begin() + range_.end);

  // gamma over the PARTITION slice. The assigned span starts at or after the
  // slice (blocks are owned by the rank holding their first sample), so the
  // head [range.begin, span.begin) is maintained by the previous rank — and
  // symmetrically this rank's span tail [range.end, span.end) is the next
  // rank's head. When B == p the partitions coincide and nothing moves.
  const std::size_t head = span_.begin - range_.begin;
  const std::size_t tail = span_.end - range_.end;
  if (tail > 0)  // eager/buffered: safe to send before the matching recv
    comm_.send(std::span<const double>(gamma_.data() + (range_.end - span_.begin), tail),
               comm_.rank() + 1, kTagPbmSliver);
  c.gamma.resize(range_.size());
  if (head > 0) {
    const std::vector<double> sliver = comm_.recv<double>(comm_.rank() - 1, kTagPbmSliver);
    if (sliver.size() != head)
      throw std::runtime_error("PbmSolver: gamma sliver size mismatch at checkpoint");
    std::copy(sliver.begin(), sliver.end(), c.gamma.begin());
  }
  std::copy(gamma_.begin(), gamma_.begin() + (range_.end - span_.begin),
            c.gamma.begin() + head);

  // PBM never shrinks samples; identity active set keeps the checkpoint
  // compatible with repartition_from_checkpoints.
  c.shrunk.assign(range_.size(), 0);
  c.active.resize(range_.size());
  for (std::size_t i = 0; i < range_.size(); ++i) c.active[i] = static_cast<std::uint32_t>(i);

  config_.checkpoint_store->save(comm_.rank(), round_, c);
  metrics_.counter("ckpt.saves").add();
  last_checkpoint_round_ = round_;
}

void PbmSolver::refresh_bounds() {
  double bu = std::numeric_limits<double>::infinity();
  double bl = -std::numeric_limits<double>::infinity();
  std::int64_t iu = std::numeric_limits<std::int64_t>::max();
  std::int64_t il = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < span_.size(); ++i) {
    const std::size_t g = span_.begin + i;
    const IndexSet set = classify(data_.y[g], alpha_[g], config_.params.C_of(data_.y[g]));
    if (in_up_set(set) && gamma_[i] < bu) {
      bu = gamma_[i];
      iu = static_cast<std::int64_t>(g);
    }
    if (in_low_set(set) && gamma_[i] > bl) {
      bl = gamma_[i];
      il = static_cast<std::int64_t>(g);
    }
  }
  // MINLOC/MAXLOC with the global sample index: value first, smaller index
  // on ties — the winning pair is independent of how samples are grouped
  // into ranks, which keeps every downstream decision partition-independent.
  const svmmpi::DoubleInt up = comm_.allreduce_minloc({bu, iu});
  const svmmpi::DoubleInt low = comm_.allreduce_maxloc({bl, il});
  beta_up_ = up.value;
  beta_low_ = low.value;
  i_up_ = up.index;
  i_low_ = low.index;
}

void PbmSolver::apply_cross_block_deltas(const std::vector<std::uint32_t>& changed,
                                         const std::vector<double>& delta) {
  if (changed.empty()) return;
  // Shared scratch across blocks: the rows/norms/coeffs of every changed
  // sample, ascending global index. Norms are recomputed with the engine's
  // own helper so in-span and off-span rows agree bitwise.
  std::vector<std::span<const svmdata::Feature>> rows;
  std::vector<double> sq_norms;
  std::vector<double> coeffs;
  rows.reserve(changed.size());
  sq_norms.reserve(changed.size());
  coeffs.reserve(changed.size());
  std::vector<std::uint32_t> targets;

  for (int b = first_block_; b < last_block_; ++b) {
    const svmdata::BlockRange blk = block_of(b);
    rows.clear();
    sq_norms.clear();
    coeffs.clear();
    // Ascending-j exclusion of the block's OWN rows: the inner solver
    // already applied those pair-by-pair. The surviving set depends only on
    // the block partition (fixed B), never on the rank partition, and
    // eval_block_rows accumulates it into a fresh partial in ascending j —
    // so gamma's bits are the same no matter how many ranks compute them.
    for (const std::uint32_t g : changed) {
      if (blk.contains(g)) continue;
      rows.push_back(data_.X.row(g));
      sq_norms.push_back(row_sq_norm(data_.X, g));
      coeffs.push_back(data_.y[g] * delta[g]);
    }
    if (rows.empty()) continue;
    targets.resize(blk.size());
    for (std::size_t i = 0; i < blk.size(); ++i) targets[i] = static_cast<std::uint32_t>(i);
    engine_.eval_block_rows(rows, sq_norms, coeffs, targets, blk.begin,
                            std::span<double>(dgamma_.data() + (blk.begin - span_.begin),
                                              blk.size()));
  }
}

void PbmSolver::sync_alpha(const std::vector<double>& previous_alpha) {
  // The inner solver only writes this rank's assigned span, and spans tile
  // [0, n) contiguously in rank order (blocks are owned by the rank that
  // owns their start index), so the round's new global alpha is exactly the
  // rank-ordered concatenation of the owned slices. An allgatherv of the
  // spans reconstructs it bit-for-bit while each rank injects only its
  // 8*|span| contribution bytes — 1/p-th of the old sum-allreduce of a
  // mostly-zero full vector, whose padding zeros were an IEEE identity but
  // still billed (and shipped) on the wire.
  const auto slices = comm_.allgatherv(
      std::span<const double>(alpha_.data() + span_.begin, span_.size()));
  std::size_t at = 0;
  for (const std::vector<double>& slice : slices) {
    std::copy(slice.begin(), slice.end(), alpha_.begin() + static_cast<std::ptrdiff_t>(at));
    at += slice.size();
  }
  if (at != n_) throw std::runtime_error("PbmSolver: sync slices do not tile alpha");

  changed_.clear();
  delta_.assign(n_, 0.0);
  for (std::size_t g = 0; g < n_; ++g) {
    if (alpha_[g] != previous_alpha[g]) {
      changed_.push_back(static_cast<std::uint32_t>(g));
      delta_[g] = alpha_[g] - previous_alpha[g];
    }
  }
  apply_cross_block_deltas(changed_, delta_);
}

void PbmSolver::record_round_obs(double wall_s, double compute_s, double wait_s) {
  // Live skew signal for benches/scheduler without post-processing the trace.
  // These are LOCAL proxies: wait_s is this rank's wall time inside the
  // round's collectives/sync (which includes blocking on the slowest peer),
  // and imbalance_ratio is wait/wall — a rank whose peers straggle sees a
  // high ratio. Exact per-peer attribution needs the cross-rank flow events
  // and lives in tools/trace_analyze.
  metrics_.gauge("obs.round_compute_s").add(compute_s);
  metrics_.gauge("obs.round_wait_s").add(wait_s);
  if (wall_s > 0.0) {
    const double ratio = wait_s / wall_s;
    metrics_.gauge("obs.imbalance_ratio").set(ratio);
    if (ratio > 0.5) metrics_.counter("obs.straggler_suspects").add();
  }
}

bool PbmSolver::run_round() {
  // Uniform round marker + the PBM-specific span: trace_analyze segments on
  // the former, humans reading Perfetto keep the latter.
  svmobs::TraceRound round_marker("pbm");
  svmobs::TraceSpan round_span("pbm_round", "pbm");
  svmutil::Timer round_timer;
  double compute_s = 0.0;
  double wait_s = 0.0;
  const std::vector<double> previous_alpha = alpha_;
  gamma_prev_.assign(gamma_.begin(), gamma_.end());
  dgamma_.assign(span_.size(), 0.0);
  const double tolerance = 2.0 * config_.params.eps;

  {
    svmobs::TraceSpan solve_span("pbm_block_solve", "pbm");
    svmutil::Timer compute_timer;
    for (int b = first_block_; b < last_block_; ++b) {
      const svmdata::BlockRange blk = block_of(b);
      const BlockSolveResult r = solve_sequential_block(
          data_, config_.params, engine_, blk.begin, blk.end,
          std::span<double>(alpha_.data() + blk.begin, blk.size()),
          std::span<double>(gamma_.data() + (blk.begin - span_.begin), blk.size()), tolerance,
          config_.params.max_iterations);
      inner_iterations_.add(r.iterations);
    }
    compute_s = compute_timer.seconds();
  }

  // Delta census: one 16-byte control allreduce carries the global changed
  // count and the changed-BLOCK count, so every rank knows whether anything
  // moved at all and whether a line search is needed.
  std::int64_t census[2] = {0, 0};
  for (int b = first_block_; b < last_block_; ++b) {
    const svmdata::BlockRange blk = block_of(b);
    bool block_changed = false;
    for (std::size_t g = blk.begin; g < blk.end; ++g) {
      if (alpha_[g] != previous_alpha[g]) {
        block_changed = true;
        ++census[0];
      }
    }
    if (block_changed) ++census[1];
  }
  svmutil::Timer census_timer;
  const std::vector<std::int64_t> global =
      comm_.allreduce(std::span<const std::int64_t>(census, 2), svmmpi::ReduceOp::sum);
  wait_s += census_timer.seconds();
  delta_nnz_.add(static_cast<std::uint64_t>(global[0]));
  if (global[0] == 0) {  // nothing moved: caller escalates to polishing
    record_round_obs(round_timer.seconds(), compute_s, wait_s);
    return false;
  }

  {
    svmobs::TraceSpan sync_span("pbm_sync", "pbm");
    svmutil::Timer sync_timer;
    const double sync_before = comm_.traffic().modeled_seconds;
    sync_payload_bytes_.add(8 * n_);
    sync_alpha(previous_alpha);
    metrics_.gauge("pbm.sync_s").add(comm_.traffic().modeled_seconds - sync_before);
    wait_s += sync_timer.seconds();
  }

  // Commit alpha_prev + t*D. Simultaneous block solves are a Jacobi step:
  // each block's delta is an ascent direction alone, but their sum can
  // overshoot through the cross-block quadratic terms and oscillate forever.
  // A single changed block cannot overshoot (t* = 1 by construction), and
  // skipping the search there keeps the B = 1 trajectory bitwise the
  // sequential solver's.
  double t = 1.0;
  if (global[1] > 1) {
    svmutil::Timer search_timer;
    t = line_search(previous_alpha);
    wait_s += search_timer.seconds();
    metrics_.counter("pbm.line_search_rounds").add();
    metrics_.gauge("pbm.step_t").set(t);
  }
  if (t < 1.0) {
    for (std::size_t g = 0; g < n_; ++g) {
      const double d = alpha_[g] - previous_alpha[g];
      if (d != 0.0) alpha_[g] = previous_alpha[g] + t * d;
    }
    // gamma is linear in alpha, so the gradient at the committed point is
    // exactly the blend of the round-entry gradient with the full-step
    // direction (own-block part from the inner solves + cross-block part).
    for (std::size_t i = 0; i < span_.size(); ++i)
      gamma_[i] = gamma_prev_[i] + t * ((gamma_[i] - gamma_prev_[i]) + dgamma_[i]);
  } else {
    // Full step: the inner solves' gamma already carries the own-block
    // direction; fold in the accumulated cross-block part. The != 0 guard
    // preserves gamma's bit patterns on untouched entries (B = 1 parity).
    for (std::size_t i = 0; i < span_.size(); ++i)
      if (dgamma_[i] != 0.0) gamma_[i] += dgamma_[i];
  }
  record_round_obs(round_timer.seconds(), compute_s, wait_s);
  return true;
}

double PbmSolver::line_search(const std::vector<double>& previous_alpha) {
  // W(alpha_prev + t*D) = W + a*t - b*t^2/2 exactly (the dual is quadratic):
  //   a = sum_i D_i dW/dalpha_i(prev) = -sum_i y_i D_i gamma_prev_i
  //   b = D^T Q D = sum_i y_i D_i * sum_j y_j D_j K_ij
  // where the inner sum is the full-step gamma direction this rank already
  // holds for its span (own-block from the inner solves, cross-block in
  // dgamma_). Per-block partial sums folded in ascending order through an
  // exact allreduce (one contributor per slot) keep t* — and the whole
  // trajectory — partition-independent.
  std::vector<double> slots(2 * static_cast<std::size_t>(blocks_), 0.0);
  for (int b = first_block_; b < last_block_; ++b) {
    const svmdata::BlockRange blk = block_of(b);
    double ascent = 0.0;
    double curvature = 0.0;
    for (std::size_t g = blk.begin; g < blk.end; ++g) {
      const double d = alpha_[g] - previous_alpha[g];
      if (d == 0.0) continue;
      const std::size_t i = g - span_.begin;
      const double yd = data_.y[g] * d;
      ascent -= yd * gamma_prev_[i];
      curvature += yd * ((gamma_[i] - gamma_prev_[i]) + dgamma_[i]);
    }
    slots[2 * static_cast<std::size_t>(b)] = ascent;
    slots[2 * static_cast<std::size_t>(b) + 1] = curvature;
  }
  const std::vector<double> total =
      comm_.allreduce(std::span<const double>(slots), svmmpi::ReduceOp::sum);
  double ascent = 0.0;
  double curvature = 0.0;
  for (int b = 0; b < blocks_; ++b) {
    ascent += total[2 * static_cast<std::size_t>(b)];
    curvature += total[2 * static_cast<std::size_t>(b) + 1];
  }
  // Each block delta strictly increases the dual, so D is an ascent
  // direction (a > 0) and Q is PSD (b >= 0); the guards only absorb
  // floating-point dust. t is clamped to 1: every coordinate of
  // prev + t*D then stays a convex combination inside [0, C].
  if (curvature <= 0.0) return 1.0;
  const double t = ascent / curvature;
  if (!(t > 0.0)) return 1.0;
  return std::min(1.0, t);
}

void PbmSolver::polish() {
  svmobs::TraceSpan polish_span("pbm_polish", "pbm");
  const double two_eps = 2.0 * config_.params.eps;
  while (true) {
    refresh_bounds();
    if (beta_up_ + two_eps >= beta_low_) {
      converged_ = true;
      return;
    }
    if (polish_iterations_.value() >= config_.params.max_iterations) return;

    // Every rank computes the identical pair update from replicated state:
    // the violator rows come from the shared dataset, their alphas from the
    // replicated vector, their gammas from the MINLOC/MAXLOC values. No
    // sample moves; the only traffic was the two 16-byte collectives above.
    const auto g_up = static_cast<std::size_t>(i_up_);
    const auto g_low = static_cast<std::size_t>(i_low_);
    const auto row_up = data_.X.row(g_up);
    const auto row_low = data_.X.row(g_low);
    const double sq_up = row_sq_norm(data_.X, g_up);
    const double sq_low = row_sq_norm(data_.X, g_low);
    const PairState state{data_.y[g_up],
                          data_.y[g_low],
                          alpha_[g_up],
                          alpha_[g_low],
                          beta_up_,
                          beta_low_,
                          engine_.eval_one(row_up, row_up, sq_up, sq_up),
                          engine_.eval_one(row_low, row_low, sq_low, sq_low),
                          engine_.eval_one(row_up, row_low, sq_up, sq_low),
                          config_.params.C_of(data_.y[g_up]),
                          config_.params.C_of(data_.y[g_low])};
    const PairResult update = solve_pair(state);
    if (!update.progress) return;  // degenerate pair; same verdict on every rank

    const double delta_up = update.alpha_up - alpha_[g_up];
    const double delta_low = update.alpha_low - alpha_[g_low];
    alpha_[g_up] = update.alpha_up;
    alpha_[g_low] = update.alpha_low;

    const double coef_up = data_.y[g_up] * delta_up;
    const double coef_low = data_.y[g_low] * delta_low;
    engine_.eval_pair_range(row_up, sq_up, row_low, sq_low, span_.begin, span_.end, k_up_,
                            k_low_);
    for (std::size_t i = 0; i < span_.size(); ++i)
      gamma_[i] += coef_up * k_up_[i] + coef_low * k_low_[i];
    polish_iterations_.add();
  }
}

double PbmSolver::assemble_beta() {
  // Per-block I0 (sum, count) slots: the allreduce is exact (one contributor
  // per slot), and every rank folds the blocks in ascending order — the
  // threshold's bits do not depend on the rank partition.
  std::vector<double> slots(2 * static_cast<std::size_t>(blocks_), 0.0);
  for (int b = first_block_; b < last_block_; ++b) {
    const svmdata::BlockRange blk = block_of(b);
    double sum = 0.0;
    double count = 0.0;
    for (std::size_t g = blk.begin; g < blk.end; ++g) {
      if (classify(data_.y[g], alpha_[g], config_.params.C_of(data_.y[g])) == IndexSet::I0) {
        sum += gamma_[g - span_.begin];
        count += 1.0;
      }
    }
    slots[2 * static_cast<std::size_t>(b)] = sum;
    slots[2 * static_cast<std::size_t>(b) + 1] = count;
  }
  const std::vector<double> total =
      comm_.allreduce(std::span<const double>(slots), svmmpi::ReduceOp::sum);
  double sum = 0.0;
  double count = 0.0;
  for (int b = 0; b < blocks_; ++b) {
    sum += total[2 * static_cast<std::size_t>(b)];
    count += total[2 * static_cast<std::size_t>(b) + 1];
  }
  return count > 0.0 ? sum / count : 0.5 * (beta_low_ + beta_up_);
}

void PbmSolver::snapshot_stats() {
  stats_.iterations = round_;  // PBM reports OUTER ROUNDS as its iterations
  stats_.kernel_evaluations = kernel_.evaluations();
  stats_.final_beta_up = beta_up_;
  stats_.final_beta_low = beta_low_;
  stats_.converged = converged_;
  stats_.min_active = span_.size();
  stats_.engine_backend = engine_.backend();

  metrics_.counter("solver.iterations").set(round_);
  metrics_.counter("kernel.evaluations").set(kernel_.evaluations());
  metrics_.counter("engine.pair_evals").set(engine_.stats().pair_evals);
  metrics_.counter("engine.single_evals").set(engine_.stats().single_evals);
  metrics_.counter("engine.scatter_builds").set(engine_.stats().scatter_builds);
  metrics_.counter("engine.bytes_streamed").set(engine_.stats().bytes_streamed);
  metrics_.counter("engine.panel_dots").set(engine_.stats().panel_dots);
  metrics_.gauge("solver.final_gap").set(beta_low_ - beta_up_);
  metrics_.gauge("solver.active_at_end").set(static_cast<double>(span_.size()));
  metrics_.counter("solver.converged").set(converged_ ? 1 : 0);
}

RankResult PbmSolver::solve() {
  svmobs::TraceSpan span("solve", "solver");
  svmutil::Timer total;

  // Both classes must exist globally (the assigned spans tile the dataset).
  std::int64_t class_counts[2] = {0, 0};
  for (std::size_t g = span_.begin; g < span_.end; ++g)
    ++class_counts[data_.y[g] > 0.0 ? 0 : 1];
  const std::vector<std::int64_t> classes =
      comm_.allreduce(std::span<const std::int64_t>(class_counts, 2), svmmpi::ReduceOp::sum);
  if (classes[0] == 0 || classes[1] == 0)
    throw std::invalid_argument("PbmSolver: dataset must contain both classes");

  maybe_restore();

  const double two_eps = 2.0 * config_.params.eps;
  for (;;) {
    refresh_bounds();
    if (beta_up_ + two_eps >= beta_low_) {
      converged_ = true;
      break;
    }
    if (round_ >= kMaxRounds) break;
    maybe_checkpoint();

    const bool moved = run_round();
    ++round_;
    rounds_.add();
    if (!moved) {
      // Every block is internally optimal but the global gap is open: the
      // violating pair spans blocks. Polish it away with cross-block pair
      // updates; if even polishing cannot move, the solve has stalled.
      const std::uint64_t polish_before = polish_iterations_.value();
      polish();
      if (converged_) break;
      if (polish_iterations_.value() == polish_before) break;  // stalled
    }
  }

  const double beta = assemble_beta();
  stats_.solve_seconds = total.seconds();
  metrics_.gauge("solver.solve_s").set(stats_.solve_seconds);
  snapshot_stats();

  RankResult result;
  result.range = range_;
  result.alpha.assign(alpha_.begin() + range_.begin, alpha_.begin() + range_.end);
  result.beta = beta;
  result.stats = stats_;
  result.metrics = metrics_;
  return result;
}

}  // namespace svmcore
