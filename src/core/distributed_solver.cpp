#include "core/distributed_solver.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/pair_update.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace svmcore {

namespace {
/// Selection key index of a side with no candidate (sorts after every sample).
constexpr std::int64_t kNoSample = std::numeric_limits<std::int64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
// One "smo_batch" trace span per this many SMO iterations: batches keep the
// timeline readable (and the ring buffer roomy) where per-iteration spans
// would drown it.
constexpr std::uint64_t kIterationsPerBatchSpan = 256;
}  // namespace

DistributedSolver::DistributedSolver(svmmpi::Comm& comm, const svmdata::Dataset& dataset,
                                     const DistributedConfig& config)
    : comm_(comm),
      data_(dataset),
      config_(config),
      range_(svmdata::block_range(dataset.size(), comm.size(), comm.rank())),
      kernel_(config.params.kernel),
      engine_(kernel_, dataset.X, config.params.engine_backend, range_.begin, range_.end),
      iterations_(metrics_.counter("solver.iterations")),
      shrink_passes_(metrics_.counter("solver.shrink_passes")),
      samples_shrunk_(metrics_.counter("solver.samples_shrunk")),
      reconstructions_(metrics_.counter("recon.reconstructions")),
      recon_ring_steps_(metrics_.counter("recon.ring_steps")),
      recon_overlapped_steps_(metrics_.counter("recon.overlapped_steps")) {
  if (comm.rank() == 0) dataset.validate();
  if (config_.checkpoint_store != nullptr &&
      config_.checkpoint_store->num_ranks() != comm.size())
    throw std::invalid_argument(
        "DistributedSolver: checkpoint store sized for a different communicator (after an "
        "elastic shrink, repartition into a store matching the surviving ranks)");
  const std::size_t local_n = range_.size();
  alpha_.assign(local_n, 0.0);
  gamma_.resize(local_n);
  shrunk_.assign(local_n, 0);
  active_.resize(local_n);
  for (std::size_t i = 0; i < local_n; ++i) {
    const std::size_t g = range_.begin + i;
    gamma_[i] = -data_.y[g];  // alpha = 0 => gamma = -y (Algorithm 2 line 1)
    active_[i] = static_cast<std::uint32_t>(i);
  }
  stats_.min_active = local_n;
  stats_.engine_backend = engine_.backend();
  maybe_restore();
}

void DistributedSolver::maybe_restore() {
  if (config_.checkpoint_store == nullptr) return;
  const std::optional<RankCheckpoint> c = config_.checkpoint_store->restore(comm_.rank());
  if (!c) return;
  if (c->alpha.size() != range_.size())
    throw std::runtime_error("DistributedSolver: checkpoint does not match this rank's block");
  alpha_ = c->alpha;
  gamma_ = c->gamma;
  shrunk_ = c->shrunk;
  active_ = c->active;
  beta_up_ = c->beta_up;
  beta_low_ = c->beta_low;
  i_up_ = c->i_up;
  i_low_ = c->i_low;
  delta_counter_ = c->delta_counter;
  iterations_.set(c->iterations);
  shrink_passes_.set(c->shrink_passes);
  samples_shrunk_.set(c->samples_shrunk);
  reconstructions_.set(c->reconstructions);
  stats_.min_active = c->min_active;
  resume_stage_ = c->stage;
  resume_stalls_ = c->stalls;
  restored_ = true;
  svmobs::trace_instant("checkpoint_restore", "ckpt");
  // The restore epoch is a boundary the replay will hit again; skip the
  // redundant (byte-identical) re-save there.
  last_checkpoint_iteration_ = c->iterations;
}

void DistributedSolver::maybe_checkpoint() {
  if (config_.checkpoint_store == nullptr || config_.checkpoint_interval == 0) return;
  if (iterations_.value() % config_.checkpoint_interval != 0 ||
      iterations_.value() == last_checkpoint_iteration_)
    return;
  svmobs::TraceSpan span("checkpoint_save", "ckpt");
  RankCheckpoint c;
  c.stage = stage_;
  c.stalls = stage_stalls_;
  c.iterations = iterations_.value();
  c.delta_counter = delta_counter_;
  c.beta_up = beta_up_;
  c.beta_low = beta_low_;
  c.i_up = i_up_;
  c.i_low = i_low_;
  c.shrink_passes = shrink_passes_.value();
  c.samples_shrunk = samples_shrunk_.value();
  c.reconstructions = reconstructions_.value();
  c.min_active = stats_.min_active;
  c.alpha = alpha_;
  c.gamma = gamma_;
  c.shrunk = shrunk_;
  c.active = active_;
  config_.checkpoint_store->save(comm_.rank(), iterations_.value(), c);
  last_checkpoint_iteration_ = iterations_.value();
  metrics_.counter("ckpt.saves").add();
}

void DistributedSolver::select_violators() {
  svmmpi::DoubleInt up{kInf, kNoSample};
  svmmpi::DoubleInt low{-kInf, kNoSample};
  for (const std::uint32_t i : active_) {
    const std::size_t g = range_.begin + i;
    const IndexSet set = classify(data_.y[g], alpha_[i], config_.params.C_of(data_.y[g]));
    if (in_up_set(set) && gamma_[i] < up.value)
      up = svmmpi::DoubleInt{gamma_[i], static_cast<std::int64_t>(g)};
    if (in_low_set(set) && gamma_[i] > low.value)
      low = svmmpi::DoubleInt{gamma_[i], static_cast<std::int64_t>(g)};
  }
  // Algorithm 2's selection and its x_up/x_low fetch in one rendezvous: each
  // local winner rides inside the MINLOC/MAXLOC reduction as a one-sample
  // PackedSamples payload, so the global winners arrive with their samples.
  pack_local_sample(up.index, up_bytes_);
  pack_local_sample(low.index, low_bytes_);
  const svmmpi::MinMaxLoc winners = comm_.allreduce_minmaxloc(up, up_bytes_, low, low_bytes_);
  beta_up_ = winners.min.key.value;
  beta_low_ = winners.max.key.value;
  i_up_ = winners.min.key.index;
  i_low_ = winners.max.key.index;
  if (i_up_ != kNoSample) PackedSamples::unpack_into(winners.min.payload, up_sample_);
  if (i_low_ != kNoSample) PackedSamples::unpack_into(winners.max.payload, low_sample_);
  stats_.final_beta_up = beta_up_;
  stats_.final_beta_low = beta_low_;
  // The convergence gap as a counter track: rank 0 only, since the value is
  // identical on every rank after the reduction.
  if (comm_.rank() == 0) svmobs::trace_counter("gap", beta_low_ - beta_up_);
}

void DistributedSolver::pack_local_sample(std::int64_t global, std::vector<std::byte>& out) {
  out.clear();
  if (global == kNoSample) return;
  const auto g = static_cast<std::size_t>(global);
  candidate_.clear();
  candidate_.add(global, data_.y[g], alpha_[local_of(global)], engine_.sq_norm(g),
                 data_.X.row(g));
  candidate_.pack_into(out);
}

DistributedSolver::PhaseExit DistributedSolver::phase_exit(PhaseExit exit) noexcept {
  // min_active is tracked at shrink passes, but a phase can also end between
  // passes (converged/stalled/capped) or without ever shrinking; sample the
  // exit-time active-set size so the reported minimum covers every boundary.
  stats_.min_active = std::min(stats_.min_active, active_.size());
  return exit;
}

DistributedSolver::PhaseExit DistributedSolver::run_phase(double tolerance, bool shrinking) {
  // Uniform round marker (one solver phase = one round for trace_analyze)
  // nested inside the human-facing "phase" span.
  svmobs::TraceRound round_marker("solver");
  svmobs::TraceSpan phase_span("phase", "solver");
  // Local round time split, published on every exit path (including faults):
  // wait_s is real wall time inside the phase's communication op
  // (select_violators' pair allreduce), compute_s the remainder. Proxies
  // only — exact per-peer blocking comes from the trace flow events via
  // tools/trace_analyze, with no extra communication here.
  struct PhaseObs {
    explicit PhaseObs(svmobs::MetricsRegistry& m) : metrics(m) {}
    svmobs::MetricsRegistry& metrics;
    svmutil::Timer wall;
    double wait_s = 0.0;
    ~PhaseObs() {
      const double wall_s = wall.seconds();
      const double compute_s = std::max(0.0, wall_s - wait_s);
      metrics.gauge("obs.round_compute_s").add(compute_s);
      metrics.gauge("obs.round_wait_s").add(wait_s);
      if (wall_s > 0.0) {
        const double ratio = wait_s / wall_s;
        metrics.gauge("obs.imbalance_ratio").set(ratio);
        if (ratio > 0.5) metrics.counter("obs.straggler_suspects").add();
      }
    }
  } obs(metrics_);
  // SMO iterations are spanned in batches of kIterationsPerBatchSpan; the
  // RAII guard closes the open batch on every exit path (returns, faults).
  struct BatchGuard {
    bool open = false;
    ~BatchGuard() {
      if (open) svmobs::trace_end("smo_batch", "solver");
    }
  } batch;
  while (true) {
    if (svmobs::trace_enabled() && iterations_.value() % kIterationsPerBatchSpan == 0) {
      if (batch.open) svmobs::trace_end("smo_batch", "solver");
      svmobs::trace_begin("smo_batch", "solver");
      batch.open = true;
    }
    // Loop tops are the checkpoint boundaries: state is replica-consistent
    // here and a replay from any saved boundary is deterministic.
    maybe_checkpoint();
    {
      svmutil::Timer wait_timer;
      select_violators();
      obs.wait_s += wait_timer.seconds();
    }
    if (i_up_ == kNoSample || i_low_ == kNoSample) {
      // Active set lost one side entirely; only reconstruction can help.
      return phase_exit(PhaseExit::converged);
    }
    if (beta_up_ + tolerance >= beta_low_) return phase_exit(PhaseExit::converged);
    if (iterations_.value() >= config_.params.max_iterations)
      return phase_exit(PhaseExit::iteration_cap);

    // select_violators delivered both samples with the pair.
    const auto x_up = up_sample_.row(0);
    const auto x_low = low_sample_.row(0);
    const double sq_up = up_sample_.sq_norm(0);
    const double sq_low = low_sample_.sq_norm(0);

    // The pair update (Eq. 6) is computed redundantly on every rank from the
    // reduced state, so all replicas agree bit-for-bit.
    const PairState state{up_sample_.y(0),
                          low_sample_.y(0),
                          up_sample_.alpha(0),
                          low_sample_.alpha(0),
                          beta_up_,
                          beta_low_,
                          engine_.eval_one(x_up, x_up, sq_up, sq_up),
                          engine_.eval_one(x_low, x_low, sq_low, sq_low),
                          engine_.eval_one(x_up, x_low, sq_up, sq_low),
                          config_.params.C_of(up_sample_.y(0)),
                          config_.params.C_of(low_sample_.y(0))};
    const PairResult updated = solve_pair(state);
    if (!updated.progress) {
      SVM_LOG_WARN << "distributed solver: stalled pair at gap "
                   << (beta_low_ - beta_up_) << "; ending phase";
      return phase_exit(PhaseExit::stalled);
    }
    const double delta_up = updated.alpha_up - up_sample_.alpha(0);
    const double delta_low = updated.alpha_low - low_sample_.alpha(0);
    if (owns(i_up_)) alpha_[local_of(i_up_)] = updated.alpha_up;
    if (owns(i_low_)) alpha_[local_of(i_low_)] = updated.alpha_low;

    // Shrink pass scheduling (Algorithm 4 lines 9-11): when the counter
    // expires, this iteration's gamma loop also applies the Eq. (9) test.
    bool shrink_now = false;
    if (shrinking && delta_counter_ != ~0ULL) {
      --delta_counter_;
      if (delta_counter_ == 0) shrink_now = true;
    }

    // Gradient update over active samples (Eq. 2): one fused engine call
    // computes K(x_up, i) and K(x_low, i) for the whole active set.
    const double coef_up = up_sample_.y(0) * delta_up;
    const double coef_low = low_sample_.y(0) * delta_low;
    k_up_.resize(active_.size());
    k_low_.resize(active_.size());
    engine_.eval_pair_rows(x_up, sq_up, x_low, sq_low, active_, range_.begin, k_up_, k_low_);
    if (!shrink_now) {
      for (std::size_t a = 0; a < active_.size(); ++a)
        gamma_[active_[a]] += coef_up * k_up_[a] + coef_low * k_low_[a];
    } else {
      std::size_t kept = 0;
      for (std::size_t a = 0; a < active_.size(); ++a) {
        const std::uint32_t i = active_[a];
        const std::size_t g = range_.begin + i;
        gamma_[i] += coef_up * k_up_[a] + coef_low * k_low_[a];
        if (static_cast<std::int64_t>(g) == i_up_ ||
            static_cast<std::int64_t>(g) == i_low_) {
          active_[kept++] = i;  // the pair is never shrunk this iteration
          continue;
        }
        const IndexSet set = classify(data_.y[g], alpha_[i], config_.params.C_of(data_.y[g]));
        const bool at_bound_up = set == IndexSet::I3 || set == IndexSet::I4;
        const bool at_bound_low = set == IndexSet::I1 || set == IndexSet::I2;
        if ((at_bound_up && gamma_[i] < beta_up_) || (at_bound_low && gamma_[i] > beta_low_)) {
          shrunk_[i] = 1;  // eliminated (Eq. 9); gamma/alpha frozen from here
          samples_shrunk_.add();
          continue;
        }
        active_[kept++] = i;
      }
      active_.resize(kept);
    }

    if (shrink_now) {
      shrink_passes_.add();
      stats_.min_active = std::min(stats_.min_active, active_.size());
      svmobs::trace_counter("active_local", static_cast<double>(active_.size()));
      // Subsequent threshold (§IV-A.2): the global active-set size, or the
      // initial threshold again under the fixed-threshold ablation.
      const auto local_active = static_cast<std::int64_t>(active_.size());
      const std::int64_t global_active =
          comm_.allreduce(local_active, svmmpi::ReduceOp::sum);
      delta_counter_ = config_.heuristic.fixed_subsequent_threshold
                           ? config_.heuristic.initial_threshold(data_.size())
                           : static_cast<std::uint64_t>(global_active);
      if (delta_counter_ == 0) delta_counter_ = 1;
    }

    iterations_.add();
    maybe_trace_active();
  }
}

void DistributedSolver::maybe_trace_active() {
  if (config_.trace_active_interval == 0 ||
      iterations_.value() % config_.trace_active_interval != 0)
    return;
  const auto local_active = static_cast<std::int64_t>(active_.size());
  const std::int64_t global_active = comm_.allreduce(local_active, svmmpi::ReduceOp::sum);
  if (comm_.rank() == 0) {
    stats_.active_trace.emplace_back(iterations_.value(),
                                     static_cast<std::uint64_t>(global_active));
    // The same sample lands on a trace counter track (satellite of the
    // field, not a replacement: bench_trace_active reads the vector).
    svmobs::trace_counter("active_set", static_cast<double>(global_active));
  }
}

void DistributedSolver::snapshot_stats() {
  stats_.iterations = iterations_.value();
  stats_.samples_shrunk = samples_shrunk_.value();
  stats_.reconstructions = reconstructions_.value();

  // Engine- and kernel-level totals flow through the registry too, so a run
  // report carries the full picture without touching SolverStats.
  metrics_.counter("kernel.evaluations").set(kernel_.evaluations());
  metrics_.counter("engine.pair_evals").set(engine_.stats().pair_evals);
  metrics_.counter("engine.single_evals").set(engine_.stats().single_evals);
  metrics_.counter("engine.scatter_builds").set(engine_.stats().scatter_builds);
  metrics_.counter("engine.bytes_streamed").set(engine_.stats().bytes_streamed);
  metrics_.counter("engine.panel_dots").set(engine_.stats().panel_dots);
  // Resident bytes of the panel path's RowStore; zero on the scalar paths.
  metrics_.gauge("engine.store_bytes").set(static_cast<double>(engine_.store_bytes()));
  metrics_.gauge("solver.final_gap").set(beta_low_ - beta_up_);
  metrics_.gauge("solver.active_at_end").set(static_cast<double>(active_.size()));
  metrics_.gauge("solver.min_active").set(static_cast<double>(stats_.min_active));
  metrics_.counter("solver.converged").set(stats_.converged ? 1 : 0);
  stats_.kernel_evaluations = kernel_.evaluations();
}

RankResult DistributedSolver::solve() {
  svmobs::TraceSpan span("solve", "solver");
  svmutil::Timer total;
  const double two_eps = 2.0 * config_.params.eps;
  const bool shrinking = config_.heuristic.shrinking_enabled();
  if (!restored_) delta_counter_ = config_.heuristic.initial_threshold(data_.size());

  // Both classes must be present globally or no violating pair exists.
  std::int64_t class_counts[2] = {0, 0};
  for (std::size_t i = 0; i < range_.size(); ++i)
    ++class_counts[data_.y[range_.begin + i] > 0.0 ? 0 : 1];
  const std::vector<std::int64_t> totals =
      comm_.allreduce(std::span<const std::int64_t>(class_counts, 2), svmmpi::ReduceOp::sum);
  if (totals[0] == 0 || totals[1] == 0)
    throw std::invalid_argument("DistributedSolver: dataset must contain both classes");

  // When resuming from a checkpoint, completed run_phase calls (index <
  // resume_stage_) are skipped: the restored state already reflects them,
  // and the recorded stage pins where the replay re-enters the driver.
  PhaseExit exit = PhaseExit::converged;
  if (!shrinking) {
    begin_stage(0, 0);
    exit = run_phase(two_eps, /*shrinking=*/false);  // Algorithm 2 (Original)
  } else if (config_.permanent_shrink) {
    // CA-SVM-style ablation: shrink and never repair. Accuracy not guaranteed.
    begin_stage(0, 0);
    exit = run_phase(two_eps, /*shrinking=*/true);
  } else if (!config_.heuristic.multi_reconstruction) {
    // Algorithm 4: single gradient reconstruction.
    if (resume_stage_ == 0) {
      begin_stage(0, 0);
      exit = run_phase(two_eps, /*shrinking=*/true);
      if (exit != PhaseExit::iteration_cap) {
        reconstruct_gradients();
        if (beta_up_ + two_eps < beta_low_) {
          delta_counter_ = ~0ULL;  // "should not shrink samples again" (line 32)
          begin_stage(1, 0);
          exit = run_phase(two_eps, /*shrinking=*/false);
        }
      }
    } else {
      // Resuming inside the post-reconstruction sweep (delta_counter_ was
      // restored as "never shrink again").
      begin_stage(1, 0);
      exit = run_phase(two_eps, /*shrinking=*/false);
    }
  } else {
    // Algorithm 5: first converge loosely (20*eps), then alternate
    // reconstruction and tight phases until reconstruction confirms 2*eps.
    std::uint32_t stage = resume_stage_;
    int consecutive_stalls = static_cast<int>(resume_stalls_);
    if (stage == 0) {
      begin_stage(0, 0);
      exit = run_phase(20.0 * config_.params.eps, /*shrinking=*/true);
      consecutive_stalls = exit == PhaseExit::stalled ? 1 : 0;
      stage = 1;
    } else {
      // Resuming inside tight phase `stage`; its preceding reconstruction
      // completed before the checkpoint was taken.
      begin_stage(stage, static_cast<std::uint32_t>(consecutive_stalls));
      exit = run_phase(two_eps, /*shrinking=*/true);
      consecutive_stalls = exit == PhaseExit::stalled ? consecutive_stalls + 1 : 0;
      ++stage;
    }
    while (exit != PhaseExit::iteration_cap && consecutive_stalls < 2) {
      reconstruct_gradients();
      if (beta_up_ + two_eps >= beta_low_) break;
      begin_stage(stage, static_cast<std::uint32_t>(consecutive_stalls));
      exit = run_phase(two_eps, /*shrinking=*/true);
      consecutive_stalls = exit == PhaseExit::stalled ? consecutive_stalls + 1 : 0;
      ++stage;
    }
  }

  stats_.converged = exit != PhaseExit::iteration_cap;

  // Hyperplane threshold over global I0 (Section III).
  double local_sum = 0.0;
  std::int64_t local_count = 0;
  for (std::size_t i = 0; i < range_.size(); ++i) {
    const std::size_t g = range_.begin + i;
    if (classify(data_.y[g], alpha_[i], config_.params.C_of(data_.y[g])) == IndexSet::I0) {
      local_sum += gamma_[i];
      ++local_count;
    }
  }
  const double global_sum = comm_.allreduce(local_sum, svmmpi::ReduceOp::sum);
  const std::int64_t global_count = comm_.allreduce(local_count, svmmpi::ReduceOp::sum);
  const double beta = global_count > 0 ? global_sum / static_cast<double>(global_count)
                                       : 0.5 * (beta_low_ + beta_up_);

  stats_.solve_seconds = total.seconds();
  metrics_.gauge("solver.solve_s").set(stats_.solve_seconds);
  snapshot_stats();

  RankResult result;
  result.range = range_;
  result.alpha = alpha_;
  result.beta = beta;
  result.stats = stats_;
  result.metrics = metrics_;
  return result;
}

}  // namespace svmcore
