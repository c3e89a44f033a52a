#include "core/trainer.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "mpisim/spmd.hpp"
#include "obs/trace.hpp"
#include "solver/pbm_solver.hpp"
#include "util/timer.hpp"

namespace svmcore {

SvmModel build_model(const svmdata::Dataset& dataset, std::span<const double> alpha, double beta,
                     const svmkernel::KernelParams& kernel) {
  svmdata::CsrMatrix support_vectors;
  std::vector<double> coefficients;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (alpha[i] > 0.0) {
      support_vectors.add_row(dataset.X.row(i));
      coefficients.push_back(alpha[i] * dataset.y[i]);
    }
  }
  return SvmModel(kernel, std::move(support_vectors), std::move(coefficients), beta);
}

void finish_result(const svmdata::Dataset& dataset, const SolverParams& params,
                   const std::vector<RankResult>& results, TrainResult& out) {
  const RankResult* first = nullptr;
  for (const RankResult& r : results)
    if (!r.alpha.empty()) {
      first = &r;
      break;
    }
  if (first == nullptr) throw std::logic_error("train: no rank produced a result");

  // Stitch the block alphas back into one global vector for model assembly.
  std::vector<double> alpha(dataset.size(), 0.0);
  for (const RankResult& r : results)
    for (std::size_t i = 0; i < r.alpha.size(); ++i) alpha[r.range.begin + i] = r.alpha[i];

  out.beta = first->beta;
  out.iterations = first->stats.iterations;
  out.converged = first->stats.converged;
  out.rank_stats.reserve(results.size());
  for (std::size_t r = 0; r < results.size(); ++r) {
    const SolverStats& s = results[r].stats;
    out.rank_stats.push_back(s);
    out.total_kernel_evaluations += s.kernel_evaluations;
    out.max_rank_kernel_evaluations =
        std::max(out.max_rank_kernel_evaluations, s.kernel_evaluations);
    out.samples_shrunk += s.samples_shrunk;
    out.solve_seconds = std::max(out.solve_seconds, s.solve_seconds);
  }
  out.reconstructions = first->stats.reconstructions;
  out.active_trace = first->stats.active_trace;

  // Per-rank metric registries: the solver's registry completed with the
  // rank's communication traffic, then folded into the cross-rank aggregate.
  out.rank_metrics.reserve(results.size());
  for (std::size_t r = 0; r < results.size(); ++r) {
    svmobs::MetricsRegistry m = results[r].metrics;
    if (r < out.rank_traffic.size()) {
      const svmmpi::TrafficStats& t = out.rank_traffic[r];
      m.counter("net.sends").set(t.sends);
      m.counter("net.recvs").set(t.recvs);
      m.counter("net.bytes_sent").set(t.bytes_sent);
      m.counter("net.bytes_received").set(t.bytes_received);
      m.counter("net.collectives").set(t.collectives);
      m.counter("net.bytes_collective").set(t.bytes_collective);
      m.gauge("net.modeled_s").set(t.modeled_seconds);
      m.gauge("net.overlapped_s").set(t.overlapped_seconds);
    }
    out.rank_metrics.push_back(std::move(m));
  }
  out.metrics = svmobs::MetricsRegistry();
  for (const svmobs::MetricsRegistry& m : out.rank_metrics) out.metrics.aggregate_from(m);
  out.engine_bytes_streamed =
      static_cast<std::uint64_t>(out.metrics.value("engine.bytes_streamed"));

  // Modeled time on the paper's testbed: per-rank kernel work (lambda per
  // evaluation) plus the rank's modeled network time; take the slowest rank.
  constexpr double kLambdaSeconds = 50e-9;  // ~50ns per sparse kernel eval
  for (std::size_t r = 0; r < results.size(); ++r) {
    double modeled = static_cast<double>(results[r].stats.kernel_evaluations) * kLambdaSeconds;
    if (r < out.rank_traffic.size()) modeled += out.rank_traffic[r].modeled_seconds;
    out.modeled_seconds = std::max(out.modeled_seconds, modeled);
  }

  // Provenance: the kernel paths the rank engines resolved to, mirrored into
  // run reports and (when tracing) the trace timeline. Ranks whose blocks
  // straddle kPanelDensity can differ ("dense_scatter+simd"). Labels are
  // string literals — the trace recorder keeps pointers, not copies.
  out.engine_backend.clear();
  for (const svmkernel::EngineBackend path :
       {svmkernel::EngineBackend::reference, svmkernel::EngineBackend::dense_scatter,
        svmkernel::EngineBackend::simd}) {
    if (std::none_of(results.begin(), results.end(), [&](const RankResult& r) {
          return !r.alpha.empty() && r.stats.engine_backend == path;
        }))
      continue;
    out.engine_backend += (out.engine_backend.empty() ? "" : "+") + svmkernel::to_string(path);
    svmobs::trace_instant(svmkernel::trace_label(path), "meta");
  }
  out.solver_algo = to_string(params.algo);

  out.model = build_model(dataset, alpha, out.beta, params.kernel);
  out.alpha = std::move(alpha);
}

namespace {

void validate_train_inputs(const svmdata::Dataset& dataset, const TrainOptions& options) {
  if (options.num_ranks <= 0) throw std::invalid_argument("train: num_ranks must be positive");
  if (static_cast<std::size_t>(options.num_ranks) > dataset.size())
    throw std::invalid_argument("train: more ranks than samples");
  dataset.validate();
}

/// Solver dispatch on SolverParams::algo. Runs inside the SPMD lambda, so
/// both entry points (plain and elastic) pick the algorithm per launch with
/// the same configuration object.
void run_solver(svmmpi::Comm& comm, const svmdata::Dataset& dataset,
                const DistributedConfig& config, RankResult& out) {
  if (config.params.algo == SolverAlgo::pbm) {
    PbmSolver solver(comm, dataset, config);
    out = solver.solve();
  } else {
    DistributedSolver solver(comm, dataset, config);
    out = solver.solve();
  }
}

/// Shared SPMD launch + result assembly used by both entry points. `config`
/// carries the optional checkpoint wiring and `injector` the optional fault
/// schedule; both may be null/disabled for a plain run.
TrainResult train_impl(const svmdata::Dataset& dataset, const TrainOptions& options,
                       const DistributedConfig& config, svmmpi::FaultInjector* injector) {
  validate_train_inputs(dataset, options);

  std::vector<RankResult> results(options.num_ranks);

  TrainResult out;
  svmutil::Timer wall;
  svmmpi::TrafficStats total = svmmpi::run_spmd(
      options.num_ranks,
      [&](svmmpi::Comm& comm) { run_solver(comm, dataset, config, results[comm.rank()]); },
      options.net_model,
      [&](const svmmpi::World& world) {
        out.rank_traffic.reserve(options.num_ranks);
        for (int r = 0; r < options.num_ranks; ++r) out.rank_traffic.push_back(world.stats(r));
      },
      injector);
  out.wall_seconds = wall.seconds();
  out.traffic = total;
  finish_result(dataset, config.params, results, out);
  return out;
}

/// Thrown by every survivor when an elastic attempt escalates, to tear the
/// region down so the caller can relaunch the full world instead.
struct EscalateToRestart : std::runtime_error {
  explicit EscalateToRestart(const std::string& cause)
      : std::runtime_error("elastic recovery: escalating to a full restart after: " + cause) {}
};

/// Elastic shrink-world training: one SPMD region whose ranks run one
/// ElasticAttempt, so it survives permanent rank losses in-world.
TrainResult train_elastic(const svmdata::Dataset& dataset, const TrainOptions& options,
                          const DistributedConfig& config, svmmpi::FaultInjector* injector,
                          const RecoveryOptions& recovery, RecoveryReport& rep) {
  validate_train_inputs(dataset, options);

  std::vector<RankResult> results(options.num_ranks);
  ElasticOptions elastic_options;
  elastic_options.policy = recovery.policy;
  elastic_options.max_shrinks = recovery.max_shrinks;
  ElasticAttempt attempt(std::move(elastic_options), rep);

  TrainResult out;
  svmutil::Timer wall;
  svmmpi::ElasticReport elastic = svmmpi::run_spmd_elastic(
      options.num_ranks,
      [&](svmmpi::Comm& comm) { results[comm.rank()] = attempt.solve(comm, dataset, config); },
      options.net_model,
      [&](const svmmpi::World& world) {
        out.rank_traffic.reserve(options.num_ranks);
        for (int r = 0; r < options.num_ranks; ++r) out.rank_traffic.push_back(world.stats(r));
      },
      injector);
  out.wall_seconds = wall.seconds();
  out.traffic = elastic.stats;
  rep.checkpoints_saved += attempt.checkpoints_saved();
  finish_result(dataset, config.params, results, out);
  return out;
}

void maybe_write_metrics(const TrainResult& result, const TrainOptions& options) {
  if (options.metrics_path.empty()) return;
  svmobs::write_reports(options.metrics_path, {run_report(result, options)});
}

}  // namespace

DistributedConfig solver_config(const SolverParams& params, const TrainOptions& options,
                                std::uint64_t checkpoint_interval, CheckpointStore* store) {
  DistributedConfig config{.params = params,
                           .heuristic = options.heuristic,
                           .permanent_shrink = options.permanent_shrink,
                           .trace_active_interval = options.trace_active_interval};
  config.checkpoint_interval = checkpoint_interval;
  if (checkpoint_interval > 0) config.checkpoint_store = store;
  if (config.params.algo == SolverAlgo::pbm) {
    if (config.params.pbm_blocks == 0) config.params.pbm_blocks = options.num_ranks;
    if (config.params.pbm_blocks < options.num_ranks)
      throw std::invalid_argument("train: pbm_blocks must be >= num_ranks");
  }
  return config;
}

ElasticAttempt::ElasticAttempt(ElasticOptions options, RecoveryReport& report)
    : options_(std::move(options)), report_(report) {}

RankResult ElasticAttempt::solve(svmmpi::Comm comm, const svmdata::Dataset& dataset,
                                 const DistributedConfig& config) {
  DistributedConfig cfg = config;
  for (std::size_t generation = 0;; ++generation) {
    try {
      RankResult out;
      run_solver(comm, dataset, cfg, out);
      return out;
    } catch (const svmmpi::RankLost& lost) {
      svmmpi::Comm next = comm.shrink(options_.context_salt + generation + 1);
      if (next.rank() == 0)
        publish(comm, next, lost, generation, cfg.checkpoint_store, dataset.size());
      Generation gen;
      {
        std::unique_lock lock(mutex_);
        published_cv_.wait(lock, [&] { return published_.size() > generation; });
        gen = published_[generation];
      }
      if (gen.escalate) throw EscalateToRestart(lost.what());
      // Marks the start of the next recovery generation on this survivor's
      // trace track.
      svmobs::trace_instant("world_shrink", "fault");
      if (options_.on_shrink) options_.on_shrink(next);
      comm = std::move(next);
      cfg.checkpoint_store = gen.store;
    }
  }
}

void ElasticAttempt::publish(const svmmpi::Comm& old_comm, const svmmpi::Comm& next,
                             const svmmpi::RankLost& lost, std::size_t generation,
                             CheckpointStore* store, std::size_t samples) {
  // Every survivor of the agree reaches this same generation, so this new
  // leader's publish slot is unique.
  const std::vector<int> dead = old_comm.dead_members();
  std::lock_guard lock(mutex_);
  for (const int world_rank : dead)
    if (std::find(report_.ranks_lost.begin(), report_.ranks_lost.end(), world_rank) ==
        report_.ranks_lost.end())
      report_.ranks_lost.push_back(world_rank);
  report_.failures.push_back(lost.what());

  const bool budget_spent =
      options_.policy == RecoveryPolicy::restart_world ||
      (options_.max_shrinks >= 0 && generation >= static_cast<std::size_t>(options_.max_shrinks));
  // The dead ranks' process memory is gone whatever happens next: erase
  // their primary copies (and the buddy replicas they held), so neither a
  // shrink nor an escalated full-world restart can read them.
  if (store != nullptr)
    for (const int world_rank : dead) {
      const int old_rank = old_comm.comm_rank_of_world(world_rank);
      if (old_rank >= 0) store->mark_rank_lost(old_rank);
    }
  Generation gen;
  std::optional<std::uint64_t> epoch;
  if (!budget_spent && store != nullptr) {
    // Reach the newest consistent cut through the surviving replicas.
    auto fresh = std::make_unique<CheckpointStore>(next.size());
    epoch = repartition_from_checkpoints(*store, samples, *fresh);
    if (epoch) (void)fresh->begin_restart();
    gen.store = fresh.get();
    chain_.push_back(std::move(fresh));
  }
  // No reachable cut (checkpointing off included): shrink_world resumes the
  // shrunken world from scratch, shrink_then_restart escalates.
  gen.escalate =
      budget_spent || (!epoch && options_.policy == RecoveryPolicy::shrink_then_restart);
  if (!gen.escalate) {
    ++report_.shrinks;
    report_.restore_epochs.push_back(epoch.value_or(0));
  }
  published_.push_back(gen);
  published_cv_.notify_all();
}

std::uint64_t ElasticAttempt::checkpoints_saved() const {
  std::uint64_t saved = 0;
  for (const auto& store : chain_) saved += store->saves();
  return saved;
}

svmobs::RunReport run_report(const TrainResult& result, const TrainOptions& options,
                             std::string name) {
  svmobs::RunReport report;
  report.name = std::move(name);
  report.info.emplace_back("ranks", std::to_string(options.num_ranks));
  report.info.emplace_back("heuristic", options.heuristic.name());
  report.info.emplace_back("iterations", std::to_string(result.iterations));
  report.info.emplace_back("support_vectors", std::to_string(result.num_support_vectors()));
  report.info.emplace_back("converged", result.converged ? "true" : "false");
  if (!result.engine_backend.empty())
    report.info.emplace_back("engine_backend", result.engine_backend);
  if (!result.solver_algo.empty()) report.info.emplace_back("solver", result.solver_algo);
  report.ranks = result.rank_metrics;
  report.aggregate = result.metrics;
  report.aggregate.gauge("wall_s").set(result.wall_seconds);
  report.aggregate.gauge("modeled_s").set(result.modeled_seconds);
  return report;
}

TrainResult train(const svmdata::Dataset& dataset, const SolverParams& params,
                  const TrainOptions& options) {
  const DistributedConfig config = solver_config(params, options);
  svmobs::TraceSession trace(options.trace_path);
  TrainResult out = train_impl(dataset, options, config, /*injector=*/nullptr);
  maybe_write_metrics(out, options);
  return out;
}

TrainResult train_with_recovery(const svmdata::Dataset& dataset, const SolverParams& params,
                                const TrainOptions& options, const RecoveryOptions& recovery,
                                RecoveryReport* report) {
  if (recovery.max_restarts < 0)
    throw std::invalid_argument("train_with_recovery: max_restarts must be non-negative");
  if (recovery.policy != RecoveryPolicy::restart_world && options.net_model.timeout_s <= 0.0)
    throw std::invalid_argument(
        "train_with_recovery: shrink policies need net_model.timeout_s > 0 (deadline-driven "
        "failure detection)");

  // One injector across all attempts: a fault already fired stays consumed,
  // so a crash event kills exactly one launch instead of every retry.
  svmmpi::FaultInjector injector(recovery.fault_plan);
  std::optional<CheckpointStore> owned_store;
  CheckpointStore* store = recovery.store;
  if (store == nullptr) {
    owned_store.emplace(options.num_ranks);
    store = &*owned_store;
  } else if (store->num_ranks() != options.num_ranks) {
    throw std::invalid_argument("train_with_recovery: store num_ranks mismatch");
  }

  const DistributedConfig config =
      solver_config(params, options, recovery.checkpoint_interval, store);

  RecoveryReport local_report;
  RecoveryReport& rep = report != nullptr ? *report : local_report;
  rep = RecoveryReport{};

  // One trace session across every attempt, so restarts and recovery
  // generations land on one timeline (marked by the instants below).
  svmobs::TraceSession trace(options.trace_path);

  // The elastic policies recover in-world; the driver loop only sees their
  // unrecoverable outcomes (escalation, unexplained timeout) and relaunches
  // the FULL world — by then any permanent losses are already modeled in the
  // store, so a memory-only store restarts from whatever is still reachable
  // by a cold process (nothing), and a file-backed one from its disk spills.
  for (int attempt = 0;; ++attempt) {
    try {
      ++rep.attempts;
      TrainResult out =
          recovery.policy == RecoveryPolicy::restart_world
              ? train_impl(dataset, options, config, &injector)
              : train_elastic(dataset, options, config, &injector, recovery, rep);
      rep.checkpoints_saved += store->saves();
      for (const std::uint64_t epoch : rep.restore_epochs)
        rep.iterations_replayed += out.iterations - std::min(epoch, out.iterations);
      maybe_write_metrics(out, options);
      return out;
    } catch (const svmmpi::RankFailed& failure) {
      rep.failures.push_back(failure.what());
      if (failure.permanent) {
        // Permanent loss under restart_world: the rank's process memory is
        // gone. Its disk spills (if any) survive; its in-memory checkpoints
        // and the buddy replicas it held do not.
        if (std::find(rep.ranks_lost.begin(), rep.ranks_lost.end(), failure.rank) ==
            rep.ranks_lost.end())
          rep.ranks_lost.push_back(failure.rank);
        if (config.checkpoint_store != nullptr) store->mark_rank_lost(failure.rank);
      }
      if (attempt == recovery.max_restarts) throw;
    } catch (const svmmpi::TimeoutError& failure) {
      rep.failures.push_back(failure.what());
      if (attempt == recovery.max_restarts) throw;
    } catch (const EscalateToRestart& escalation) {
      rep.failures.push_back(escalation.what());
      if (attempt == recovery.max_restarts)
        throw std::runtime_error(std::string("train_with_recovery: out of restarts after: ") +
                                 escalation.what());
    }
    // Pin the newest consistent cut (single-threaded: the failed world has
    // been fully joined by the launcher before its exception reached us).
    const std::optional<std::uint64_t> epoch =
        config.checkpoint_store != nullptr ? store->begin_restart() : std::nullopt;
    rep.restore_epochs.push_back(epoch.value_or(0));
    ++rep.restarts;
    svmobs::trace_instant("world_restart", "fault");
  }
}

}  // namespace svmcore
