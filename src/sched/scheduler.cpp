#include "sched/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "mpisim/spmd.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace svmsched {

namespace {

constexpr int kNoContext = -1;

/// State shared by one dispatched attempt's gang members and the
/// dispatcher's watchdog.
struct AttemptShared {
  AttemptShared(std::uint64_t attempt_uid, std::vector<int> gang, svmcore::RecoveryPolicy policy)
      : uid(attempt_uid),
        members(std::move(gang)),
        store(std::make_unique<svmcore::CheckpointStore>(static_cast<int>(members.size()))),
        results(members.size()),
        elastic(elastic_options(policy), recovery) {}

  std::uint64_t uid = 0;           ///< unique per dispatch, 1-based
  std::vector<int> members;        ///< sorted world ranks of the gang
  int initial_context = kNoContext;

  /// Watchdog target: the gang's LIVE communicator context. The survivors of
  /// each in-job shrink retarget it so a cancel always reaches the context
  /// they are actually blocked on.
  std::atomic<int> live_context{kNoContext};

  std::unique_ptr<svmcore::CheckpointStore> store;  ///< generation 0
  /// One result per member, by gang index; each member writes only its own
  /// slot, before it reports. A member lost to a shrink leaves its slot empty.
  std::vector<svmcore::RankResult> results;
  /// Shrinks and ranks lost, written by the shrink leaders; the dispatcher
  /// reads it only at finalization, after every member has reported.
  svmcore::RecoveryReport recovery;
  svmcore::ElasticAttempt elastic;

 private:
  [[nodiscard]] svmcore::ElasticOptions elastic_options(svmcore::RecoveryPolicy policy) {
    svmcore::ElasticOptions options;
    options.policy = policy;
    // uid is unique per dispatch and generations are small, so no two
    // (attempt, generation) pairs — across all jobs and tenants — share a
    // shrink-derived context: the survivors' fresh context can never be one
    // another tenant abandoned mid-collective.
    options.context_salt = uid << 16;
    options.on_shrink = [this](const svmmpi::Comm& next) {
      live_context.store(next.context_id());
      svmobs::trace_instant("job_shrink", "sched");
    };
    return options;
  }
};

struct Directive {
  enum class Kind : std::uint8_t { run, exit };
  Kind kind = Kind::exit;
  int job = -1;
  std::shared_ptr<AttemptShared> shared;
};

/// One gang member's verdict on its attempt, reported to the dispatcher.
struct MemberReport {
  enum class Kind : std::uint8_t {
    success,    ///< solve completed; the result is in the attempt's slot
    died,       ///< this member hit a PERMANENT RankFailed; rank is gone
    cancelled,  ///< unwound by context cancellation (watchdog / fast-fail)
    /// anything else: a TRANSIENT RankFailed (the rank relaunches into the
    /// pool), an escalation, a timeout, a job the solver rejects
    failed,
  };
  std::uint64_t attempt = 0;
  int job = -1;
  int world_rank = -1;
  Kind kind = Kind::failed;
  std::string error;
};

/// Pool plumbing between the dispatcher thread and the rank threads.
struct Pool {
  std::mutex mutex;
  std::condition_variable worker_cv;      ///< workers wait for directives
  std::condition_variable dispatcher_cv;  ///< dispatcher waits for reports
  svmmpi::World* world = nullptr;         ///< published by rank 0's thread
  /// Rank threads whose body has not returned yet. The World lives on
  /// run_spmd_elastic's stack and is destroyed once every rank thread
  /// joins, so the dispatcher may touch `world` ONLY while holding `mutex`
  /// with alive > 0: a worker's exit decrements alive under this mutex, so
  /// alive > 0 under the lock proves some body is still running, the
  /// launcher is still blocked joining it, and the World is still alive —
  /// and stays alive until the lock is released.
  int alive = 0;
  std::vector<std::deque<Directive>> inbox;  ///< per world rank
  std::deque<MemberReport> reports;
};

/// Runs one attempt on this gang member: split off the job communicator and
/// run the job's elastic solve (shrinking in-job on permanent losses per the
/// job's policy), handing the result to the attempt. RankFailed propagates
/// to the caller — the worker loop translates it (failed/died) and, for
/// permanent deaths, rethrows so the elastic launcher marks the world rank
/// dead. Any other error fails the attempt on this member.
[[nodiscard]] MemberReport run_member(svmmpi::Comm& world_comm, const Directive& directive,
                                      const JobSpec& spec) {
  AttemptShared& at = *directive.shared;
  MemberReport out;
  out.attempt = at.uid;
  out.job = directive.job;
  out.world_rank = world_comm.rank();

  svmobs::TraceSpan span("job", "sched");
  try {
    const svmmpi::Comm comm = world_comm.split_subset(at.members, at.initial_context);
    svmcore::TrainOptions gang;
    gang.heuristic = spec.heuristic;
    gang.num_ranks = comm.size();
    const svmcore::DistributedConfig config =
        svmcore::solver_config(spec.params, gang, spec.checkpoint_interval, at.store.get());
    at.results[static_cast<std::size_t>(comm.rank())] =
        at.elastic.solve(comm, *spec.dataset, config);
    out.kind = MemberReport::Kind::success;
  } catch (const svmmpi::RankFailed&) {
    throw;
  } catch (const svmmpi::ContextCancelled& cancelled) {
    out.kind = MemberReport::Kind::cancelled;
    out.error = cancelled.what();
  } catch (const std::exception& e) {
    // Escalation, an unexplained stall, or a job its solver rejects: give
    // the rank back and let the dispatcher's retry budget decide the job.
    out.kind = MemberReport::Kind::failed;
    out.error = e.what();
  }
  return out;
}

/// Everything the dispatcher decides, kept off the pool mutex (the
/// dispatcher is the only writer; workers never touch it).
class Dispatcher {
 public:
  Dispatcher(std::vector<JobRecord>& records, const SchedulerOptions& options, Pool& pool)
      : records_(records), options_(options), pool_(pool) {}

  double makespan_s = 0.0;
  int timeouts = 0;

  void run() {
    {
      std::unique_lock lock(pool_.mutex);
      pool_.dispatcher_cv.wait(lock, [&] { return pool_.world != nullptr; });
      world_ = pool_.world;
    }
    free_.resize(static_cast<std::size_t>(options_.pool_ranks));
    std::iota(free_.begin(), free_.end(), 0);
    arrival_order_.resize(records_.size());
    std::iota(arrival_order_.begin(), arrival_order_.end(), 0);
    std::stable_sort(arrival_order_.begin(), arrival_order_.end(), [&](int a, int b) {
      return records_[a].spec.arrival_s < records_[b].spec.arrival_s;
    });
    admit_time_.assign(records_.size(), 0.0);
    eligible_at_.assign(records_.size(), 0.0);

    const auto tick = std::chrono::duration<double>(options_.watchdog_tick_s);
    for (;;) {
      std::deque<MemberReport> drained;
      {
        std::unique_lock lock(pool_.mutex);
        pool_.dispatcher_cv.wait_for(lock, tick, [&] { return !pool_.reports.empty(); });
        drained.swap(pool_.reports);
      }
      const double now = clock_.seconds();
      process_arrivals(now);
      for (MemberReport& report : drained) process_report(std::move(report), now);
      run_watchdog(now);
      bool aborted = false;
      if (!with_world([&](svmmpi::World& world) { aborted = world.aborted(); })) {
        abandon("scheduler pool died (all rank threads exited)");
        return;  // no shutdown: there is nobody left to receive it
      }
      if (aborted) {
        abandon("scheduler pool aborted");
        break;
      }
      if (live_ranks() == 0) {
        abandon("every pool rank was permanently lost");
        break;
      }
      schedule(now);
      if (all_terminal() && running_.empty()) break;
    }
    makespan_s = clock_.seconds();
    shutdown();
  }

 private:
  struct RunningAttempt {
    int job = -1;
    std::shared_ptr<AttemptShared> shared;
    double started_s = 0.0;
    bool cancelled = false;            ///< a cancel was issued for this attempt
    bool watchdog_fired = false;       ///< ... because the deadline expired
    int cancelled_context = kNoContext;  ///< context the cancel targeted
    std::set<int> waiting;             ///< members that have not reported yet
    bool solved = false;               ///< some member finished its solve
    bool failed = false;               ///< some member failed or was cancelled
    std::string error;                 ///< first failure description seen
  };

  [[nodiscard]] int live_ranks() const {
    return options_.pool_ranks - static_cast<int>(dead_.size());
  }

  /// World lease (see Pool::alive): runs `f(world)` under the pool mutex
  /// iff some rank thread is still alive — which pins the World. Returns
  /// false (f not run) once the pool is gone.
  template <typename F>
  [[nodiscard]] bool with_world(F&& f) {
    std::lock_guard lock(pool_.mutex);
    if (pool_.alive == 0) return false;
    f(*world_);
    return true;
  }

  [[nodiscard]] bool all_terminal() const {
    if (next_arrival_ < arrival_order_.size()) return false;
    if (!queue_.empty()) return false;
    for (const JobRecord& rec : records_)
      if (rec.state == JobState::queued || rec.state == JobState::running) return false;
    return true;
  }

  void process_arrivals(double now) {
    while (next_arrival_ < arrival_order_.size() &&
           records_[arrival_order_[next_arrival_]].spec.arrival_s <= now) {
      const int job = arrival_order_[next_arrival_++];
      JobRecord& rec = records_[job];
      if (static_cast<int>(queue_.size()) >= options_.queue_capacity) {
        rec.state = JobState::rejected;
        rec.error = "admission queue full";
        svmobs::trace_instant("job_reject", "sched");
      } else {
        rec.state = JobState::queued;
        admit_time_[job] = now;
        queue_.push_back(job);
        svmobs::trace_instant("job_admit", "sched");
      }
    }
    svmobs::trace_counter("sched_queue_depth", static_cast<double>(queue_.size()));
  }

  void process_report(MemberReport report, double now) {
    const auto it = running_.find(report.attempt);
    if (it == running_.end()) return;  // stale report of an abandoned run
    RunningAttempt& attempt = it->second;
    attempt.waiting.erase(report.world_rank);
    if (attempt.error.empty() && !report.error.empty()) attempt.error = report.error;
    switch (report.kind) {
      case MemberReport::Kind::success:
        attempt.solved = true;
        release_rank(report.world_rank);
        break;
      case MemberReport::Kind::failed:
        // The rank is free again (a transient crash's process relaunches
        // into the pool). Fast-fail the blocked siblings so the gang drains
        // promptly instead of waiting out the network deadline.
        attempt.failed = true;
        release_rank(report.world_rank);
        cancel_attempt(attempt, /*watchdog=*/false);
        break;
      case MemberReport::Kind::died:
        dead_.insert(report.world_rank);
        break;
      case MemberReport::Kind::cancelled:
        attempt.failed = true;
        release_rank(report.world_rank);
        break;
    }
    if (attempt.waiting.empty()) finalize(it->first, now);
  }

  void cancel_attempt(RunningAttempt& attempt, bool watchdog) {
    const int target = attempt.shared->live_context.load();
    if (attempt.cancelled && attempt.cancelled_context == target) return;
    attempt.cancelled = true;
    attempt.watchdog_fired = attempt.watchdog_fired || watchdog;
    attempt.cancelled_context = target;
    (void)with_world([&](svmmpi::World& world) { world.cancel_context(target); });
  }

  void run_watchdog(double now) {
    for (auto& [uid, attempt] : running_) {
      const double deadline = records_[attempt.job].spec.timeout_s;
      if (deadline > 0.0 && now - attempt.started_s > deadline) {
        // cancel_attempt re-fires when a concurrent in-job shrink retargeted
        // live_context after the first cancel — the survivors moved to a
        // fresh context the original cancel never reached.
        if (!attempt.cancelled) svmobs::trace_instant("job_timeout", "sched");
        cancel_attempt(attempt, /*watchdog=*/true);
      }
    }
  }

  void finalize(std::uint64_t uid, double now) {
    const auto it = running_.find(uid);
    RunningAttempt attempt = std::move(it->second);
    running_.erase(it);
    JobRecord& rec = records_[attempt.job];
    const AttemptShared& at = *attempt.shared;
    rec.shrinks += at.recovery.shrinks;
    for (const int lost : at.recovery.ranks_lost)
      if (std::find(rec.ranks_lost.begin(), rec.ranks_lost.end(), lost) == rec.ranks_lost.end())
        rec.ranks_lost.push_back(lost);
    const double gang = static_cast<double>(at.members.size());
    tenant_usage_[rec.spec.tenant] += gang * (now - attempt.started_s);
    if (attempt.solved && !attempt.failed) {
      // The trainer's assembly: the same stitch train() runs, so a job's
      // model is bit-identical to train()'s at its starting gang size.
      svmcore::TrainResult result;
      svmcore::finish_result(*rec.spec.dataset, rec.spec.params, at.results, result);
      rec.model = std::move(result.model);
      rec.beta = result.beta;
      rec.iterations = result.iterations;
      rec.converged = result.converged;
      rec.gang_size = static_cast<int>(at.members.size());
      rec.state = JobState::completed;
      rec.latency_s = now - admit_time_[attempt.job];
      svmobs::trace_instant("job_complete", "sched");
      return;
    }
    if (!attempt.error.empty()) rec.error = attempt.error;
    if (attempt.watchdog_fired) {
      ++rec.timeouts;
      ++timeouts;
    }
    if (rec.attempts > rec.spec.max_retries) {
      rec.state = JobState::lost;
      rec.latency_s = now - admit_time_[attempt.job];
      svmobs::trace_instant("job_lost", "sched");
      return;
    }
    // Requeue with capped exponential backoff; bypasses the admission bound
    // (the job was already accepted).
    rec.state = JobState::queued;
    ++rec.requeues;
    double backoff = 0.0;
    if (options_.backoff_base_s > 0.0)
      backoff = std::min(options_.backoff_base_s * std::ldexp(1.0, rec.requeues - 1),
                         options_.backoff_cap_s);
    rec.backoff_s += backoff;
    eligible_at_[attempt.job] = now + backoff;
    queue_.push_back(attempt.job);
    svmobs::trace_instant("job_requeue", "sched");
  }

  void release_rank(int world_rank) {
    if (dead_.count(world_rank) != 0) return;
    const auto it = std::lower_bound(free_.begin(), free_.end(), world_rank);
    if (it == free_.end() || *it != world_rank) free_.insert(it, world_rank);
  }

  /// Dispatch order: priority desc, then tenant fair-share (lowest accrued
  /// rank-seconds first), then submit order. Smaller jobs may backfill past
  /// a queued job that does not fit yet.
  void schedule(double now) {
    for (;;) {
      if (free_.empty() || queue_.empty()) break;
      int best = -1;
      std::size_t best_pos = 0;
      for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
        const int job = queue_[pos];
        if (eligible_at_[job] > now) continue;
        if (gang_size_for(job) > static_cast<int>(free_.size())) continue;
        if (best < 0 || dispatches_before(job, best)) {
          best = job;
          best_pos = pos;
        }
      }
      if (best < 0) break;
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best_pos));
      if (!dispatch(best, now)) {
        queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(best_pos), best);
        break;  // pool gone; the main loop abandons on its next pass
      }
    }
    svmobs::trace_counter("sched_free_ranks", static_cast<double>(free_.size()));
    svmobs::trace_counter("sched_running_jobs", static_cast<double>(running_.size()));
  }

  [[nodiscard]] bool dispatches_before(int a, int b) {
    const JobSpec& sa = records_[a].spec;
    const JobSpec& sb = records_[b].spec;
    if (sa.priority != sb.priority) return sa.priority > sb.priority;
    const double ua = tenant_usage_[sa.tenant];
    const double ub = tenant_usage_[sb.tenant];
    if (ua != ub) return ua < ub;
    return a < b;
  }

  /// Requested gang size, degraded only when the request exceeds the whole
  /// live pool (a shrunken pool still runs every job, just smaller).
  [[nodiscard]] int gang_size_for(int job) const {
    const int want = records_[job].spec.ranks;
    return std::min(want, live_ranks());
  }

  [[nodiscard]] bool dispatch(int job, double now) {
    JobRecord& rec = records_[job];
    const int gang = gang_size_for(job);
    auto shared = std::make_shared<AttemptShared>(
        ++attempt_counter_, std::vector<int>(free_.begin(), free_.begin() + gang), rec.spec.policy);
    {
      // One locked section: context creation needs the world lease, and
      // pushing the directives under the same hold means no member can see
      // a half-built attempt.
      std::lock_guard lock(pool_.mutex);
      if (pool_.alive == 0) return false;
      shared->initial_context = world_->create_context(gang);
      shared->live_context.store(shared->initial_context);
      for (const int member : shared->members) {
        Directive directive;
        directive.kind = Directive::Kind::run;
        directive.job = job;
        directive.shared = shared;
        pool_.inbox[static_cast<std::size_t>(member)].push_back(std::move(directive));
      }
      pool_.worker_cv.notify_all();
    }
    free_.erase(free_.begin(), free_.begin() + gang);

    RunningAttempt attempt;
    attempt.job = job;
    attempt.shared = shared;
    attempt.started_s = now;
    attempt.waiting.insert(shared->members.begin(), shared->members.end());
    running_.emplace(shared->uid, std::move(attempt));

    if (rec.attempts == 0) rec.queue_wait_s = now - admit_time_[job];
    ++rec.attempts;
    rec.state = JobState::running;
    svmobs::trace_instant("job_dispatch", "sched");
    return true;
  }

  /// Terminal cleanup when the pool can make no further progress (world
  /// aborted, or every rank died): every non-terminal job is marked lost.
  void abandon(const std::string& why) {
    for (JobRecord& rec : records_) {
      if (rec.state == JobState::queued || rec.state == JobState::running) {
        rec.state = JobState::lost;
        rec.error = why;
      }
    }
    // Unarrived jobs never got admitted at all.
    while (next_arrival_ < arrival_order_.size()) {
      JobRecord& rec = records_[arrival_order_[next_arrival_++]];
      rec.state = JobState::lost;
      rec.error = why;
    }
    queue_.clear();
    running_.clear();
  }

  void shutdown() {
    std::lock_guard lock(pool_.mutex);
    for (auto& inbox : pool_.inbox) inbox.push_back(Directive{});
    pool_.worker_cv.notify_all();
  }

  std::vector<JobRecord>& records_;
  const SchedulerOptions& options_;
  Pool& pool_;
  svmmpi::World* world_ = nullptr;
  svmutil::Timer clock_;

  std::vector<int> free_;  ///< sorted free world ranks
  std::set<int> dead_;     ///< permanently lost world ranks
  std::vector<int> arrival_order_;
  std::size_t next_arrival_ = 0;
  std::vector<double> admit_time_;
  std::vector<double> eligible_at_;  ///< retry-backoff gate per job
  std::vector<int> queue_;           ///< admitted jobs waiting for ranks
  std::map<std::uint64_t, RunningAttempt> running_;
  std::map<std::string, double> tenant_usage_;  ///< accrued rank-seconds
  std::uint64_t attempt_counter_ = 0;
};

void validate(const std::vector<JobSpec>& jobs, const SchedulerOptions& options) {
  if (options.pool_ranks <= 0)
    throw std::invalid_argument("run_scheduler: pool_ranks must be positive");
  if (options.queue_capacity <= 0)
    throw std::invalid_argument("run_scheduler: queue_capacity must be positive");
  if (options.net_model.timeout_s <= 0.0)
    throw std::invalid_argument(
        "run_scheduler: net_model.timeout_s must be > 0 (deadline-driven failure detection)");
  if (options.watchdog_tick_s <= 0.0)
    throw std::invalid_argument("run_scheduler: watchdog_tick_s must be positive");
  for (const JobSpec& spec : jobs) {
    if (spec.dataset == nullptr || spec.dataset->size() == 0)
      throw std::invalid_argument("run_scheduler: job without a dataset");
    if (spec.ranks < 1) throw std::invalid_argument("run_scheduler: job needs >= 1 rank");
    if (spec.max_retries < 0)
      throw std::invalid_argument("run_scheduler: max_retries must be non-negative");
  }
}

void fill_report(SchedulerReport& report, double makespan_s, int timeouts,
                 const std::vector<int>& pool_ranks_lost) {
  report.makespan_s = makespan_s;
  report.timeouts = timeouts;
  report.pool_ranks_lost = pool_ranks_lost;
  std::vector<double> latencies;
  std::vector<double> waits;
  for (const JobRecord& rec : report.jobs) {
    switch (rec.state) {
      case JobState::completed:
        ++report.completed;
        latencies.push_back(rec.latency_s);
        waits.push_back(rec.queue_wait_s);
        break;
      case JobState::rejected: ++report.rejected; break;
      case JobState::lost: ++report.lost; break;
      case JobState::queued:
      case JobState::running: break;  // unreachable after run()
    }
    report.requeues += rec.requeues;
    report.shrinks += rec.shrinks;
  }
  report.latency_p50_s = svmutil::percentile(latencies, 50.0);
  report.latency_p99_s = svmutil::percentile(latencies, 99.0);
  report.queue_wait_p50_s = svmutil::percentile(waits, 50.0);

  auto& m = report.metrics;
  m.counter("sched.jobs_submitted").add(static_cast<std::uint64_t>(report.jobs.size()));
  m.counter("sched.jobs_completed").add(static_cast<std::uint64_t>(report.completed));
  m.counter("sched.jobs_rejected").add(static_cast<std::uint64_t>(report.rejected));
  m.counter("sched.jobs_lost").add(static_cast<std::uint64_t>(report.lost));
  m.counter("sched.requeues").add(static_cast<std::uint64_t>(report.requeues));
  m.counter("sched.timeouts").add(static_cast<std::uint64_t>(report.timeouts));
  m.counter("sched.shrinks").add(static_cast<std::uint64_t>(report.shrinks));
  m.counter("sched.ranks_lost").add(static_cast<std::uint64_t>(pool_ranks_lost.size()));
  m.gauge("sched.makespan_s").set(report.makespan_s);
  m.gauge("sched.latency_p50_s").set(report.latency_p50_s);
  m.gauge("sched.latency_p99_s").set(report.latency_p99_s);
  m.gauge("sched.queue_wait_p50_s").set(report.queue_wait_p50_s);
}

void maybe_write_metrics(const SchedulerReport& report, const SchedulerOptions& options) {
  if (options.metrics_path.empty()) return;
  svmobs::RunReport run;
  run.name = "scheduler";
  run.info.emplace_back("pool_ranks", std::to_string(options.pool_ranks));
  run.info.emplace_back("jobs", std::to_string(report.jobs.size()));
  run.info.emplace_back("queue_capacity", std::to_string(options.queue_capacity));
  run.aggregate = report.metrics;
  svmobs::write_reports(options.metrics_path, {run});
}

}  // namespace

SchedulerReport run_scheduler(std::vector<JobSpec> jobs, const SchedulerOptions& options) {
  validate(jobs, options);

  SchedulerReport report;
  report.jobs.reserve(jobs.size());
  for (JobSpec& spec : jobs) {
    JobRecord rec;
    rec.spec = std::move(spec);
    report.jobs.push_back(std::move(rec));
  }

  svmobs::TraceSession trace(options.trace_path);
  svmmpi::FaultInjector injector(options.fault_plan);
  Pool pool;
  pool.alive = options.pool_ranks;
  pool.inbox.resize(static_cast<std::size_t>(options.pool_ranks));

  Dispatcher dispatcher(report.jobs, options, pool);
  std::thread dispatch_thread([&] { dispatcher.run(); });

  svmmpi::ElasticReport elastic;
  try {
    elastic = svmmpi::run_spmd_elastic(
        options.pool_ranks,
        [&](svmmpi::Comm& world_comm) {
          const int me = world_comm.rank();
          // On EVERY exit (normal, death, abort) mark this rank thread gone
          // so the dispatcher's world lease (Pool::alive) stays accurate.
          struct ExitGuard {
            Pool& pool;
            ~ExitGuard() {
              std::lock_guard lock(pool.mutex);
              --pool.alive;
              pool.dispatcher_cv.notify_all();
            }
          } exit_guard{pool};
          if (me == 0) {
            std::lock_guard lock(pool.mutex);
            pool.world = &world_comm.world();
            pool.dispatcher_cv.notify_all();
          }
          for (;;) {
            Directive directive;
            {
              std::unique_lock lock(pool.mutex);
              pool.worker_cv.wait(lock,
                                  [&] { return !pool.inbox[static_cast<std::size_t>(me)].empty(); });
              directive = std::move(pool.inbox[static_cast<std::size_t>(me)].front());
              pool.inbox[static_cast<std::size_t>(me)].pop_front();
            }
            if (directive.kind == Directive::Kind::exit) return;
            const JobSpec& spec = report.jobs[static_cast<std::size_t>(directive.job)].spec;
            try {
              MemberReport member = run_member(world_comm, directive, spec);
              std::lock_guard lock(pool.mutex);
              pool.reports.push_back(std::move(member));
              pool.dispatcher_cv.notify_all();
            } catch (const svmmpi::RankFailed& failure) {
              MemberReport member;
              member.attempt = directive.shared->uid;
              member.job = directive.job;
              member.world_rank = me;
              member.kind = failure.permanent ? MemberReport::Kind::died
                                              : MemberReport::Kind::failed;
              member.error = failure.what();
              {
                std::lock_guard lock(pool.mutex);
                pool.reports.push_back(std::move(member));
                pool.dispatcher_cv.notify_all();
              }
              // A permanent loss must reach the elastic launcher so the
              // world marks this rank dead and the job's survivors observe
              // RankLost; a transient crash models a process relaunch —
              // the rank simply rejoins the pool.
              if (failure.permanent) throw;
            }
          }
        },
        options.net_model, nullptr, &injector);
  } catch (...) {
    dispatch_thread.join();
    throw;
  }
  dispatch_thread.join();

  fill_report(report, dispatcher.makespan_s, dispatcher.timeouts, elastic.failed_ranks);
  maybe_write_metrics(report, options);
  return report;
}

}  // namespace svmsched
