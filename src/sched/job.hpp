// Multi-tenant scheduler job model. A JobSpec is one binary SVM training
// request submitted to the shared rank pool: which tenant owns it, how many
// ranks its gang wants, the dataset/solver configuration, the synthetic
// arrival time, and its fault-handling budget (watchdog deadline, retry cap,
// recovery policy). Grid-search cells and one-vs-one pairs both lower to
// JobSpecs (see workload.hpp), so the scheduler only ever reasons about one
// job shape. A JobRecord is the scheduler's ledger entry for a submitted
// job: its terminal state, the trained model (completed jobs), and the
// fault/latency accounting the benchmarks report.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/heuristics.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "core/types.hpp"
#include "data/sparse.hpp"

namespace svmsched {

/// Every attempt runs the trainer's own per-rank path on its gang
/// (svmcore::solver_config, ElasticAttempt, finish_result): a fault-free
/// attempt's model is bit-identical to train()'s at the gang size it started
/// with, and an in-job shrink recovers exactly as train_with_recovery's
/// shrink policies do. An attempt whose solve throws anything but a fault
/// (say, a dataset holding one class) fails like a crash: its siblings are
/// cancelled, the job retries and ends lost once max_retries is spent, and
/// other jobs never see it.
struct JobSpec {
  int id = -1;                 ///< assigned by the workload generator / caller
  std::string name;            ///< human-readable ("grid C=1 g=0.25", "pair 3v7")
  std::string tenant = "default";
  int priority = 0;            ///< higher dispatches first
  int ranks = 2;               ///< requested gang size (see SchedulerOptions)
  std::shared_ptr<const svmdata::Dataset> dataset;
  /// params.algo picks the solver (smo or pbm); PBM's block count resolves
  /// to the gang size the attempt starts with.
  svmcore::SolverParams params{};
  svmcore::Heuristic heuristic{};
  /// Arrival offset from scheduler start (synthetic trace time). Jobs are
  /// invisible to admission until the scheduler clock passes this.
  double arrival_s = 0.0;
  /// Hang-watchdog deadline per attempt; once a dispatched attempt has run
  /// this long the dispatcher cancels the gang's communicator context and
  /// requeues the job (counted against max_retries). 0 disables.
  double timeout_s = 0.0;
  /// Additional attempts after the first before the job is declared lost.
  int max_retries = 2;
  /// Checkpoint cadence in solver iterations; 0 disables checkpointing
  /// (no cut is then reachable after a loss: see `policy`).
  std::uint64_t checkpoint_interval = 32;
  /// How the job responds to a permanent rank loss mid-attempt:
  /// shrink_world continues in-job on the survivors (buddy-replica
  /// repartition, or from scratch when no cut is reachable); restart_world
  /// abandons the attempt and requeues; shrink_then_restart shrinks while a
  /// consistent cut is reachable and requeues otherwise.
  svmcore::RecoveryPolicy policy = svmcore::RecoveryPolicy::shrink_world;
};

enum class JobState : std::uint8_t {
  queued,     ///< admitted, waiting for ranks (or for its retry backoff)
  running,    ///< an attempt is dispatched on a gang
  completed,  ///< terminal: model trained
  rejected,   ///< terminal: bounced at admission (queue full)
  lost,       ///< terminal: retry budget exhausted
};

[[nodiscard]] const char* to_string(JobState state) noexcept;

/// The scheduler's ledger entry for one submitted job.
struct JobRecord {
  JobSpec spec;
  JobState state = JobState::queued;

  // Result of the successful attempt (state == completed).
  svmcore::SvmModel model;
  double beta = 0.0;
  std::uint64_t iterations = 0;
  bool converged = false;
  int gang_size = 0;  ///< ranks the successful attempt STARTED with

  // Fault accounting.
  int attempts = 0;                ///< gangs dispatched for this job
  int requeues = 0;                ///< failed/timed-out attempts requeued
  int timeouts = 0;                ///< attempts the watchdog cancelled
  int shrinks = 0;                 ///< in-job shrink recoveries (all attempts)
  std::vector<int> ranks_lost;     ///< pool ranks permanently lost in this job
  std::string error;               ///< last failure description

  // Latency accounting (scheduler-clock seconds).
  double queue_wait_s = 0.0;  ///< admission -> first dispatch
  double latency_s = 0.0;     ///< admission -> terminal state
  double backoff_s = 0.0;     ///< retry throttle spent waiting to redispatch
};

}  // namespace svmsched
