// Multi-tenant scheduler chaos suite. The invariants under test are the
// scheduler's contract:
//  - fault isolation: killing a rank inside job A shrinks job A per its
//    RecoveryPolicy while a concurrent job B on a disjoint gang finishes
//    with a model BIT-IDENTICAL to a scheduler-free train() of the same
//    gang size (the dead rank is invisible outside its communicator);
//  - a hung job trips the dispatcher watchdog, its gang unwinds via
//    context cancellation, the ranks return to the pool and the job is
//    requeued and completes;
//  - overload degrades gracefully: arrivals beyond the admission bound are
//    rejected, accepted jobs all complete;
//  - transient crashes retry: the rank rejoins the pool, the job requeues
//    and completes with no permanent loss recorded;
//  - fixed seeds replay deterministically: same workload, same models;
//  - a job trains with the algorithm its params name, through the trainer's
//    own recovery and assembly path: a PBM job matches train(pbm) bit for
//    bit, with or without an in-job shrink;
//  - a job its solver rejects fails alone: it ends lost after its retries
//    and every other tenant's job completes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/distributed_solver.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/fault.hpp"
#include "mpisim/spmd.hpp"
#include "mpisim/world.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "solver/pbm_solver.hpp"

namespace {

using svmsched::JobRecord;
using svmsched::JobSpec;
using svmsched::JobState;
using svmsched::SchedulerOptions;
using svmsched::SchedulerReport;

std::shared_ptr<const svmdata::Dataset> blobs(std::uint64_t seed, std::size_t n = 240) {
  svmdata::synthetic::BlobsParams params;
  params.n = n;
  params.d = 8;
  params.separation = 2.5;
  params.seed = seed;
  return std::make_shared<const svmdata::Dataset>(svmdata::synthetic::gaussian_blobs(params));
}

SchedulerOptions base_options(int pool_ranks) {
  SchedulerOptions options;
  options.pool_ranks = pool_ranks;
  options.net_model.timeout_s = 10.0;
  options.watchdog_tick_s = 0.002;
  return options;
}

JobSpec job(int id, std::shared_ptr<const svmdata::Dataset> dataset, int ranks) {
  JobSpec spec;
  spec.id = id;
  spec.name = "job" + std::to_string(id);
  spec.ranks = ranks;
  spec.dataset = std::move(dataset);
  spec.checkpoint_interval = 16;
  return spec;
}

/// Rank-local communication-op count of `rank` for a plain p-rank solve of
/// `dataset` — op counts are deterministic and advance only inside jobs, so
/// this targets a fault at a specific fraction of a specific job's solve.
/// PBM's checkpoints exchange gamma slices, so its probe saves at the job's
/// cadence too.
std::uint64_t probe_solve_ops(const svmdata::Dataset& dataset, int num_ranks, int rank,
                              const svmcore::SolverParams& params = {},
                              std::uint64_t checkpoint_interval = 0) {
  svmcore::TrainOptions options;
  options.num_ranks = num_ranks;
  svmcore::CheckpointStore store(num_ranks);
  const svmcore::DistributedConfig cfg =
      svmcore::solver_config(params, options, checkpoint_interval, &store);
  svmmpi::FaultInjector probe{svmmpi::FaultPlan{}};
  (void)svmmpi::run_spmd(
      num_ranks,
      [&](svmmpi::Comm& comm) {
        if (params.algo == svmcore::SolverAlgo::pbm) {
          svmcore::PbmSolver solver(comm, dataset, cfg);
          (void)solver.solve();
        } else {
          svmcore::DistributedSolver solver(comm, dataset, cfg);
          (void)solver.solve();
        }
      },
      svmmpi::NetModel{}, nullptr, &probe);
  return probe.ops(rank);
}

/// Scheduler-free reference: what train() produces for this dataset on a
/// `ranks`-rank launch (the scheduler's assembly must match it exactly).
svmcore::TrainResult reference_train(const svmdata::Dataset& dataset, int ranks,
                                     const svmcore::SolverParams& params = {}) {
  svmcore::TrainOptions options;
  options.num_ranks = ranks;
  return svmcore::train(dataset, params, options);
}

svmcore::SvmModel reference_model(const svmdata::Dataset& dataset, int ranks) {
  return reference_train(dataset, ranks).model;
}

svmcore::SolverParams pbm_params() {
  svmcore::SolverParams params;
  params.algo = svmcore::SolverAlgo::pbm;
  return params;
}

void expect_identical_models(const svmcore::SvmModel& a, const svmcore::SvmModel& b) {
  EXPECT_EQ(a.num_support_vectors(), b.num_support_vectors());
  EXPECT_EQ(a.beta(), b.beta());
  ASSERT_EQ(a.coefficients().size(), b.coefficients().size());
  for (std::size_t i = 0; i < a.coefficients().size(); ++i)
    EXPECT_EQ(a.coefficients()[i], b.coefficients()[i]) << "coefficient " << i;
}

// --- mpisim primitives the scheduler is built on --------------------------

TEST(SchedulerPrimitives, SaltedGroupContextsAreDistinctAndMemoized) {
  svmmpi::World world(4);
  const std::vector<int> group{0, 2};
  const int plain = world.context_for_group(group);
  EXPECT_EQ(plain, world.context_for_group(group));  // memoized
  const int salted = world.context_for_group(group, /*salt=*/7);
  EXPECT_NE(plain, salted);  // a salted lifetime never reuses another's context
  EXPECT_EQ(salted, world.context_for_group(group, /*salt=*/7));
}

TEST(SchedulerPrimitives, CancelContextUnblocksAWedgedReceive) {
  bool cancelled = false;
  (void)svmmpi::run_spmd(2, [&](svmmpi::Comm& comm) {
    if (comm.rank() == 0) {
      try {
        (void)comm.recv<int>(1);  // no matching send: wedged until cancel
        ADD_FAILURE() << "receive completed without a sender";
      } catch (const svmmpi::ContextCancelled& c) {
        cancelled = true;
        EXPECT_EQ(c.rank, 0);
      }
    } else {
      comm.world().cancel_context(comm.context_id());
    }
  });
  EXPECT_TRUE(cancelled);
}

TEST(SchedulerPrimitives, SplitSubsetBuildsDisjointGangsWithoutCollectives) {
  std::vector<int> sums(4, 0), received(4, -1), world_totals(4, 0);
  (void)svmmpi::run_spmd(4, [&](svmmpi::Comm& comm) {
    const int ctx_even = comm.world().context_for_group({0, 2}, 1);
    const int ctx_odd = comm.world().context_for_group({1, 3}, 1);
    const bool even = comm.rank() % 2 == 0;
    svmmpi::Comm gang = comm.split_subset(even ? std::vector<int>{0, 2} : std::vector<int>{1, 3},
                                          even ? ctx_even : ctx_odd);
    EXPECT_EQ(gang.size(), 2);
    sums[comm.rank()] = gang.allreduce(comm.rank(), svmmpi::ReduceOp::sum);
    // Point-to-point inside a gang addresses gang ranks, and the parent
    // communicator stays usable beside its gangs.
    if (gang.rank() == 0) gang.send_value(comm.rank(), 1);
    if (gang.rank() == 1) received[comm.rank()] = gang.recv_value<int>(0);
    world_totals[comm.rank()] = comm.allreduce(1, svmmpi::ReduceOp::sum);
  });
  EXPECT_EQ(sums[0], 0 + 2);
  EXPECT_EQ(sums[2], 0 + 2);
  EXPECT_EQ(sums[1], 1 + 3);
  EXPECT_EQ(sums[3], 1 + 3);
  EXPECT_EQ(received[2], 0);  // gang {0, 2}: gang rank 1 is world rank 2
  EXPECT_EQ(received[3], 1);  // gang {1, 3}
  EXPECT_EQ(world_totals, std::vector<int>(4, 4));
}

// --- scheduler end-to-end --------------------------------------------------

TEST(Scheduler, FaultFreeJobMatchesPlainTrainBitForBit) {
  const auto dataset = blobs(11);
  SchedulerOptions options = base_options(4);
  const SchedulerReport report = svmsched::run_scheduler({job(0, dataset, 4)}, options);
  ASSERT_EQ(report.completed, 1);
  const JobRecord& rec = report.jobs[0];
  ASSERT_EQ(rec.state, JobState::completed);
  EXPECT_EQ(rec.attempts, 1);
  EXPECT_EQ(rec.shrinks, 0);
  EXPECT_TRUE(rec.converged);
  expect_identical_models(rec.model, reference_model(*dataset, 4));
}

TEST(Scheduler, RankDeathShrinksOnlyTheAffectedJob) {
  const auto dataset_a = blobs(21);
  const auto dataset_b = blobs(22);
  // Rank 1's op counter advances only inside job A (gangs take the lowest
  // free ranks: A -> {0,1,2,3}, B -> {4,5,6,7}), so a plain 4-rank probe of
  // A's dataset targets the death at the middle of A's solve.
  const std::uint64_t ops = probe_solve_ops(*dataset_a, 4, 1);
  ASSERT_GT(ops, 4u);

  SchedulerOptions options = base_options(8);
  options.fault_plan.die(1, ops / 2);
  std::vector<JobSpec> jobs{job(0, dataset_a, 4), job(1, dataset_b, 4)};
  jobs[0].tenant = "tenant-a";
  jobs[1].tenant = "tenant-b";
  const SchedulerReport report = svmsched::run_scheduler(std::move(jobs), options);

  ASSERT_EQ(report.completed, 2);
  const JobRecord& a = report.jobs[0];
  const JobRecord& b = report.jobs[1];
  // Job A survived its rank loss by shrinking in-job, on its first attempt.
  EXPECT_EQ(a.state, JobState::completed);
  EXPECT_EQ(a.attempts, 1);
  EXPECT_EQ(a.shrinks, 1);
  ASSERT_EQ(a.ranks_lost.size(), 1u);
  EXPECT_EQ(a.ranks_lost[0], 1);
  // Job B never observed the death: same model as a fault-free 4-rank train.
  EXPECT_EQ(b.state, JobState::completed);
  EXPECT_EQ(b.attempts, 1);
  EXPECT_EQ(b.shrinks, 0);
  EXPECT_TRUE(b.ranks_lost.empty());
  expect_identical_models(b.model, reference_model(*dataset_b, 4));
  // The pool recorded exactly the one permanent loss.
  ASSERT_EQ(report.pool_ranks_lost.size(), 1u);
  EXPECT_EQ(report.pool_ranks_lost[0], 1);
  EXPECT_EQ(report.shrinks, 1);
}

TEST(Scheduler, WatchdogCancelsAHungJobAndRequeuesIt) {
  const auto dataset = blobs(31, 160);
  SchedulerOptions options = base_options(4);
  // A stall that lasts until the watchdog cancels it, against a deadline far
  // above a fault-free attempt even on a contended host, and the network
  // timeout (10 s) out of reach: only the watchdog can unwedge the gang, and
  // only the stall can overrun the deadline.
  options.fault_plan.delay(1, 12, 600.0);
  std::vector<JobSpec> jobs{job(0, dataset, 4)};
  jobs[0].timeout_s = 2.0;
  const SchedulerReport report = svmsched::run_scheduler(std::move(jobs), options);

  ASSERT_EQ(report.completed, 1);
  const JobRecord& rec = report.jobs[0];
  EXPECT_EQ(rec.state, JobState::completed);
  EXPECT_EQ(rec.attempts, 2);
  EXPECT_EQ(rec.timeouts, 1);
  EXPECT_EQ(rec.requeues, 1);
  EXPECT_EQ(report.timeouts, 1);
  EXPECT_TRUE(report.pool_ranks_lost.empty());
  expect_identical_models(rec.model, reference_model(*dataset, 4));
}

TEST(Scheduler, OverloadRejectsInsteadOfQueueingUnboundedly) {
  const auto dataset = blobs(41, 120);
  SchedulerOptions options = base_options(2);
  options.queue_capacity = 2;
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back(job(i, dataset, 2));
  const SchedulerReport report = svmsched::run_scheduler(std::move(jobs), options);

  // All eight arrive before any can finish; two fit the admission queue.
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.rejected, 6);
  EXPECT_EQ(report.lost, 0);
  for (const JobRecord& rec : report.jobs)
    EXPECT_TRUE(rec.state == JobState::completed || rec.state == JobState::rejected);
}

TEST(Scheduler, TransientCrashReturnsRankToPoolAndRetries) {
  const auto dataset = blobs(51);
  const std::uint64_t ops = probe_solve_ops(*dataset, 4, 2);
  SchedulerOptions options = base_options(4);
  options.fault_plan.crash(2, ops / 2);  // transient: the process relaunches
  options.backoff_base_s = 0.01;
  std::vector<JobSpec> jobs{job(0, dataset, 4)};
  const SchedulerReport report = svmsched::run_scheduler(std::move(jobs), options);

  ASSERT_EQ(report.completed, 1);
  const JobRecord& rec = report.jobs[0];
  EXPECT_EQ(rec.state, JobState::completed);
  EXPECT_EQ(rec.attempts, 2);
  EXPECT_EQ(rec.requeues, 1);
  EXPECT_EQ(rec.shrinks, 0);
  EXPECT_GT(rec.backoff_s, 0.0);
  EXPECT_TRUE(rec.ranks_lost.empty());
  EXPECT_TRUE(report.pool_ranks_lost.empty());  // the rank was NOT lost
  expect_identical_models(rec.model, reference_model(*dataset, 4));
}

TEST(Scheduler, FixedSeedWorkloadReplaysBitIdentically) {
  const auto dataset = blobs(61, 160);
  svmsched::JobDefaults defaults;
  defaults.ranks = 2;
  const auto make_jobs = [&] {
    std::vector<JobSpec> jobs = svmsched::grid_search_jobs(
        dataset, {1.0, 10.0}, {0.25, 1.0}, svmcore::SolverParams{}, defaults);
    svmsched::BurstyTrace trace;
    trace.seed = 7;
    trace.mean_gap_s = 0.002;
    svmsched::assign_bursty_arrivals(jobs, trace);
    return jobs;
  };
  SchedulerOptions options = base_options(4);
  const SchedulerReport first = svmsched::run_scheduler(make_jobs(), options);
  const SchedulerReport second = svmsched::run_scheduler(make_jobs(), options);

  ASSERT_EQ(first.completed, 4);
  ASSERT_EQ(second.completed, 4);
  for (std::size_t j = 0; j < first.jobs.size(); ++j) {
    EXPECT_EQ(first.jobs[j].state, second.jobs[j].state);
    EXPECT_EQ(first.jobs[j].iterations, second.jobs[j].iterations);
    expect_identical_models(first.jobs[j].model, second.jobs[j].model);
  }
}

TEST(Scheduler, PbmJobMatchesPlainTrainBitForBit) {
  const auto dataset = blobs(11);
  std::vector<JobSpec> jobs{job(0, dataset, 2)};
  jobs[0].params = pbm_params();
  const SchedulerReport report = svmsched::run_scheduler(std::move(jobs), base_options(2));

  ASSERT_EQ(report.completed, 1);
  const JobRecord& rec = report.jobs[0];
  const svmcore::TrainResult reference = reference_train(*dataset, 2, pbm_params());
  ASSERT_EQ(reference.solver_algo, "pbm");
  EXPECT_EQ(rec.iterations, reference.iterations);  // PBM's outer rounds
  EXPECT_EQ(rec.converged, reference.converged);
  expect_identical_models(rec.model, reference.model);
}

TEST(Scheduler, PbmJobSurvivesRankDeathBitIdentically) {
  const auto dataset = blobs(71);
  std::vector<JobSpec> jobs{job(0, dataset, 4)};
  jobs[0].params = pbm_params();
  jobs[0].checkpoint_interval = 1;  // every outer round
  const std::uint64_t ops = probe_solve_ops(*dataset, 4, 2, pbm_params(), 1);
  ASSERT_GT(ops, 4u);

  SchedulerOptions options = base_options(4);
  options.fault_plan.die(2, ops / 2);
  const SchedulerReport report = svmsched::run_scheduler(std::move(jobs), options);

  ASSERT_EQ(report.completed, 1);
  const JobRecord& rec = report.jobs[0];
  EXPECT_EQ(rec.attempts, 1);
  EXPECT_EQ(rec.shrinks, 1);
  EXPECT_EQ(rec.ranks_lost, std::vector<int>{2});
  EXPECT_EQ(rec.gang_size, 4);
  // PBM's block structure is pinned to the starting gang, so the survivors
  // replay the fault-free 4-rank trajectory exactly.
  const svmcore::TrainResult reference = reference_train(*dataset, 4, pbm_params());
  EXPECT_EQ(rec.iterations, reference.iterations);
  expect_identical_models(rec.model, reference.model);
}

TEST(Scheduler, FailingJobIsLostWithoutStoppingOthers) {
  // Tenant A's job holds one class only, which the solver rejects.
  svmdata::Dataset one_class = *blobs(81, 120);
  std::fill(one_class.y.begin(), one_class.y.end(), 1.0);
  const auto good = blobs(82);
  std::vector<JobSpec> jobs{
      job(0, std::make_shared<const svmdata::Dataset>(std::move(one_class)), 2),
      job(1, good, 2)};
  jobs[0].tenant = "tenant-a";
  jobs[1].tenant = "tenant-b";
  const SchedulerReport report = svmsched::run_scheduler(std::move(jobs), base_options(4));

  const JobRecord& failing = report.jobs[0];
  EXPECT_EQ(failing.state, JobState::lost);
  EXPECT_EQ(failing.attempts, 1 + failing.spec.max_retries);
  EXPECT_NE(failing.error.find("both classes"), std::string::npos) << failing.error;
  const JobRecord& healthy = report.jobs[1];
  EXPECT_EQ(healthy.state, JobState::completed);
  EXPECT_EQ(healthy.attempts, 1);
  expect_identical_models(healthy.model, reference_model(*good, 2));
  EXPECT_EQ(report.completed, 1);
  EXPECT_EQ(report.lost, 1);
  EXPECT_TRUE(report.pool_ranks_lost.empty());
}

TEST(Workload, OneVsOneLowersEveryPairToAJob) {
  svmdata::synthetic::MultiBlobsParams params;
  params.n = 90;
  params.classes = 3;
  const svmdata::MultiClassData data = svmdata::synthetic::multiclass_blobs(params);
  const std::vector<JobSpec> jobs = svmsched::one_vs_one_jobs(data, svmcore::SolverParams{});
  ASSERT_EQ(jobs.size(), 3u);  // 3 classes -> 3 pairs
  for (const JobSpec& spec : jobs) {
    ASSERT_NE(spec.dataset, nullptr);
    EXPECT_GT(spec.dataset->size(), 0u);
    spec.dataset->validate();  // labels correctly remapped to +/-1
  }
}

}  // namespace
