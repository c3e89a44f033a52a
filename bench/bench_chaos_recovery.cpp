// Chaos bench: hammers the fault-tolerant training path with seeded fault
// schedules and reports recovery behavior — restarts taken, epochs resumed
// from, checkpoint overhead and model agreement with a fault-free run. Each
// seed is a fully deterministic schedule, so a reported row is replayable.
// A second section compares the recovery policies on an identical permanent
// rank death at p=4 and p=8 — restart_world (cold relaunch, from-scratch
// replay on a memory-only store) vs shrink_world (in-world repartition onto
// the survivors from the buddy replica) — and emits BENCH_recovery.json.
//
// Usage: bench_chaos_recovery [--seeds=N] [--ranks=P] [--scale=S]
//                             [--interval=I] [--drops=D] [--delays=L]
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/distributed_solver.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "mpisim/fault.hpp"
#include "mpisim/spmd.hpp"
#include "util/table.hpp"

namespace {

/// One policy × rank-count recovery run on the shared death schedule.
struct PolicyRow {
  int ranks = 0;
  std::string policy;
  int restarts = 0;
  int shrinks = 0;
  std::uint64_t restore_epoch = 0;
  std::uint64_t iterations_replayed = 0;
  double wall_s = 0.0;
  double modeled_s = 0.0;
  double max_delta = 0.0;
  bool match = false;
};

double model_max_delta(const svmcore::TrainResult& a, const svmcore::TrainResult& b) {
  if (a.model.num_support_vectors() != b.model.num_support_vectors())
    return std::numeric_limits<double>::infinity();
  double max_delta = std::abs(a.beta - b.beta);
  for (std::size_t j = 0; j < a.model.num_support_vectors(); ++j)
    max_delta =
        std::max(max_delta, std::abs(a.model.coefficients()[j] - b.model.coefficients()[j]));
  return max_delta;
}

void write_json(const std::vector<PolicyRow>& rows, bool shrink_fewer, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"chaos_recovery\",\n  \"policy_comparison\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PolicyRow& r = rows[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"ranks\": %d,\n"
                 "      \"policy\": \"%s\",\n"
                 "      \"restarts\": %d,\n"
                 "      \"shrinks\": %d,\n"
                 "      \"restore_epoch\": %" PRIu64 ",\n"
                 "      \"iterations_replayed\": %" PRIu64 ",\n"
                 "      \"wall_s\": %.4f,\n"
                 "      \"modeled_network_s\": %.6f,\n"
                 "      \"max_coef_delta\": %.3e,\n"
                 "      \"matches_fault_free\": %s\n"
                 "    }%s\n",
                 r.ranks, r.policy.c_str(), r.restarts, r.shrinks, r.restore_epoch,
                 r.iterations_replayed, r.wall_s, r.modeled_s, r.max_delta,
                 r.match ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"shrink_replays_fewer_iterations\": %s\n}\n",
               shrink_fewer ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const auto [flags, args] =
      svmbench::parse_args_with(argc, argv, {"seeds", "interval", "drops", "delays"});
  const int seeds = static_cast<int>(flags.get_int("seeds", 5));
  const int ranks = args.ranks.empty() ? 4 : args.ranks.front();
  const double scale = flags.get_double("scale", args.quick ? 0.5 : 1.0);
  const std::uint64_t interval = static_cast<std::uint64_t>(flags.get_int("interval", 64));
  const int drops = static_cast<int>(flags.get_int("drops", 2));
  const int delays = static_cast<int>(flags.get_int("delays", 3));

  svmbench::print_banner(
      "chaos recovery - fault-injected training with checkpoint/restart",
      "each seed: " + std::to_string(drops) + " dropped sends, " + std::to_string(delays) +
          " delays and one rank crash; recovery must reproduce the fault-free model");

  const svmdata::Dataset train = svmdata::synthetic::gaussian_blobs(
      {.n = static_cast<std::size_t>(240 * scale), .d = 8, .separation = 1.6,
       .label_noise = 0.05, .seed = 17});
  svmcore::SolverParams params;
  params.C = 4.0;
  params.eps = 1e-3;
  params.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(4.0);

  svmcore::TrainOptions options;
  options.num_ranks = ranks;
  options.heuristic = svmcore::Heuristic::best();
  options.net_model.timeout_s = 0.25;  // dropped messages become TimeoutError

  svmutil::Timer baseline_timer;
  const svmcore::TrainResult baseline = svmcore::train(train, params, options);
  const double baseline_s = baseline_timer.seconds();
  std::printf("fault-free: n=%zu p=%d iters=%llu wall=%.2fs\n\n", train.size(), ranks,
              static_cast<unsigned long long>(baseline.iterations), baseline_s);

  // Rank-0 op count of a clean run bounds the op horizon for the schedules.
  std::uint64_t horizon = 0;
  {
    svmmpi::FaultInjector probe{svmmpi::FaultPlan{}};
    const svmcore::DistributedConfig config = svmcore::solver_config(params, options);
    svmmpi::run_spmd(
        ranks,
        [&](svmmpi::Comm& comm) {
          svmcore::DistributedSolver solver(comm, train, config);
          (void)solver.solve();
        },
        options.net_model, nullptr, &probe);
    horizon = probe.ops(0);
  }

  svmutil::TextTable table({"seed", "faults", "restarts", "resume epochs", "ckpt saves",
                            "wall s", "overhead", "max |dalpha|", "match"});
  int mismatches = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    svmcore::RecoveryOptions recovery;
    recovery.fault_plan = svmmpi::FaultPlan::chaos(static_cast<std::uint64_t>(seed), ranks,
                                                   horizon, drops, delays, /*with_crash=*/false)
                              .crash(seed % ranks, horizon / 2);
    recovery.checkpoint_interval = interval;
    svmcore::RecoveryReport report;

    svmutil::Timer timer;
    const svmcore::TrainResult recovered =
        svmcore::train_with_recovery(train, params, options, recovery, &report);
    const double wall = timer.seconds();

    double max_delta = 0.0;
    bool same_shape =
        recovered.model.num_support_vectors() == baseline.model.num_support_vectors();
    if (same_shape) {
      for (std::size_t j = 0; j < baseline.model.num_support_vectors(); ++j)
        max_delta = std::max(max_delta, std::abs(recovered.model.coefficients()[j] -
                                                 baseline.model.coefficients()[j]));
      max_delta = std::max(max_delta, std::abs(recovered.beta - baseline.beta));
    }
    const bool match = same_shape && max_delta <= 1e-10;
    if (!match) ++mismatches;

    std::string epochs;
    for (const std::uint64_t e : report.restore_epochs)
      epochs += (epochs.empty() ? "" : ",") + std::to_string(e);
    table.add_row({svmutil::TextTable::integer(seed),
                   svmutil::TextTable::integer(
                       static_cast<long long>(recovery.fault_plan.events().size())),
                   svmutil::TextTable::integer(report.restarts), epochs.empty() ? "-" : epochs,
                   svmutil::TextTable::integer(static_cast<long long>(report.checkpoints_saved)),
                   svmutil::TextTable::num(wall, 2),
                   svmutil::TextTable::num(baseline_s > 0 ? wall / baseline_s : 0.0, 2),
                   svmutil::TextTable::num(max_delta, 12), match ? "OK" : "MISMATCH"});
  }
  table.print();
  std::printf("\n%d/%d seeds reproduced the fault-free model within 1e-10\n", seeds - mismatches,
              seeds);

  // --- restart_world vs shrink_world on an identical permanent death -------
  std::printf("\npolicy comparison: permanent death of rank 1 mid-solve, memory-only store\n");
  std::vector<PolicyRow> rows;
  bool shrink_fewer = true;
  svmutil::TextTable policy_table({"p", "policy", "restarts", "shrinks", "resume epoch",
                                   "iters replayed", "wall s", "modeled s", "max |dalpha|",
                                   "match"});
  for (const int p : {4, 8}) {
    svmcore::TrainOptions elastic_options = options;
    elastic_options.num_ranks = p;
    elastic_options.net_model.timeout_s = 5.0;  // shrink needs a failure detector

    const svmcore::TrainResult p_baseline = svmcore::train(train, params, elastic_options);
    std::uint64_t victim_ops = 0;
    {
      svmmpi::FaultInjector probe{svmmpi::FaultPlan{}};
      const svmcore::DistributedConfig config = svmcore::solver_config(params, elastic_options);
      svmmpi::run_spmd(
          p,
          [&](svmmpi::Comm& comm) {
            svmcore::DistributedSolver solver(comm, train, config);
            (void)solver.solve();
          },
          elastic_options.net_model, nullptr, &probe);
      victim_ops = probe.ops(1);
    }

    std::uint64_t replayed_by_policy[2] = {0, 0};
    const svmcore::RecoveryPolicy policies[2] = {svmcore::RecoveryPolicy::restart_world,
                                                 svmcore::RecoveryPolicy::shrink_world};
    const char* names[2] = {"restart_world", "shrink_world"};
    for (int i = 0; i < 2; ++i) {
      svmcore::RecoveryOptions recovery;
      recovery.fault_plan = svmmpi::FaultPlan{}.die(1, victim_ops / 2);
      recovery.checkpoint_interval = interval;
      recovery.policy = policies[i];
      svmcore::RecoveryReport report;

      svmutil::Timer timer;
      const svmcore::TrainResult recovered =
          svmcore::train_with_recovery(train, params, elastic_options, recovery, &report);

      PolicyRow row;
      row.ranks = p;
      row.policy = names[i];
      row.restarts = report.restarts;
      row.shrinks = report.shrinks;
      row.restore_epoch = report.restore_epochs.empty() ? 0 : report.restore_epochs.front();
      row.iterations_replayed = report.iterations_replayed;
      row.wall_s = timer.seconds();
      row.modeled_s = recovered.modeled_seconds;
      row.max_delta = model_max_delta(recovered, p_baseline);
      row.match = row.max_delta <= 1e-10;
      if (!row.match) ++mismatches;
      replayed_by_policy[i] = report.iterations_replayed;
      rows.push_back(row);

      policy_table.add_row(
          {svmutil::TextTable::integer(p), row.policy, svmutil::TextTable::integer(row.restarts),
           svmutil::TextTable::integer(row.shrinks),
           svmutil::TextTable::integer(static_cast<long long>(row.restore_epoch)),
           svmutil::TextTable::integer(static_cast<long long>(row.iterations_replayed)),
           svmutil::TextTable::num(row.wall_s, 2), svmutil::TextTable::num(row.modeled_s, 4),
           svmutil::TextTable::num(row.max_delta, 12), row.match ? "OK" : "MISMATCH"});
    }
    if (replayed_by_policy[1] >= replayed_by_policy[0]) shrink_fewer = false;
  }
  policy_table.print();
  std::printf("\nshrink_world replays strictly fewer iterations than restart_world: %s\n",
              shrink_fewer ? "yes" : "NO");
  write_json(rows, shrink_fewer, "BENCH_recovery.json");

  return (mismatches == 0 && shrink_fewer) ? 0 : 1;
}
