// SPMD embedding example: drive DistributedSolver directly on an explicit
// communicator (the way an MPI application would), compare several Table II
// heuristics, and inspect per-rank statistics and traffic — including how
// the per-iteration pair allreduce (which carries x_up/x_low) and the
// gradient-reconstruction ring show up in the communication counters.
//
//   ./parallel_training [--ranks 8] [--n 3000] [--trace-out trace.json]
//                       [--metrics-out metrics.json] [--log-level info]
//
// Because this example owns the SPMD region (no svmcore::train() wrapper),
// it also shows the manual observability wiring: enable the trace recorder
// around run_spmd, flush the Chrome trace afterwards, and assemble the run
// report from the per-rank RankResult::metrics registries.
#include <cstdio>
#include <vector>

#include "core/distributed_solver.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "mpisim/spmd.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const svmutil::CliFlags flags(argc, argv, svmutil::with_obs_flags({"ranks", "n"}));
  const svmutil::ObsPaths obs = svmutil::apply_obs_flags(flags);
  const int ranks = static_cast<int>(flags.get_int("ranks", 8));
  const std::size_t n = flags.get_int("n", 3000);

  // All three heuristic runs land on one trace timeline, separated by the
  // per-run "solve" spans.
  if (!obs.trace_out.empty()) {
    svmobs::trace_reset();
    svmobs::trace_enable();
  }
  std::vector<svmobs::RunReport> reports;

  const svmdata::Dataset train = svmdata::synthetic::gaussian_blobs(
      {.n = n, .d = 12, .separation = 1.8, .label_noise = 0.05, .seed = 99});

  svmcore::SolverParams params;
  params.C = 8.0;
  params.eps = 1e-3;
  params.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(8.0);

  // Collectives are dominated by the pair allreduce (one per iteration and
  // rank); point-to-point bytes are the reconstruction ring's alone.
  svmutil::TextTable table({"heuristic", "iters", "shrunk", "recon", "kernel evals (max rank)",
                            "collectives", "collective bytes", "ring bytes sent", "wall s"});

  for (const char* name : {"Original", "Single50pc", "Multi5pc"}) {
    const svmcore::DistributedConfig config{.params = params,
                                            .heuristic = svmcore::Heuristic::parse(name)};

    // The SPMD region: every rank constructs its own solver bound to its
    // block of the dataset and they cooperate through the communicator.
    std::vector<svmcore::RankResult> results(ranks);
    svmmpi::TrafficStats traffic = svmmpi::run_spmd(ranks, [&](svmmpi::Comm& comm) {
      svmcore::DistributedSolver solver(comm, train, config);
      results[comm.rank()] = solver.solve();
    });

    std::uint64_t max_kernel = 0;
    std::uint64_t shrunk = 0;
    double wall = 0.0;
    for (const auto& r : results) {
      max_kernel = std::max(max_kernel, r.stats.kernel_evaluations);
      shrunk += r.stats.samples_shrunk;
      wall = std::max(wall, r.stats.solve_seconds);
    }
    if (!obs.metrics_out.empty()) {
      svmobs::RunReport report;
      report.name = name;
      report.info.emplace_back("ranks", std::to_string(ranks));
      report.info.emplace_back("n", std::to_string(n));
      for (const auto& r : results) report.ranks.push_back(r.metrics);
      report.finalize_aggregate();
      reports.push_back(std::move(report));
    }

    table.add_row({name, svmutil::TextTable::integer(results[0].stats.iterations),
                   svmutil::TextTable::integer(shrunk),
                   svmutil::TextTable::integer(results[0].stats.reconstructions),
                   svmutil::TextTable::integer(max_kernel),
                   svmutil::TextTable::integer(traffic.collectives),
                   svmutil::TextTable::integer(traffic.bytes_collective),
                   svmutil::TextTable::integer(traffic.bytes_sent),
                   svmutil::TextTable::num(wall, 3)});
  }

  if (!obs.trace_out.empty()) {
    svmobs::trace_disable();
    svmobs::trace_write(obs.trace_out);
    std::printf("trace -> %s\n", obs.trace_out.c_str());
  }
  if (!obs.metrics_out.empty()) {
    svmobs::write_reports(obs.metrics_out, reports);
    std::printf("metrics -> %s\n", obs.metrics_out.c_str());
  }

  std::printf("Distributed SMO on %d simulated ranks, n=%zu\n\n", ranks, train.size());
  table.print();
  std::printf(
      "\nNote: 'Original' never shrinks (Algorithm 2); Single50pc shrinks late with one\n"
      "gradient reconstruction (Algorithm 4); Multi5pc shrinks early and reconstructs\n"
      "repeatedly (Algorithm 5) - the paper's best heuristic.\n");
  return 0;
}
