// Shared harness for the paper-artifact benches. Every bench binary
// regenerates one table or figure from the paper's §V: it runs the relevant
// solver configurations at container scale and prints the same rows/series
// the paper reports, echoing the paper's own numbers for comparison.
//
// Measurement caveat (documented in DESIGN.md): ranks are threads sharing
// the host's 4 vCPUs, so wall time can drop with p only up to p = 4 and is
// time-shared beyond. Scaling rows therefore report, per p: iterations, the
// slowest rank's kernel-evaluation count (the per-rank work the paper's
// speedup comes from), wall time, and "modeled s" = per-rank work * lambda +
// the alpha-beta network model — the quantity whose shape mirrors the
// paper's curves.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/libsvm_like.hpp"
#include "core/trainer.hpp"
#include "data/zoo.hpp"
#include "kernel/kernel_engine.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/table.hpp"

namespace svmbench {

struct BenchArgs {
  double scale = 1.0;          ///< multiplies each bench's default dataset size
  std::vector<int> ranks;      ///< override rank sweep (empty = bench default)
  bool quick = false;          ///< shrink everything for smoke runs
  double eps = 1e-3;
  std::string trace_out;       ///< --trace-out: Chrome trace of the runs
  std::string metrics_out;     ///< --metrics-out: run report of every config
};

inline std::vector<int> parse_rank_list(const std::string& list) {
  std::vector<int> ranks;
  std::size_t at = 0;
  while (at < list.size()) {
    const std::size_t comma = list.find(',', at);
    ranks.push_back(std::stoi(list.substr(at, comma - at)));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return ranks;
}

/// Parsed flags + the standard BenchArgs. Benches with extra flags (repeats,
/// seeds, --assert, ...) read them from `flags`; everything standard —
/// obs paths, scale/ranks/quick/eps — is already applied and filled into
/// `args`.
struct ParsedArgs {
  svmutil::CliFlags flags;
  BenchArgs args;
};

/// Usage line naming every accepted flag ('!' marks a boolean flag).
inline std::string usage_line(const std::string& argv0, const std::vector<std::string>& known) {
  std::string line = "usage: " + argv0.substr(argv0.find_last_of('/') + 1);
  for (const std::string& k : known)
    line += k.back() == '!' ? " [--" + k.substr(0, k.size() - 1) + "]" : " [--" + k + " V]";
  return line + "\n";
}

/// One-call flag wiring shared by every bench: appends the standard obs
/// flags (and scale/ranks/quick/eps/help) to the bench's own flag list,
/// parses argv, applies --log-level, and fills BenchArgs.
/// Like perfbench, --help prints the usage line and exits 0, and an unknown
/// flag or a bad standard flag value prints it to stderr and exits 2.
inline ParsedArgs parse_args_with(int argc, char** argv, std::vector<std::string> extra) {
  extra.insert(extra.end(), {"scale", "ranks", "quick!", "eps", "help!"});
  const std::vector<std::string> known = svmutil::with_obs_flags(std::move(extra));
  const std::string usage = usage_line(argc > 0 ? argv[0] : "bench", known);
  try {
    svmutil::CliFlags flags(argc, argv, known);
    if (flags.get_bool("help")) {
      std::fputs(usage.c_str(), stdout);
      std::exit(0);
    }
    if (!flags.positional().empty())
      throw std::invalid_argument("unexpected argument '" + flags.positional()[0] + "'");
    const svmutil::ObsPaths obs = svmutil::apply_obs_flags(flags);
    BenchArgs args;
    args.scale = flags.get_double("scale", 1.0);
    args.quick = flags.get_bool("quick");
    args.eps = flags.get_double("eps", 1e-3);
    args.trace_out = obs.trace_out;
    args.metrics_out = obs.metrics_out;
    if (flags.has("ranks")) args.ranks = parse_rank_list(flags.get("ranks", ""));
    if (args.quick) args.scale *= 0.25;
    return ParsedArgs{std::move(flags), std::move(args)};
  } catch (const std::exception& e) {  // unknown flags and unparsable values
    std::fprintf(stderr, "%s: %s\n%s", argc > 0 ? argv[0] : "bench", e.what(), usage.c_str());
    std::exit(2);
  }
}

inline BenchArgs parse_args(int argc, char** argv) {
  return parse_args_with(argc, argv, {}).args;
}

/// `repeats` fused gamma-update sweeps (the solver's hot loop: every row vs
/// a rotating (i_up, i_low) pair, the schedule interleaved_min_sweeps times),
/// every produced value stored in `out` for bitwise cross-engine checks.
/// `out` is sized once up front: growing it by appends instead moved
/// bench_precision's usps simd/f32 ratio from ~1.65x to ~1.44x through heap
/// placement alone, with the timed code unchanged.
inline void record_sweeps(svmkernel::KernelEngine& engine, const svmdata::Dataset& train,
                          int repeats, std::vector<double>& out) {
  const std::size_t n = train.size();
  std::vector<double> k_up(n), k_low(n);
  out.resize(static_cast<std::size_t>(repeats) * n * 2);
  for (int r = 0; r < repeats; ++r) {
    const std::size_t up = static_cast<std::size_t>(r) * 2 % n;
    const std::size_t low = (up + n / 2 + 1) % n;
    engine.eval_pair_range(train.X.row(up), engine.sq_norm(up), train.X.row(low),
                           engine.sq_norm(low), 0, n, k_up, k_low);
    double* at = out.data() + 2 * static_cast<std::size_t>(r) * n;
    std::copy(k_up.begin(), k_up.end(), at);
    std::copy(k_low.begin(), k_low.end(), at + n);
  }
}

/// Min-time estimator for a time-shared core, sampling every engine
/// round-robin with one fused gamma-update sweep (every row vs a rotating
/// pair) per sample. Two noise sources shape this design. (1) Window averages
/// are the wrong tool: any window long enough to amortize timer overhead also
/// spans scheduler quanta, so every window is inflated by whoever preempted
/// it. One sweep is tens of microseconds — far below a scheduling quantum —
/// so most single-sweep samples run interruption-free and the per-engine
/// minimum converges on the clean compute time. (2) The core drifts between
/// frequency states over seconds; timing engines in separate back-to-back
/// blocks lets that drift land on one side of a speedup ratio (observed: the
/// scalar baseline swinging ~40% between otherwise identical runs).
/// Interleaving the samples puts every engine in every machine state, so the
/// minima compare like with like. Returns per-engine seconds for one sweep.
inline std::vector<double> interleaved_min_sweeps(
    std::vector<std::unique_ptr<svmkernel::KernelEngine>>& engines,
    const svmdata::Dataset& train, int samples) {
  const std::size_t n = train.size();
  std::vector<double> k_up(n), k_low(n);
  std::vector<double> best(engines.size(), std::numeric_limits<double>::infinity());
  for (int s = 0; s < samples; ++s) {
    const std::size_t up = static_cast<std::size_t>(s) * 2 % n;
    const std::size_t low = (up + n / 2 + 1) % n;
    for (std::size_t c = 0; c < engines.size(); ++c) {
      svmutil::Timer timer;
      engines[c]->eval_pair_range(train.X.row(up), engines[c]->sq_norm(up), train.X.row(low),
                                  engines[c]->sq_norm(low), 0, n, k_up, k_low);
      best[c] = std::min(best[c], timer.seconds());
    }
  }
  return best;
}

inline void print_banner(const std::string& artifact, const std::string& paper_summary) {
  std::printf("================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("paper: %s\n", paper_summary.c_str());
  std::printf("================================================================\n");
}

inline svmcore::SolverParams params_for(const svmdata::ZooEntry& entry, double eps) {
  svmcore::SolverParams p;
  p.C = entry.C;
  p.eps = eps;
  p.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  return p;
}

/// One solver configuration on one dataset at one rank count.
struct ScalingRow {
  std::string label;
  int ranks = 0;
  svmcore::TrainResult result;
};

/// Runs {Default, Shrinking(Best)=Multi5pc, Shrinking(Worst)=Single50pc}
/// across `rank_list` — the three bars of Figures 3-7. When `reports` is
/// non-null a run report per configuration is appended (named
/// "<label>/p<ranks>"), ready for svmobs::write_reports.
inline std::vector<ScalingRow> run_scaling(const svmdata::Dataset& train,
                                           const svmcore::SolverParams& params,
                                           const std::vector<int>& rank_list,
                                           std::vector<svmobs::RunReport>* reports = nullptr) {
  const struct {
    const char* label;
    const char* heuristic;
  } configs[] = {{"Default", "Original"},
                 {"Shrink(Best)", "Multi5pc"},
                 {"Shrink(Worst)", "Single50pc"}};
  std::vector<ScalingRow> rows;
  for (const int p : rank_list) {
    for (const auto& config : configs) {
      svmcore::TrainOptions options;
      options.num_ranks = p;
      options.heuristic = svmcore::Heuristic::parse(config.heuristic);
      rows.push_back(ScalingRow{config.label, p, svmcore::train(train, params, options)});
      if (reports != nullptr)
        reports->push_back(svmcore::run_report(rows.back().result, options,
                                               std::string(config.label) + "/p" +
                                                   std::to_string(p)));
    }
  }
  return rows;
}

/// Prints a scaling table with speedups relative to the first configuration
/// at the same rank count (the Default algorithm).
inline void print_scaling_table(const std::vector<ScalingRow>& rows) {
  svmutil::TextTable table({"config", "p", "iters", "work/rank (kevals)", "wall s", "modeled s",
                            "speedup vs Default", "recon s", "shrunk", "streamed MB"});
  double default_modeled = 0.0;
  for (const ScalingRow& row : rows) {
    if (row.label == "Default") default_modeled = row.result.modeled_seconds;
    const double speedup =
        row.result.modeled_seconds > 0 ? default_modeled / row.result.modeled_seconds : 0.0;
    table.add_row({row.label, svmutil::TextTable::integer(row.ranks),
                   svmutil::TextTable::integer(row.result.iterations),
                   svmutil::TextTable::integer(
                       static_cast<long long>(row.result.max_rank_kernel_evaluations / 1000)),
                   svmutil::TextTable::num(row.result.wall_seconds, 2),
                   svmutil::TextTable::num(row.result.modeled_seconds, 3),
                   svmutil::TextTable::num(speedup, 2),
                   svmutil::TextTable::num(row.result.metrics.value("recon.total_s"), 3),
                   svmutil::TextTable::integer(row.result.samples_shrunk),
                   // KernelEngine work metric: CSR payload traversed by the
                   // batched gamma-update path, summed over ranks. Shrinking
                   // shows up here directly — fewer active rows, fewer bytes.
                   svmutil::TextTable::num(
                       static_cast<double>(row.result.engine_bytes_streamed) / 1e6, 1)});
  }
  table.print();
}

/// Baseline reference: the libsvm-style solver on the same dataset, reported
/// the way the paper uses "libsvm-enhanced using 16 cores on one node".
inline svmbaseline::BaselineResult run_baseline(const svmdata::Dataset& train,
                                                const svmdata::ZooEntry& entry, double eps) {
  svmbaseline::BaselineOptions options;
  options.C = entry.C;
  options.eps = eps;
  options.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  return svmbaseline::solve_libsvm_like(train, options);
}

inline void print_baseline_line(const svmbaseline::BaselineResult& baseline) {
  std::printf(
      "libsvm-enhanced baseline: %.2f s wall, %llu iterations, cache hit rate %.1f%%\n\n",
      baseline.solve_seconds, static_cast<unsigned long long>(baseline.iterations),
      100.0 * baseline.cache_hit_rate);
}

}  // namespace svmbench

namespace svmbench {

/// Complete scaling-figure harness shared by Figures 3-7: generates the
/// dataset at `scale_hint * args.scale`, sweeps the rank list, prints the
/// three-configuration table plus the libsvm-enhanced reference, and echoes
/// the paper's reported claim for shape comparison.
inline int run_figure_bench(const std::string& figure, const std::string& dataset,
                            double scale_hint, std::vector<int> default_ranks,
                            const std::string& paper_claim, const BenchArgs& args) {
  const svmdata::ZooEntry& entry = svmdata::zoo_entry(dataset);
  print_banner(figure + " - " + dataset + " scaling",
               paper_claim + " [paper: n=" + std::to_string(entry.paper_train_size) +
                   ", up to " + std::to_string(entry.paper_processes) + " processes]");

  const double scale = scale_hint * args.scale;
  const svmdata::Dataset train = svmdata::make_train(entry, scale);
  std::printf(
      "container workload: n=%zu, d=%zu, density %.2f%%, C=%g, sigma^2=%g\n\n",
      train.size(), train.dim(), 100.0 * train.X.density(), entry.C, entry.sigma_sq);

  const std::vector<int> rank_list = args.ranks.empty() ? default_ranks : args.ranks;
  // Every configuration of the sweep lands on one trace timeline (separated
  // by "solve" spans) and one run-report file, so a figure's whole sweep can
  // be inspected in Perfetto / diffed as JSON in one artifact each.
  if (!args.trace_out.empty()) {
    svmobs::trace_reset();
    svmobs::trace_enable();
  }
  std::vector<svmobs::RunReport> reports;
  const auto rows = run_scaling(train, params_for(entry, args.eps), rank_list,
                                args.metrics_out.empty() ? nullptr : &reports);
  if (!args.trace_out.empty()) {
    svmobs::trace_disable();
    svmobs::trace_write(args.trace_out);
    std::printf("trace -> %s\n", args.trace_out.c_str());
  }
  if (!args.metrics_out.empty()) {
    svmobs::write_reports(args.metrics_out, reports);
    std::printf("metrics -> %s\n", args.metrics_out.c_str());
  }
  print_scaling_table(rows);
  std::printf("\n");

  const auto baseline = run_baseline(train, entry, args.eps);
  print_baseline_line(baseline);

  // Shape checks the paper's figure makes at the largest p: Best <= Default
  // in per-rank work, and Best <= Worst in modeled time.
  const ScalingRow* best = nullptr;
  const ScalingRow* worst = nullptr;
  const ScalingRow* fallback = nullptr;
  for (const auto& row : rows) {
    if (row.ranks != rank_list.back()) continue;
    if (row.label == "Shrink(Best)") best = &row;
    if (row.label == "Shrink(Worst)") worst = &row;
    if (row.label == "Default") fallback = &row;
  }
  if (best != nullptr && worst != nullptr && fallback != nullptr) {
    std::printf("shape check at p=%d: Best work %.0fk <= Default work %.0fk : %s\n",
                rank_list.back(),
                static_cast<double>(best->result.max_rank_kernel_evaluations) / 1000.0,
                static_cast<double>(fallback->result.max_rank_kernel_evaluations) / 1000.0,
                best->result.max_rank_kernel_evaluations <=
                        fallback->result.max_rank_kernel_evaluations
                    ? "OK"
                    : "VIOLATED");
    // Best passes within 5% of Worst; the line prints that factor, so the
    // inequality it shows is the one it tested.
    constexpr double kWorstSlack = 1.05;
    std::printf("shape check at p=%d: Best modeled %.3fs <= %.2f x Worst modeled %.3fs : %s\n",
                rank_list.back(), best->result.modeled_seconds, kWorstSlack,
                worst->result.modeled_seconds,
                best->result.modeled_seconds <= worst->result.modeled_seconds * kWorstSlack
                    ? "OK"
                    : "INVERTED (see EXPERIMENTS.md)");
  }
  return 0;
}

}  // namespace svmbench
