// KernelEngine path comparison: gamma-update throughput of the fused
// dense_scatter path and the vectorized simd RowStore panels vs the
// reference sparse merge join, swept across every zoo shape from dense
// low-dimensional tabular rows (higgs, codrna, forest) to high-dimensional
// sparse binary rows (url, realsim). A panel row costs its full column
// count and a scatter row its nonzeros, so the sweep locates the density at
// which the two paths cross — the measurement kPanelDensity, the cut the
// `automatic` path applies, is placed on. The inner loop is exactly the
// solver's hot loop: one (i_up, i_low) pair evaluated against every row,
// timed as the per-path minimum over interleaved single-sweep samples. Each
// shape also runs one whole solve on dense_scatter and on automatic.
// Results go to stdout as a table and to BENCH_engine.json; the run exits
// nonzero if any path ever disagrees with the reference by a single bit.
//
// Usage: bench_engine_backends [--scale S] [--repeats R] [--quick]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernel/kernel_engine.hpp"

namespace {

using svmdata::Dataset;
using svmkernel::EngineBackend;
using svmkernel::Kernel;
using svmkernel::KernelEngine;

struct DatasetReport {
  std::string name;
  std::size_t n = 0;
  std::size_t d = 0;
  double density = 0.0;
  double reference_pairs_per_s = 0.0;  ///< fused (K_up, K_low) sample evaluations / s
  double dense_scatter_pairs_per_s = 0.0;
  double simd_pairs_per_s = 0.0;
  std::string automatic_path;  ///< what `automatic` resolves to on these rows
  bool automatic_is_faster = false;  ///< it picked the faster of the two paths
  bool parity_ok = true;
  double train_dense_scatter_s = 0.0;
  double train_automatic_s = 0.0;
};

DatasetReport run_dataset(const std::string& name, double scale, int repeats, double eps) {
  const svmdata::ZooEntry& entry = svmdata::zoo_entry(name);
  const Dataset train = svmdata::make_train(entry, scale);
  const Kernel kernel(svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq));
  const std::size_t n = train.size();

  DatasetReport report;
  report.name = name;
  report.n = n;
  report.d = train.dim();
  report.density = train.X.density();

  // Every path runs the identical schedule; every value is compared bitwise
  // against the reference afterwards.
  std::vector<std::unique_ptr<KernelEngine>> engines;
  std::vector<std::vector<double>> values(3);
  for (const EngineBackend path :
       {EngineBackend::reference, EngineBackend::dense_scatter, EngineBackend::simd}) {
    engines.push_back(std::make_unique<KernelEngine>(kernel, train.X, path));
    svmbench::record_sweeps(*engines.back(), train, repeats, values[engines.size() - 1]);
  }
  report.parity_ok = values[1] == values[0] && values[2] == values[0];
  const std::vector<double> sweep_s = svmbench::interleaved_min_sweeps(engines, train, repeats);
  const auto rate = [&](std::size_t c) {
    return sweep_s[c] > 0 ? static_cast<double>(n) / sweep_s[c] : 0.0;
  };
  report.reference_pairs_per_s = rate(0);
  report.dense_scatter_pairs_per_s = rate(1);
  report.simd_pairs_per_s = rate(2);

  const EngineBackend resolved = KernelEngine(kernel, train.X, EngineBackend::automatic).backend();
  report.automatic_path = svmkernel::to_string(resolved);
  report.automatic_is_faster =
      (resolved == EngineBackend::simd) ==
      (report.simd_pairs_per_s >= report.dense_scatter_pairs_per_s);

  // End-to-end: the same solve on the forced scatter path and on the path
  // the rule picks (identical models are test-enforced; here we time them).
  svmcore::SolverParams params = svmbench::params_for(entry, eps);
  svmcore::TrainOptions options;
  options.num_ranks = 1;
  params.engine_backend = EngineBackend::dense_scatter;
  report.train_dense_scatter_s = svmcore::train(train, params, options).solve_seconds;
  params.engine_backend = EngineBackend::automatic;
  report.train_automatic_s = svmcore::train(train, params, options).solve_seconds;
  return report;
}

void write_json(const std::vector<DatasetReport>& reports, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"engine_backends\",\n  \"panel_density_cut\": %.3f,\n"
               "  \"datasets\": [\n",
               svmkernel::kPanelDensity);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DatasetReport& r = reports[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"n\": %zu,\n"
                 "      \"d\": %zu,\n"
                 "      \"density\": %.6f,\n"
                 "      \"reference\": {\"pairs_per_s\": %.1f},\n"
                 "      \"dense_scatter\": {\"pairs_per_s\": %.1f},\n"
                 "      \"simd\": {\"pairs_per_s\": %.1f},\n"
                 "      \"simd_vs_scatter_speedup\": %.3f,\n"
                 "      \"automatic_path\": \"%s\",\n"
                 "      \"automatic_is_faster\": %s,\n"
                 "      \"train_dense_scatter_s\": %.4f,\n"
                 "      \"train_automatic_s\": %.4f,\n"
                 "      \"parity_ok\": %s\n"
                 "    }%s\n",
                 r.name.c_str(), r.n, r.d, r.density, r.reference_pairs_per_s,
                 r.dense_scatter_pairs_per_s, r.simd_pairs_per_s,
                 r.simd_pairs_per_s / r.dense_scatter_pairs_per_s, r.automatic_path.c_str(),
                 r.automatic_is_faster ? "true" : "false", r.train_dense_scatter_s,
                 r.train_automatic_s, r.parity_ok ? "true" : "false",
                 i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const auto [flags, args] = svmbench::parse_args_with(argc, argv, {"repeats"});
  const int repeats = static_cast<int>(flags.get_double("repeats", args.quick ? 20 : 100));

  svmbench::print_banner(
      "KernelEngine paths - panels vs dense scatter vs reference merge join",
      "gamma-update throughput across the zoo shapes, the density crossover "
      "behind kPanelDensity, and whole solves; bit-parity verified inline");

  // Throughput probes: a quarter of each shape's container default size.
  std::vector<DatasetReport> reports;
  for (const svmdata::ZooEntry& entry : svmdata::zoo())
    reports.push_back(run_dataset(entry.name, args.scale * 0.25, repeats, args.eps));
  std::sort(reports.begin(), reports.end(),
            [](const DatasetReport& a, const DatasetReport& b) { return a.density > b.density; });

  svmutil::TextTable table({"dataset", "n", "d", "density %", "ref pairs/s", "scatter pairs/s",
                            "simd pairs/s", "simd/scatter", "automatic", "train scatter s",
                            "train auto s", "parity"});
  int faster = 0;
  for (const DatasetReport& r : reports) {
    faster += r.automatic_is_faster ? 1 : 0;
    table.add_row({r.name, svmutil::TextTable::integer(static_cast<long long>(r.n)),
                   svmutil::TextTable::integer(static_cast<long long>(r.d)),
                   svmutil::TextTable::num(100.0 * r.density, 2),
                   svmutil::TextTable::num(r.reference_pairs_per_s / 1000.0, 1) + "k",
                   svmutil::TextTable::num(r.dense_scatter_pairs_per_s / 1000.0, 1) + "k",
                   svmutil::TextTable::num(r.simd_pairs_per_s / 1000.0, 1) + "k",
                   svmutil::TextTable::num(r.simd_pairs_per_s / r.dense_scatter_pairs_per_s, 3),
                   r.automatic_path + (r.automatic_is_faster ? "" : " (slower)"),
                   svmutil::TextTable::num(r.train_dense_scatter_s, 3),
                   svmutil::TextTable::num(r.train_automatic_s, 3),
                   r.parity_ok ? "OK" : "BROKEN"});
  }
  table.print();
  std::printf("\nkPanelDensity = %.2f: automatic takes the faster path on %d of %zu shapes\n\n",
              svmkernel::kPanelDensity, faster, reports.size());

  write_json(reports, "BENCH_engine.json");

  for (const DatasetReport& r : reports) {
    if (!r.parity_ok) {
      std::fprintf(stderr, "PARITY VIOLATION on %s: paths disagree bitwise\n", r.name.c_str());
      return 1;
    }
  }
  return 0;
}
