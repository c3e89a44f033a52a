// Precision-flavor benchmark: throughput vs memory vs accuracy for the
// RowStore kernel data path, per flavor (f64/f32/f16/i8) and backend
// (scalar dense_scatter baseline vs vectorized simd panels), on the two
// dense-shaped zoo datasets the flavored path targets (higgs tabular rows,
// usps pixel rows).
//
// Writes BENCH_precision.json. With --assert the run exits nonzero unless
// every gate holds:
//   - simd/f64 reproduces the scalar kernel sweep BITWISE,
//   - simd/f32 kernel-eval throughput >= 1.5x the scalar double baseline,
//   - prediction disagreement vs f64 <= 0.5% (f32), 1% (f16), 2% (i8).
//
// Usage: bench_precision [--scale S] [--repeats R] [--quick] [--assert]
#include <cinttypes>
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
using svmkernel::RowFlavor;

struct ConfigReport {
  std::string backend;
  std::string flavor;
  double seconds = 0.0;
  double evals_per_s_throughput = 0.0;  ///< kernel values produced / second
  std::size_t store_bytes = 0;          ///< resident flavored row payload
  double accuracy = 0.0;                ///< test accuracy with this engine
  double disagreement = 0.0;            ///< decision flips vs the f64 engine
  bool bitwise_equal_f64 = true;        ///< sweep values match scalar bitwise
};

struct DatasetReport {
  std::string name;
  std::size_t n = 0, d = 0, test_n = 0;
  std::vector<ConfigReport> configs;
  double simd_f32_speedup_vs_scalar = 0.0;
};

DatasetReport run_dataset(const std::string& name, double scale, int repeats, double eps) {
  const svmdata::ZooEntry& entry = svmdata::zoo_entry(name);
  const Dataset train = svmdata::make_train(entry, scale);
  // Some zoo entries carry no test split; score the training rows then (the
  // metric that matters here is cross-flavor DISAGREEMENT, not generalization).
  Dataset test = svmdata::make_test(entry, scale);
  if (test.size() == 0) test = train;
  const Kernel kernel(svmkernel::KernelParams::rbf_with_sigma_sq(entry.sigma_sq));
  const std::size_t n = train.size();

  DatasetReport report;
  report.name = name;
  report.n = n;
  report.d = train.dim();
  report.test_n = test.size();

  // One model for the accuracy leg (f64 training; the flavors only change
  // how PREDICTION evaluates it).
  svmcore::SolverParams params = svmbench::params_for(entry, eps);
  svmcore::TrainOptions options;
  options.num_ranks = 1;
  const svmcore::TrainResult trained = svmcore::train(train, params, options);
  const svmcore::SvmModel& model = trained.model;

  // f64 reference decisions for the disagreement metric.
  std::vector<bool> f64_decisions(test.size());
  {
    auto engine = model.make_engine(EngineBackend::dense_scatter);
    for (std::size_t i = 0; i < test.size(); ++i)
      f64_decisions[i] = model.decision_value(test.X.row(i), engine) >= 0.0;
  }

  const struct {
    EngineBackend backend;
    RowFlavor flavor;
  } configs[] = {{EngineBackend::dense_scatter, RowFlavor::f64},
                 {EngineBackend::simd, RowFlavor::f64},
                 {EngineBackend::simd, RowFlavor::f32},
                 {EngineBackend::simd, RowFlavor::f16},
                 {EngineBackend::simd, RowFlavor::i8}};

  // Build every engine up front: parity values first (untimed, exactly
  // `repeats` sweeps each so the value streams align), then the round-robin
  // minimum-time sampling over all of them at once.
  double scalar_throughput = 0.0;
  const std::size_t n_configs = sizeof(configs) / sizeof(configs[0]);
  std::vector<std::unique_ptr<KernelEngine>> engines;
  std::vector<std::vector<double>> values(n_configs);
  for (std::size_t c = 0; c < n_configs; ++c) {
    engines.push_back(std::make_unique<KernelEngine>(kernel, train.X, configs[c].backend, 0, n,
                                                     /*cache_budget_bytes=*/0,
                                                     configs[c].flavor));
    svmbench::record_sweeps(*engines[c], train, repeats, values[c]);
  }
  const std::vector<double> sweep_seconds =
      svmbench::interleaved_min_sweeps(engines, train, repeats * 5 > 500 ? repeats * 5 : 500);

  for (std::size_t c = 0; c < n_configs; ++c) {
    ConfigReport r;
    r.backend = svmkernel::to_string(configs[c].backend);
    r.flavor = svmkernel::to_string(configs[c].flavor);
    r.seconds = sweep_seconds[c] * static_cast<double>(repeats);
    r.evals_per_s_throughput =
        r.seconds > 0
            ? 2.0 * static_cast<double>(repeats) * static_cast<double>(n) / r.seconds
            : 0.0;
    r.store_bytes = engines[c]->store_bytes();
    if (configs[c].backend == EngineBackend::dense_scatter) {
      scalar_throughput = r.evals_per_s_throughput;
    } else if (configs[c].flavor == RowFlavor::f64) {
      for (std::size_t i = 0; i < values[c].size(); ++i)
        if (values[c][i] != values[0][i]) r.bitwise_equal_f64 = false;
    } else {
      r.bitwise_equal_f64 = false;  // approximate by design
    }

    // Accuracy leg: score the test split through a flavored predict engine.
    auto predict_engine = model.make_engine(configs[c].backend, configs[c].flavor);
    std::size_t correct = 0, flips = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      const bool decision = model.decision_value(test.X.row(i), predict_engine) >= 0.0;
      if (decision == (test.y[i] > 0.0)) ++correct;
      if (decision != f64_decisions[i]) ++flips;
    }
    r.accuracy = test.size() == 0 ? 0.0
                              : static_cast<double>(correct) / static_cast<double>(test.size());
    r.disagreement =
        test.size() == 0 ? 0.0 : static_cast<double>(flips) / static_cast<double>(test.size());
    report.configs.push_back(r);
  }

  for (const ConfigReport& r : report.configs)
    if (r.backend == "simd" && r.flavor == "f32" && scalar_throughput > 0)
      report.simd_f32_speedup_vs_scalar = r.evals_per_s_throughput / scalar_throughput;
  return report;
}

void write_json(const std::vector<DatasetReport>& reports, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"precision\",\n  \"datasets\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DatasetReport& d = reports[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"n\": %zu,\n"
                 "      \"d\": %zu,\n"
                 "      \"test_n\": %zu,\n"
                 "      \"simd_f32_speedup_vs_scalar\": %.3f,\n"
                 "      \"configs\": [\n",
                 d.name.c_str(), d.n, d.d, d.test_n, d.simd_f32_speedup_vs_scalar);
    for (std::size_t j = 0; j < d.configs.size(); ++j) {
      const ConfigReport& c = d.configs[j];
      std::fprintf(f,
                   "        {\"backend\": \"%s\", \"flavor\": \"%s\", "
                   "\"evals_per_s_throughput\": %.1f, \"seconds\": %.6f, "
                   "\"store_bytes\": %zu, \"accuracy\": %.6f, "
                   "\"disagreement_vs_f64\": %.6f, \"bitwise_equal_f64\": %s}%s\n",
                   c.backend.c_str(), c.flavor.c_str(), c.evals_per_s_throughput, c.seconds,
                   c.store_bytes, c.accuracy, c.disagreement,
                   c.bitwise_equal_f64 ? "true" : "false",
                   j + 1 < d.configs.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

/// Gate table: per-flavor maximum decision disagreement vs the f64 engine.
double gate_for(const std::string& flavor) {
  if (flavor == "f32") return 0.005;
  if (flavor == "f16") return 0.01;
  return 0.02;  // i8
}

}  // namespace

int main(int argc, char** argv) {
  const auto [flags, args] = svmbench::parse_args_with(argc, argv, {"assert!", "repeats"});
  const bool quick = args.quick;
  const bool do_assert = flags.get_bool("assert");
  // This bench's workloads are throughput probes: smaller than the figure
  // benches' defaults, and extra-small under --quick.
  const double scale = flags.get_double("scale", 1.0) * (quick ? 0.1 : 0.25);
  const double eps = args.eps;
  const int repeats = static_cast<int>(flags.get_double("repeats", quick ? 20 : 100));

  svmbench::print_banner(
      "Precision flavors - throughput vs memory vs accuracy",
      "RowStore f64/f32/f16/i8 under the scalar and simd backends; simd f64 "
      "bit-exact, reduced flavors accuracy-gated");

  std::vector<DatasetReport> reports;
  for (const char* name : {"higgs", "usps"})
    reports.push_back(run_dataset(name, scale, repeats, eps));

  svmutil::TextTable table({"dataset", "backend", "flavor", "Mevals/s", "store MB", "acc %",
                            "disagree %", "f64-bitwise"});
  for (const DatasetReport& d : reports)
    for (const ConfigReport& c : d.configs)
      table.add_row({d.name, c.backend, c.flavor,
                     svmutil::TextTable::num(c.evals_per_s_throughput / 1e6, 2),
                     svmutil::TextTable::num(static_cast<double>(c.store_bytes) / 1e6, 2),
                     svmutil::TextTable::num(100.0 * c.accuracy, 2),
                     svmutil::TextTable::num(100.0 * c.disagreement, 3),
                     c.bitwise_equal_f64 ? "yes" : "-"});
  table.print();
  for (const DatasetReport& d : reports)
    std::printf("%s: simd/f32 speedup vs scalar double = %.2fx\n", d.name.c_str(),
                d.simd_f32_speedup_vs_scalar);
  std::printf("\n");

  write_json(reports, "BENCH_precision.json");

  int violations = 0;
  for (const DatasetReport& d : reports) {
    for (const ConfigReport& c : d.configs) {
      if (c.backend == "simd" && c.flavor == "f64" && !c.bitwise_equal_f64) {
        std::fprintf(stderr, "GATE: %s simd/f64 not bitwise equal to scalar\n",
                     d.name.c_str());
        ++violations;
      }
      if (c.backend == "simd" && c.flavor != "f64" && c.disagreement > gate_for(c.flavor)) {
        std::fprintf(stderr, "GATE: %s simd/%s disagreement %.4f > %.4f\n", d.name.c_str(),
                     c.flavor.c_str(), c.disagreement, gate_for(c.flavor));
        ++violations;
      }
    }
    if (d.simd_f32_speedup_vs_scalar < 1.5) {
      std::fprintf(stderr, "GATE: %s simd/f32 speedup %.2fx < 1.5x\n", d.name.c_str(),
                   d.simd_f32_speedup_vs_scalar);
      ++violations;
    }
  }
  if (violations > 0) {
    std::fprintf(stderr, "%d precision gate(s) violated\n", violations);
    if (do_assert) return 1;
  } else {
    std::printf("all precision gates hold\n");
  }
  return 0;
}
