// End-to-end benchmark of the distributed SVM system: three workloads
// (smo-dense, pbm-sparse, serve-open), each a full user session of loading
// data, training a model and serving predictions from it. The untraced run
// reports the end-to-end metrics; the traced run (--trace 1) additionally
// replays calls into each layer's public functions (data, mpisim, kernel,
// core, solver, serve) with the workload's own inputs and reports the
// per-layer metrics. The metric catalog is mirrored in BENCHMARK.json.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/sparse.hpp"
#include "serve/serving.hpp"

namespace perfbench {

/// Fixed serving load of every workload: independent users at a fixed
/// rate (open loop), never a fraction of a capacity measured in the run.
constexpr double kServeQps = 2000.0;
constexpr int kRanks = 2;  ///< rank threads per solve; see METRICS.md

enum class Shape { higgs, url };

struct Workload {
  const char* name;
  Shape shape;
  svmcore::SolverAlgo algo;
  /// Share of the measured seconds spent in timed solves; the rest serves.
  double train_share;
  /// Accuracy from the service's answers (shed or late ones count as
  /// wrong) instead of from the model over the whole held-out draw.
  bool scores_service;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< self-test size: inputs ~8x smaller, short sessions
  std::string work_dir = ".bench_build/work";
};

/// Training draws per run. Solve work varies by about +-5% from one draw
/// to the next (SMO iterations 13.0k-15.8k over ten higgs-shape draws), so
/// train_s averages several draws to keep that out of its spread.
constexpr std::size_t kTrainDraws = 4;

/// The workload's generated inputs, written as libsvm files before any
/// clock starts: kTrainDraws training draws and one held-out draw ten times
/// the training size. The datasets are the in-memory originals the parsed
/// files are checked against.
struct Inputs {
  std::vector<svmdata::Dataset> trains;
  svmdata::Dataset heldout;
  svmcore::SolverParams params;
  svmcore::TrainOptions train_options;
  std::string dir;
  std::vector<std::string> train_paths;
  std::string heldout_path;
  std::string model_path;  ///< the model trained on the first draw
};

[[nodiscard]] Inputs make_inputs(const Workload& workload, const Options& options);

/// Service configuration of every serving session: 1 shard x 2 replicas.
[[nodiscard]] svmserve::ServeOptions serve_options();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Outcome of one benchmark run. `checks` lists every failed output check;
/// a non-empty list makes the run incorrect and its exit status non-zero.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> checks;
  std::vector<Metric> metrics;
  /// Ungated noise and provenance figures printed beside the result.
  std::vector<std::pair<std::string, std::string>> info;

  void fail(std::string what) { checks.push_back(std::move(what)); }
  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
};

// --- helpers shared by the end-to-end run and the layer replays -----------

/// Median of finite samples (0 for an empty list).
[[nodiscard]] double median(std::vector<double> values);

/// Seconds on the monotonic clock since an arbitrary process-wide origin.
[[nodiscard]] double now_s();

/// Bitwise equality of two doubles (distinguishes -0.0 and NaN payloads).
[[nodiscard]] bool same_bits(double a, double b);

// --- layer replays (traced run only) --------------------------------------

class SpanRecorder;

/// What the traced run's end-to-end section hands to the layer replays.
struct TracedContext {
  const Inputs* inputs = nullptr;
  const svmcore::TrainResult* reference = nullptr;  ///< the warm-up solve
  const svmcore::SvmModel* model = nullptr;          ///< loaded from file
  double train_s = 0.0;  ///< the first draw's median timed train() wall time
  bool tiny = false;     ///< self-test size: fewer replay repetitions
};

/// Runs every layer replay and appends the per-layer metrics.
void replay_layers(const TracedContext& context, SpanRecorder& spans, Outcome& out);

}  // namespace perfbench
