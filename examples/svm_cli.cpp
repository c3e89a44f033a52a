// Command-line front end over libsvm-format files, in the spirit of
// svm-train / svm-predict:
//
//   svm_cli train    data.libsvm model.out  [--c 10] [--sigma-sq 4] [--gamma G]
//                    [--eps 1e-3] [--ranks 4] [--heuristic Multi5pc]
//                    [--kernel rbf|linear|polynomial|sigmoid] [--baseline]
//                    [--w-pos W] [--w-neg W]
//   svm_cli predict  data.libsvm model.in   [--out predictions.txt]
//                    [--engine-flavor f64|f32|f16|i8]
//   svm_cli cv       data.libsvm            [--folds 10] [--c-grid 1,10,32]
//                    [--gamma-grid 0.015625,0.25,1]
//   svm_cli regress  data.libsvm model.out  [--c 10] [--tube 0.1] [--sigma-sq 4]
//   svm_cli outliers data.libsvm model.out  [--nu 0.1] [--sigma-sq 4]
//
// For `regress`, labels in the file are treated as real-valued targets; for
// `outliers`, labels are ignored. With --baseline, `train` uses the
// libsvm-style reference solver instead of the distributed shrinking solver.
// --engine-flavor sets the precision of predict's support-vector rows;
// training always runs f64 and refuses it, and the kernel engine picks its
// own evaluation path.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "baseline/libsvm_like.hpp"
#include "baseline/one_class.hpp"
#include "baseline/svr.hpp"
#include "core/grid_search.hpp"
#include "core/trainer.hpp"
#include "data/libsvm_io.hpp"
#include "kernel/kernel_engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s train    <data> <model-out> [--c C] [--sigma-sq S] [--gamma G] [--eps E]\n"
      "              [--ranks P] [--heuristic H] [--kernel K] [--baseline]\n"
      "              [--solver smo|pbm]      (pbm = parallel block minimization:\n"
      "               one delta sync per outer round instead of a pair\n"
      "               allreduce per iteration; [--pbm-blocks B] fixes the block\n"
      "               count, default = ranks)\n"
      "              [--w-pos W] [--w-neg W]\n"
      "              [--log-level L] [--trace-out trace.json] [--metrics-out m.json]\n"
      "  %s predict  <data> <model-in> [--out predictions.txt]\n"
      "              [--engine-flavor f64|f32|f16|i8]   (support-vector precision)\n"
      "  %s cv       <data> [--folds K] [--c-grid a,b,..] [--gamma-grid a,b,..]\n"
      "  %s regress  <data> <model-out> [--c C] [--tube T] [--sigma-sq S]\n"
      "  %s outliers <data> <model-out> [--nu NU] [--sigma-sq S]\n",
      program, program, program, program, program);
  return 2;
}

svmkernel::KernelParams kernel_from(const svmutil::CliFlags& flags) {
  svmkernel::KernelParams kernel;
  kernel.type = svmkernel::kernel_type_from_string(flags.get("kernel", "rbf"));
  if (flags.has("gamma"))
    kernel.gamma = flags.get_double("gamma", 1.0);
  else
    kernel.gamma = 1.0 / flags.get_double("sigma-sq", 4.0);
  return kernel;
}

std::vector<double> parse_grid(const std::string& list) {
  std::vector<double> values;
  std::size_t at = 0;
  while (at < list.size()) {
    const std::size_t comma = list.find(',', at);
    values.push_back(std::stod(list.substr(at, comma - at)));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return values;
}

int run_train(const svmutil::CliFlags& flags) {
  if (flags.has("engine-flavor"))
    throw std::invalid_argument("--engine-flavor applies to predict only (training runs f64)");
  const svmutil::ObsPaths obs = svmutil::apply_obs_flags(flags);
  const svmdata::Dataset train = svmdata::read_libsvm_file(flags.positional()[1]);
  const std::string model_path = flags.positional()[2];
  const svmkernel::KernelParams kernel = kernel_from(flags);
  const double C = flags.get_double("c", 10.0);
  const double eps = flags.get_double("eps", 1e-3);

  svmcore::SvmModel model;
  if (flags.get_bool("baseline")) {
    svmbaseline::BaselineOptions options;
    options.C = C;
    options.weight_positive = flags.get_double("w-pos", 1.0);
    options.weight_negative = flags.get_double("w-neg", 1.0);
    options.eps = eps;
    options.kernel = kernel;
    const auto result = svmbaseline::solve_libsvm_like(train, options);
    std::printf("baseline: %llu iterations, cache hit rate %.1f%%\n",
                static_cast<unsigned long long>(result.iterations),
                100.0 * result.cache_hit_rate);
    model = svmcore::build_model(train, result.alpha, result.rho, kernel);
  } else {
    svmcore::SolverParams params;
    params.C = C;
    params.eps = eps;
    params.kernel = kernel;
    params.weight_positive = flags.get_double("w-pos", 1.0);
    params.weight_negative = flags.get_double("w-neg", 1.0);
    params.algo = svmcore::solver_algo_from_string(flags.get("solver", "smo"));
    params.pbm_blocks = static_cast<int>(flags.get_int("pbm-blocks", 0));
    svmcore::TrainOptions options;
    options.num_ranks = static_cast<int>(flags.get_int("ranks", 4));
    options.heuristic = svmcore::Heuristic::parse(flags.get("heuristic", "Multi5pc"));
    options.trace_path = obs.trace_out;
    options.metrics_path = obs.metrics_out;
    const auto result = svmcore::train(train, params, options);
    if (!obs.trace_out.empty()) std::printf("trace -> %s\n", obs.trace_out.c_str());
    if (!obs.metrics_out.empty()) std::printf("metrics -> %s\n", obs.metrics_out.c_str());
    if (params.algo == svmcore::SolverAlgo::pbm)
      std::printf("pbm (%s) on %d ranks: %llu outer rounds\n",
                  options.heuristic.name().c_str(), options.num_ranks,
                  static_cast<unsigned long long>(result.iterations));
    else
      std::printf("%s on %d ranks: %llu iterations, %llu samples shrunk, %llu reconstructions\n",
                  options.heuristic.name().c_str(), options.num_ranks,
                  static_cast<unsigned long long>(result.iterations),
                  static_cast<unsigned long long>(result.samples_shrunk),
                  static_cast<unsigned long long>(result.reconstructions));
    model = result.model;
  }

  model.save_file(model_path);
  std::printf("trained on %zu samples -> %zu support vectors -> %s\n", train.size(),
              model.num_support_vectors(), model_path.c_str());
  return 0;
}

int run_predict(const svmutil::CliFlags& flags) {
  const svmkernel::RowFlavor flavor =
      svmkernel::row_flavor_from_string(flags.get("engine-flavor", "f64"));
  const svmdata::Dataset data = svmdata::read_libsvm_file(flags.positional()[1]);
  const svmcore::SvmModel model = svmcore::SvmModel::load_file(flags.positional()[2]);

  // One engine for the whole prediction sweep; flavored engines (f32/f16/i8
  // panels) trade exactness for compressed support-vector storage.
  svmkernel::KernelEngine engine =
      model.make_engine(svmkernel::EngineBackend::automatic, flavor);
  std::vector<double> predictions(data.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    predictions[i] = model.decision_value(data.X.row(i), engine) >= 0.0 ? 1.0 : -1.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (predictions[i] == data.y[i]) ++correct;

  const std::string out_path = flags.get("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    for (const double p : predictions) out << (p > 0 ? "+1" : "-1") << '\n';
    std::printf("predictions written to %s\n", out_path.c_str());
  }
  std::printf("accuracy = %.4f%% (%zu/%zu)\n",
              100.0 * static_cast<double>(correct) / static_cast<double>(data.size()), correct,
              data.size());
  return 0;
}

int run_cv(const svmutil::CliFlags& flags) {
  const svmdata::Dataset data = svmdata::read_libsvm_file(flags.positional()[1]);
  svmcore::GridSearchOptions options;
  options.folds = static_cast<std::size_t>(flags.get_int("folds", 10));
  options.c_values = parse_grid(flags.get("c-grid", "1,10,32"));
  options.gamma_values = parse_grid(flags.get("gamma-grid", "0.015625,0.25,1"));
  const auto result = svmcore::grid_search(data, options);

  svmutil::TextTable table({"C", "gamma", "sigma^2", "mean val acc %", "mean #SV"});
  for (const auto& cell : result.cells)
    table.add_row({svmutil::TextTable::num(cell.C, 2), svmutil::TextTable::num(cell.gamma, 4),
                   svmutil::TextTable::num(1.0 / cell.gamma, 2),
                   svmutil::TextTable::num(100.0 * cell.mean_accuracy, 2),
                   svmutil::TextTable::num(cell.mean_support_vectors, 0)});
  table.print();
  std::printf("\nbest: C=%g gamma=%g (sigma^2=%g), %.2f%% validation accuracy\n",
              result.best.C, result.best.gamma, result.best_sigma_sq(),
              100.0 * result.best.mean_accuracy);
  return 0;
}

int run_regress(const svmutil::CliFlags& flags) {
  // Read targets as raw doubles: parse with the libsvm reader's row logic by
  // loading the file, then re-reading labels leniently.
  std::ifstream in(flags.positional()[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", flags.positional()[1].c_str());
    return 1;
  }
  svmdata::CsrMatrix X;
  std::vector<double> targets;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    double target = 0.0;
    fields >> target;
    targets.push_back(target);
    std::vector<svmdata::Feature> row;
    std::string token;
    while (fields >> token) {
      const auto colon = token.find(':');
      row.push_back(svmdata::Feature{std::stoi(token.substr(0, colon)) - 1,
                                     std::stod(token.substr(colon + 1))});
    }
    X.add_row(row);
  }

  svmbaseline::SvrOptions options;
  options.C = flags.get_double("c", 10.0);
  options.epsilon_tube = flags.get_double("tube", 0.1);
  options.kernel = kernel_from(flags);
  const auto result = svmbaseline::solve_svr(X, targets, options);
  const auto model = result.to_model(X, options.kernel);

  double mse = 0.0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const double err = model.decision_value(X.row(i)) - targets[i];
    mse += err * err;
  }
  std::printf("epsilon-SVR: %zu samples, %zu SVs, training MSE %.6f\n", targets.size(),
              model.num_support_vectors(), mse / static_cast<double>(targets.size()));
  model.save_file(flags.positional()[2]);
  std::printf("model -> %s\n", flags.positional()[2].c_str());
  return 0;
}

int run_outliers(const svmutil::CliFlags& flags) {
  const svmdata::Dataset data = svmdata::read_libsvm_file(flags.positional()[1]);
  svmbaseline::OneClassOptions options;
  options.nu = flags.get_double("nu", 0.1);
  options.kernel = kernel_from(flags);
  const auto result = svmbaseline::solve_one_class(data.X, options);
  const auto model = result.to_model(data.X, options.kernel);

  std::size_t rejected = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (model.decision_value(data.X.row(i)) < 0) ++rejected;
  std::printf("one-class SVM (nu=%.2f): %zu/%zu training samples flagged as outliers\n",
              options.nu, rejected, data.size());
  model.save_file(flags.positional()[2]);
  std::printf("model -> %s\n", flags.positional()[2].c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const svmutil::CliFlags flags(
        argc, argv,
        svmutil::with_obs_flags({"c", "sigma-sq", "gamma", "eps", "ranks", "heuristic", "kernel",
                                 "baseline!", "out", "solver", "pbm-blocks", "w-pos", "w-neg",
                                 "folds", "c-grid", "gamma-grid", "tube", "nu",
                                 "engine-flavor"}));
    if (flags.positional().size() < 2) return usage(argv[0]);
    const std::string& mode = flags.positional()[0];
    if (mode == "cv") return run_cv(flags);
    if (flags.positional().size() < 3) return usage(argv[0]);
    if (mode == "train") return run_train(flags);
    if (mode == "predict") return run_predict(flags);
    if (mode == "regress") return run_regress(flags);
    if (mode == "outliers") return run_outliers(flags);
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
