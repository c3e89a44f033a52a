// One-class SVM example: learn the support of "normal" traffic-like data,
// then flag novel points. Shows the nu-property (nu upper-bounds the
// training rejection rate and lower-bounds the SV fraction).
//
//   ./anomaly_detection [--n 400] [--nu 0.1]
#include <cstdio>

#include "baseline/one_class.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const svmutil::CliFlags flags(argc, argv, {"n", "nu"});
  const std::size_t n = flags.get_int("n", 400);
  const double nu = flags.get_double("nu", 0.1);

  // "Normal" samples: a correlated 6-d cluster.
  svmutil::Rng rng(99);
  svmdata::CsrMatrix train;
  for (std::size_t i = 0; i < n; ++i) {
    const double base = rng.normal();
    std::vector<svmdata::Feature> row;
    for (int j = 0; j < 6; ++j)
      row.push_back(svmdata::Feature{j, 0.7 * base + 0.5 * rng.normal()});
    train.add_row(row);
  }

  svmbaseline::OneClassOptions options;
  options.nu = nu;
  options.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(4.0);
  const auto result = svmbaseline::solve_one_class(train, options);
  const auto model = result.to_model(train, options.kernel);

  std::size_t rejected = 0;
  std::size_t support_vectors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (model.decision_value(train.row(i)) < 0) ++rejected;
    if (result.alpha[i] > 0) ++support_vectors;
  }
  std::printf("one-class SVM, nu=%.2f on %zu normal samples\n", nu, n);
  std::printf("training rejection rate: %.1f%% (nu-bound: <= ~%.0f%%)\n",
              100.0 * rejected / static_cast<double>(n), 100.0 * nu);
  std::printf("support vector fraction: %.1f%% (nu-bound: >= ~%.0f%%)\n\n",
              100.0 * support_vectors / static_cast<double>(n), 100.0 * nu);

  // Score probes at increasing distance from the cluster.
  svmutil::TextTable table({"probe", "distance from center", "decision value", "verdict"});
  for (const double scale : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    std::vector<svmdata::Feature> probe;
    for (int j = 0; j < 6; ++j) probe.push_back(svmdata::Feature{j, scale});
    svmdata::CsrMatrix P;
    P.add_row(probe);
    const double f = model.decision_value(P.row(0));
    char name[32];  // room for the longest %g, "-1.79769e+308"
    std::snprintf(name, sizeof(name), "(%g,...)", scale);
    table.add_row({name, svmutil::TextTable::num(scale * 2.449, 2),
                   svmutil::TextTable::num(f, 4), f >= 0 ? "normal" : "ANOMALY"});
  }
  table.print();
  return 0;
}
