#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>

#include "data/libsvm_io.hpp"
#include "data/synthetic.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

// The concept seeds are fixed so that --seed draws new samples of the same
// problem (svmdata's `draw` stream). Solve difficulty, support-vector count
// and accuracy then vary with the seed only as much as a new sample of one
// dataset does, which keeps run-to-run spread close to timing noise.
constexpr std::uint64_t kHiggsConcept = 4;
constexpr std::uint64_t kUrlConcept = 3;

struct ShapeSpec {
  std::size_t n;       ///< training rows per draw (held-out draw is 10x)
  std::size_t n_tiny;  ///< training rows at self-test size
  double C;
  double sigma_sq;
};

// Zoo shapes (data/zoo.cpp): higgs and url at their scale-0.25/0.5 sizes,
// with the paper's Table III C and sigma^2.
ShapeSpec spec_of(Shape shape) {
  return shape == Shape::higgs ? ShapeSpec{1500, 200, 32.0, 64.0}
                               : ShapeSpec{2000, 240, 10.0, 4.0};
}

svmdata::Dataset generate(Shape shape, std::size_t n, std::uint64_t draw) {
  namespace syn = svmdata::synthetic;
  if (shape == Shape::higgs)
    return syn::dense_tabular(
        {.n = n, .d = 28, .overlap = 0.30, .seed = kHiggsConcept, .draw = draw});
  return syn::sparse_binary({.n = n, .d = 30000, .nnz_per_row = 30, .pool_overlap = 0.30,
                             .prototypes_per_class = 25, .resample_fraction = 0.25,
                             .seed = kUrlConcept, .draw = draw});
}

/// Feature scale that puts the mean pairwise squared distance of the
/// training rows at sigma^2, as the zoo does for its pre-scaled datasets
/// (fit on the first training draw, applied to every draw).
double sigma_factor(const svmdata::Dataset& train, double sigma_sq) {
  const std::size_t m = std::min<std::size_t>(train.size(), 128);
  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i + 1; j < m; ++j, ++pairs)
      sum += svmdata::CsrMatrix::squared_distance(
          train.X.row(i), train.X.row(j), svmdata::CsrMatrix::squared_norm(train.X.row(i)),
          svmdata::CsrMatrix::squared_norm(train.X.row(j)));
  const double mean = pairs > 0 ? sum / static_cast<double>(pairs) : 0.0;
  return mean > 0.0 ? std::sqrt(sigma_sq / mean) : 1.0;
}

svmdata::Dataset scaled(const svmdata::Dataset& in, double factor) {
  svmdata::Dataset out;
  out.y = in.y;
  out.X.reserve(in.X.rows(), in.X.nonzeros());
  std::vector<svmdata::Feature> row;
  for (std::size_t i = 0; i < in.X.rows(); ++i) {
    row.assign(in.X.row(i).begin(), in.X.row(i).end());
    for (svmdata::Feature& f : row) f.value *= factor;
    out.X.add_row(row);
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"smo-dense", Shape::higgs, svmcore::SolverAlgo::smo, 0.7, false},
      {"pbm-sparse", Shape::url, svmcore::SolverAlgo::pbm, 0.7, false},
      {"serve-open", Shape::higgs, svmcore::SolverAlgo::smo, 0.5, true},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

Inputs make_inputs(const Workload& workload, const Options& options) {
  const ShapeSpec spec = spec_of(workload.shape);
  const std::size_t n = options.tiny ? spec.n_tiny : spec.n;

  // Draws (K+1)*seed .. (K+1)*seed+K-1 train, (K+1)*seed+K is held out.
  const std::uint64_t first_draw = (kTrainDraws + 1) * options.seed;
  Inputs in;
  double factor = 0.0;
  for (std::size_t k = 0; k < kTrainDraws; ++k) {
    const svmdata::Dataset raw = generate(workload.shape, n, first_draw + k);
    if (k == 0) factor = sigma_factor(raw, spec.sigma_sq);
    in.trains.push_back(scaled(raw, factor));
  }
  in.heldout = scaled(generate(workload.shape, 10 * n, first_draw + kTrainDraws), factor);

  in.params.C = spec.C;
  in.params.eps = 1e-3;
  in.params.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(spec.sigma_sq);
  in.params.algo = workload.algo;
  in.train_options.num_ranks = kRanks;
  in.train_options.heuristic = svmcore::Heuristic::best();  // Multi5pc

  in.dir = options.work_dir + "/" + workload.name + "-s" + std::to_string(options.seed);
  std::filesystem::create_directories(in.dir);
  for (std::size_t k = 0; k < kTrainDraws; ++k) {
    in.train_paths.push_back(in.dir + "/train" + std::to_string(k) + ".svm");
    svmdata::write_libsvm_file(in.train_paths.back(), in.trains[k]);
  }
  in.heldout_path = in.dir + "/heldout.svm";
  in.model_path = in.dir + "/model.txt";
  svmdata::write_libsvm_file(in.heldout_path, in.heldout);
  return in;
}

svmserve::ServeOptions serve_options() {
  svmserve::ServeOptions options;
  options.shards = 1;
  options.replicas = 2;
  // Room for 128 ms of arrivals at 2000 req/s: a host stall shorter than
  // the 100 ms deadline delays requests (and shows in p99) instead of
  // shedding them at the default 64-slot queue's 32 ms.
  options.queue_capacity = 256;
  return options;
}

}  // namespace perfbench
