#include "baseline/libsvm_like.hpp"

#include <stdexcept>
#include <vector>

#include "baseline/generic_smo.hpp"
#include "kernel/kernel_engine.hpp"
#include "util/timer.hpp"

namespace svmbaseline {

BaselineResult solve_libsvm_like(const svmdata::Dataset& dataset,
                                 const BaselineOptions& options) {
  dataset.validate();
  const std::size_t n = dataset.size();
  if (n < 2) throw std::invalid_argument("solve_libsvm_like: need at least two samples");

  svmutil::Timer timer;
  const svmkernel::Kernel kernel(options.kernel);
  // k_row_floats computes Q_ij = y_i y_j K_ij rows (set_row_scale bakes the
  // labels in) through the dense scatter path and serves repeats from the
  // LRU row cache; it never reads panels, so the path is forced. The paper's
  // OpenMP enhancement parallelizes exactly this row computation.
  svmkernel::KernelEngine engine(kernel, dataset.X, svmkernel::EngineBackend::dense_scatter,
                                 options.cache_mb * (std::size_t{1} << 20));
  engine.set_row_scale(dataset.y);

  std::vector<double> q_diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sq_i = engine.sq_norm(i);
    q_diag[i] = engine.eval_one(dataset.X.row(i), dataset.X.row(i), sq_i, sq_i);
  }

  auto q_row = [&](std::size_t i) -> std::span<const float> {
    return engine.k_row_floats(i, n, options.use_openmp);
  };

  const std::vector<double> linear(n, -1.0);  // p = -e for C-SVC

  detail::GenericProblem problem;
  problem.size = n;
  problem.y = dataset.y;
  problem.linear = linear;
  problem.q_diag = q_diag;
  problem.q_row = q_row;
  problem.C_of = [&](std::size_t i) { return options.C_of(dataset.y[i]); };

  detail::GenericOptions solver_options;
  solver_options.eps = options.eps;
  solver_options.use_shrinking = options.use_shrinking;
  solver_options.max_iterations = options.max_iterations;

  detail::GenericResult generic = detail::solve_generic_smo(problem, solver_options);

  BaselineResult result;
  result.alpha = std::move(generic.alpha);
  result.rho = generic.rho;
  result.iterations = generic.iterations;
  result.converged = generic.converged;
  result.kernel_evaluations = kernel.evaluations();
  result.cache_hit_rate = engine.cache_hit_rate();
  result.solve_seconds = timer.seconds();
  return result;
}

}  // namespace svmbaseline
