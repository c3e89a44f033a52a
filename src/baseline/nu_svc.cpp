#include "baseline/nu_svc.hpp"

#include <algorithm>
#include <stdexcept>

#include "baseline/generic_smo.hpp"
#include "kernel/kernel_engine.hpp"
#include "util/timer.hpp"

namespace svmbaseline {

svmcore::SvmModel NuSvcResult::to_model(const svmdata::CsrMatrix& X,
                                        const svmkernel::KernelParams& kernel) const {
  svmdata::CsrMatrix support_vectors;
  std::vector<double> sv_coef;
  for (std::size_t i = 0; i < coef.size(); ++i) {
    if (coef[i] != 0.0) {
      support_vectors.add_row(X.row(i));
      sv_coef.push_back(coef[i]);
    }
  }
  return svmcore::SvmModel(kernel, std::move(support_vectors), std::move(sv_coef), rho);
}

NuSvcResult solve_nu_svc(const svmdata::Dataset& dataset, const NuSvcOptions& options) {
  dataset.validate();
  const std::size_t n = dataset.size();
  if (n < 2) throw std::invalid_argument("solve_nu_svc: need at least two samples");
  if (options.nu <= 0.0 || options.nu > 1.0)
    throw std::invalid_argument("solve_nu_svc: nu must be in (0, 1]");

  std::size_t n_pos = 0;
  for (const double y : dataset.y)
    if (y > 0) ++n_pos;
  const std::size_t n_neg = n - n_pos;
  if (n_pos == 0 || n_neg == 0)
    throw std::invalid_argument("solve_nu_svc: dataset must contain both classes");
  const double nu_max =
      2.0 * static_cast<double>(std::min(n_pos, n_neg)) / static_cast<double>(n);
  if (options.nu > nu_max)
    throw std::invalid_argument("solve_nu_svc: nu infeasible for class balance (max " +
                                std::to_string(nu_max) + ")");

  svmutil::Timer timer;
  const svmkernel::Kernel kernel(options.kernel);
  // Label-scaled Q rows (Q_ij = y_i y_j K_ij) from the engine's Q-row cache
  // (scatter path: no panels are read).
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

  // libsvm's nu-SVC warm start: nu*l/2 alpha mass per class, box C = 1.
  double sum_pos = options.nu * static_cast<double>(n) / 2.0;
  double sum_neg = sum_pos;
  std::vector<double> initial(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (dataset.y[i] > 0) {
      initial[i] = std::min(1.0, sum_pos);
      sum_pos -= initial[i];
    } else {
      initial[i] = std::min(1.0, sum_neg);
      sum_neg -= initial[i];
    }
  }

  const std::vector<double> linear(n, 0.0);

  detail::GenericProblem problem;
  problem.size = n;
  problem.y = dataset.y;
  problem.linear = linear;
  problem.q_diag = q_diag;
  problem.q_row = q_row;
  problem.C_of = [](std::size_t) { return 1.0; };
  problem.initial_alpha = initial;

  detail::GenericOptions solver_options;
  solver_options.eps = options.eps;
  solver_options.use_shrinking = options.use_shrinking;
  solver_options.max_iterations = options.max_iterations;
  solver_options.nu_variant = true;

  const detail::GenericResult generic = detail::solve_generic_smo(problem, solver_options);
  const double r = generic.r;
  if (r <= 0.0)
    throw std::runtime_error("solve_nu_svc: degenerate solution (r <= 0); nu too large?");

  NuSvcResult result;
  result.coef.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.coef[i] = generic.alpha[i] * dataset.y[i] / r;
  result.rho = generic.rho / r;
  result.iterations = generic.iterations;
  result.converged = generic.converged;
  result.kernel_evaluations = kernel.evaluations();
  result.solve_seconds = timer.seconds();
  return result;
}

}  // namespace svmbaseline
