#include "baseline/one_class.hpp"

#include <cmath>
#include <stdexcept>

#include "baseline/generic_smo.hpp"
#include "kernel/kernel_engine.hpp"
#include "util/timer.hpp"

namespace svmbaseline {

svmcore::SvmModel OneClassResult::to_model(const svmdata::CsrMatrix& X,
                                           const svmkernel::KernelParams& kernel) const {
  svmdata::CsrMatrix support_vectors;
  std::vector<double> sv_coef;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    if (alpha[i] > 0.0) {
      support_vectors.add_row(X.row(i));
      sv_coef.push_back(alpha[i]);
    }
  }
  return svmcore::SvmModel(kernel, std::move(support_vectors), std::move(sv_coef), rho);
}

OneClassResult solve_one_class(const svmdata::CsrMatrix& X, const OneClassOptions& options) {
  const std::size_t n = X.rows();
  if (n < 2) throw std::invalid_argument("solve_one_class: need at least two samples");
  if (options.nu <= 0.0 || options.nu > 1.0)
    throw std::invalid_argument("solve_one_class: nu must be in (0, 1]");

  svmutil::Timer timer;
  const svmkernel::Kernel kernel(options.kernel);
  // Unscaled Q = K for one-class: cached scatter-path rows, no row scale.
  svmkernel::KernelEngine engine(kernel, X, svmkernel::EngineBackend::dense_scatter,
                                 options.cache_mb * (std::size_t{1} << 20));

  std::vector<double> q_diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sq_i = engine.sq_norm(i);
    q_diag[i] = engine.eval_one(X.row(i), X.row(i), sq_i, sq_i);
  }

  auto q_row = [&](std::size_t i) -> std::span<const float> {
    return engine.k_row_floats(i, n, options.use_openmp);
  };

  // libsvm's warm start: nu*l mass spread over the first ceil(nu*l) alphas.
  const double upper = 1.0;  // variables scaled by nu*l: C = 1, sum = nu*l
  // libsvm uses alpha in [0,1] with sum = nu*l (equivalent scaling of the
  // standard 1/(nu l) box).
  const double total = options.nu * static_cast<double>(n);
  const auto full = static_cast<std::size_t>(total);
  std::vector<double> initial(n, 0.0);
  for (std::size_t i = 0; i < full && i < n; ++i) initial[i] = 1.0;
  if (full < n) initial[full] = total - static_cast<double>(full);

  const std::vector<double> y(n, 1.0);
  const std::vector<double> linear(n, 0.0);

  detail::GenericProblem problem;
  problem.size = n;
  problem.y = y;
  problem.linear = linear;
  problem.q_diag = q_diag;
  problem.q_row = q_row;
  problem.C_of = [upper](std::size_t) { return upper; };
  problem.initial_alpha = initial;

  detail::GenericOptions solver_options;
  solver_options.eps = options.eps;
  solver_options.use_shrinking = options.use_shrinking;
  solver_options.max_iterations = options.max_iterations;

  detail::GenericResult generic = detail::solve_generic_smo(problem, solver_options);

  OneClassResult result;
  // Rescale alphas so the decision uses sum alpha = 1 (divide by nu*l).
  result.alpha = std::move(generic.alpha);
  for (double& a : result.alpha) a /= total;
  result.rho = generic.rho / total;
  result.iterations = generic.iterations;
  result.converged = generic.converged;
  result.kernel_evaluations = kernel.evaluations();
  result.solve_seconds = timer.seconds();
  return result;
}

}  // namespace svmbaseline
