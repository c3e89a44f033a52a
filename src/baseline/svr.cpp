#include "baseline/svr.hpp"

#include <stdexcept>

#include "baseline/generic_smo.hpp"
#include "kernel/kernel_engine.hpp"
#include "util/timer.hpp"

namespace svmbaseline {

svmcore::SvmModel SvrResult::to_model(const svmdata::CsrMatrix& X,
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

SvrResult solve_svr(const svmdata::CsrMatrix& X, std::span<const double> targets,
                    const SvrOptions& options) {
  const std::size_t n = X.rows();
  if (n != targets.size()) throw std::invalid_argument("solve_svr: row/target count mismatch");
  if (n < 2) throw std::invalid_argument("solve_svr: need at least two samples");
  if (options.epsilon_tube < 0.0)
    throw std::invalid_argument("solve_svr: epsilon_tube must be non-negative");

  svmutil::Timer timer;
  const std::size_t l = 2 * n;
  const svmkernel::Kernel kernel(options.kernel);
  // Raw (unscaled) K rows per real sample from the engine's Q-row cache
  // (scatter path: no panels are read); the 2n-length Q rows are
  // materialized locally with the sign pattern.
  svmkernel::KernelEngine engine(kernel, X, svmkernel::EngineBackend::dense_scatter,
                                 options.cache_mb * (std::size_t{1} << 20));

  // Signs and linear term of the 2n-variable dual.
  std::vector<double> y(l);
  std::vector<double> linear(l);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 1.0;
    y[i + n] = -1.0;
    linear[i] = options.epsilon_tube - targets[i];
    linear[i + n] = options.epsilon_tube + targets[i];
  }

  std::vector<double> k_diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sq_i = engine.sq_norm(i);
    k_diag[i] = engine.eval_one(X.row(i), X.row(i), sq_i, sq_i);
  }
  std::vector<double> q_diag(l);
  for (std::size_t k = 0; k < l; ++k) q_diag[k] = k_diag[k % n];  // s_k^2 = 1

  // K rows are cached per real sample; the 2n-length Q row is materialized
  // from the cached K row with the sign pattern of variable k.
  std::vector<float> q_buffer(l);
  auto q_row = [&](std::size_t k) -> std::span<const float> {
    const std::span<const float> base = engine.k_row_floats(k % n, n, options.use_openmp);
    const float sign_k = k < n ? 1.0f : -1.0f;
    for (std::size_t j = 0; j < n; ++j) {
      q_buffer[j] = sign_k * base[j];
      q_buffer[j + n] = -sign_k * base[j];
    }
    return q_buffer;
  };

  detail::GenericProblem problem;
  problem.size = l;
  problem.y = y;
  problem.linear = linear;
  problem.q_diag = q_diag;
  problem.q_row = q_row;
  problem.C_of = [&](std::size_t) { return options.C; };

  detail::GenericOptions solver_options;
  solver_options.eps = options.eps;
  solver_options.use_shrinking = options.use_shrinking;
  solver_options.max_iterations = options.max_iterations;

  const detail::GenericResult generic = detail::solve_generic_smo(problem, solver_options);

  SvrResult result;
  result.coef.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.coef[i] = generic.alpha[i] - generic.alpha[i + n];
  result.rho = generic.rho;
  result.iterations = generic.iterations;
  result.converged = generic.converged;
  result.kernel_evaluations = kernel.evaluations();
  result.solve_seconds = timer.seconds();
  return result;
}

}  // namespace svmbaseline
