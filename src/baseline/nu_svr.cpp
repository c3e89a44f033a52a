#include "baseline/nu_svr.hpp"

#include <algorithm>
#include <stdexcept>

#include "baseline/generic_smo.hpp"
#include "kernel/kernel_engine.hpp"
#include "util/timer.hpp"

namespace svmbaseline {

svmcore::SvmModel NuSvrResult::to_model(const svmdata::CsrMatrix& X,
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

NuSvrResult solve_nu_svr(const svmdata::CsrMatrix& X, std::span<const double> targets,
                         const NuSvrOptions& options) {
  const std::size_t n = X.rows();
  if (n != targets.size())
    throw std::invalid_argument("solve_nu_svr: row/target count mismatch");
  if (n < 2) throw std::invalid_argument("solve_nu_svr: need at least two samples");
  if (options.nu <= 0.0 || options.nu > 1.0)
    throw std::invalid_argument("solve_nu_svr: nu must be in (0, 1]");

  svmutil::Timer timer;
  const std::size_t l = 2 * n;
  const svmkernel::Kernel kernel(options.kernel);
  // Raw K rows per real sample from the engine's Q-row cache (scatter path:
  // no panels are read); Q rows are materialized locally with the sign
  // pattern (as in epsilon-SVR).
  svmkernel::KernelEngine engine(kernel, X, svmkernel::EngineBackend::dense_scatter,
                                 options.cache_mb * (std::size_t{1} << 20));

  std::vector<double> y(l);
  std::vector<double> linear(l);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 1.0;
    y[i + n] = -1.0;
    linear[i] = -targets[i];
    linear[i + n] = targets[i];
  }

  // Warm start (libsvm solve_nu_svr): distribute C*nu*l/2 alpha mass over
  // both tube sides symmetrically.
  double sum = options.C * options.nu * static_cast<double>(n) / 2.0;
  std::vector<double> initial(l, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    initial[i] = initial[i + n] = std::min(sum, options.C);
    sum -= initial[i];
  }

  std::vector<double> k_diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sq_i = engine.sq_norm(i);
    k_diag[i] = engine.eval_one(X.row(i), X.row(i), sq_i, sq_i);
  }
  std::vector<double> q_diag(l);
  for (std::size_t k = 0; k < l; ++k) q_diag[k] = k_diag[k % n];

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
  problem.initial_alpha = initial;

  detail::GenericOptions solver_options;
  solver_options.eps = options.eps;
  solver_options.use_shrinking = options.use_shrinking;
  solver_options.max_iterations = options.max_iterations;
  solver_options.nu_variant = true;

  const detail::GenericResult generic = detail::solve_generic_smo(problem, solver_options);

  NuSvrResult result;
  result.coef.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    result.coef[i] = generic.alpha[i] - generic.alpha[i + n];
  result.rho = generic.rho;
  result.epsilon_tube = -generic.r;  // libsvm: "epsilon = -r"
  result.iterations = generic.iterations;
  result.converged = generic.converged;
  result.kernel_evaluations = kernel.evaluations();
  result.solve_seconds = timer.seconds();
  return result;
}

}  // namespace svmbaseline
