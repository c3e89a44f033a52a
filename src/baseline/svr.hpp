// Epsilon support-vector regression, libsvm's EPSILON_SVR on the generic SMO
// solver. The dual has 2n variables (alpha for the upper tube side, alpha*
// for the lower):
//   minimize 0.5 b'Qb + p'b,  b = [alpha; alpha*],  y = [+1...; -1...],
//   Q(k, j) = s_k s_j K(k mod n, j mod n),
//   p_k = epsilon - y_k (k < n),  p_k = epsilon + y_{k-n} (k >= n),
// and the regressor is f(x) = sum_i (alpha_i - alpha*_i) K(x_i, x) - rho.
// The paper's conclusion positions the system for "classification and
// regression"; this module supplies the regression half.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "data/sparse.hpp"
#include "kernel/kernel.hpp"

namespace svmbaseline {

struct SvrOptions {
  double C = 1.0;
  double epsilon_tube = 0.1;  ///< insensitive-loss half-width (libsvm -p)
  double eps = 1e-3;          ///< optimizer tolerance (libsvm -e)
  svmkernel::KernelParams kernel{};
  std::size_t cache_mb = 256;
  bool use_shrinking = true;
  bool use_openmp = true;
  std::uint64_t max_iterations = 100'000'000;
};

struct SvrResult {
  std::vector<double> coef;  ///< alpha_i - alpha*_i per training sample
  double rho = 0.0;          ///< f(x) = sum coef_i K(x_i, x) - rho
  std::uint64_t iterations = 0;
  std::uint64_t kernel_evaluations = 0;
  bool converged = false;
  double solve_seconds = 0.0;

  /// Builds the prediction model (an SvmModel whose decision_value IS the
  /// regression output) from the support vectors (coef != 0).
  [[nodiscard]] svmcore::SvmModel to_model(const svmdata::CsrMatrix& X,
                                           const svmkernel::KernelParams& kernel) const;
};

/// Trains epsilon-SVR on rows of X against real-valued `targets`.
/// Throws std::invalid_argument on size mismatch or fewer than two samples.
[[nodiscard]] SvrResult solve_svr(const svmdata::CsrMatrix& X, std::span<const double> targets,
                                  const SvrOptions& options);

}  // namespace svmbaseline
