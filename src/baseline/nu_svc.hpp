// nu-SVC (Schölkopf et al. 2000), libsvm's NU_SVC on the Solver_NU variant
// of the generic SMO: classification where `nu` replaces C, directly
// controlling the solution's shape — nu upper-bounds the fraction of margin
// errors and lower-bounds the fraction of support vectors. Internally the
// dual is solved with per-class sum constraints and the result is rescaled
// by r so prediction takes the familiar f(x) = sum coef_i K(x_i, x) - rho
// form (coefficients bounded by 1/r instead of C).
#pragma once

#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "data/sparse.hpp"
#include "kernel/kernel.hpp"

namespace svmbaseline {

struct NuSvcOptions {
  double nu = 0.3;  ///< in (0, 2*min(n+, n-)/n]
  double eps = 1e-3;
  svmkernel::KernelParams kernel{};
  std::size_t cache_mb = 256;
  bool use_shrinking = true;
  bool use_openmp = true;
  std::uint64_t max_iterations = 100'000'000;
};

struct NuSvcResult {
  std::vector<double> coef;  ///< alpha_i * y_i / r per sample (sv_coef)
  double rho = 0.0;
  std::uint64_t iterations = 0;
  std::uint64_t kernel_evaluations = 0;
  bool converged = false;
  double solve_seconds = 0.0;

  [[nodiscard]] svmcore::SvmModel to_model(const svmdata::CsrMatrix& X,
                                           const svmkernel::KernelParams& kernel) const;
};

/// Trains nu-SVC. Throws std::invalid_argument when nu is infeasible for the
/// class balance (nu > 2*min(n+, n-)/n), out of (0,1], or on bad input.
[[nodiscard]] NuSvcResult solve_nu_svc(const svmdata::Dataset& dataset,
                                       const NuSvcOptions& options);

}  // namespace svmbaseline
