// nu-SVR, libsvm's NU_SVR on the Solver_NU variant: regression where `nu`
// replaces the epsilon tube width — the tube adapts so that at most a nu
// fraction of samples lie outside it and at least a nu fraction are support
// vectors. The solved dual is the 2n-variable SVR problem with linear term
// -y / +y (no epsilon), per-class sum constraints supplied by the warm
// start, and the effective tube half-width recovered as -r.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "data/sparse.hpp"
#include "kernel/kernel.hpp"

namespace svmbaseline {

struct NuSvrOptions {
  double C = 1.0;
  double nu = 0.5;  ///< in (0, 1]
  double eps = 1e-3;
  svmkernel::KernelParams kernel{};
  std::size_t cache_mb = 256;
  bool use_shrinking = true;
  bool use_openmp = true;
  std::uint64_t max_iterations = 100'000'000;
};

struct NuSvrResult {
  std::vector<double> coef;   ///< alpha_i - alpha*_i per sample
  double rho = 0.0;           ///< f(x) = sum coef_i K(x_i, x) - rho
  double epsilon_tube = 0.0;  ///< the tube width nu induced (-r)
  std::uint64_t iterations = 0;
  std::uint64_t kernel_evaluations = 0;
  bool converged = false;
  double solve_seconds = 0.0;

  [[nodiscard]] svmcore::SvmModel to_model(const svmdata::CsrMatrix& X,
                                           const svmkernel::KernelParams& kernel) const;
};

/// Trains nu-SVR on rows of X against real-valued targets.
[[nodiscard]] NuSvrResult solve_nu_svr(const svmdata::CsrMatrix& X,
                                       std::span<const double> targets,
                                       const NuSvrOptions& options);

}  // namespace svmbaseline
