// One-class SVM (Schölkopf et al. 2001), libsvm's ONE_CLASS, on the generic
// SMO solver: novelty detection by separating the data from the origin in
// feature space. Dual:
//   minimize 0.5 a'Ka   s.t. 0 <= a_i <= 1/(nu*l), sum a_i = 1
// solved with all labels +1, p = 0 and the libsvm warm start (the first
// floor(nu*l) variables at the upper bound, one fractional). The decision
// function f(x) = sum a_i K(x_i, x) - rho is >= 0 for inliers; `nu` upper-
// bounds the fraction of training outliers and lower-bounds the fraction of
// support vectors.
#pragma once

#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "data/sparse.hpp"
#include "kernel/kernel.hpp"

namespace svmbaseline {

struct OneClassOptions {
  double nu = 0.1;  ///< in (0, 1]
  double eps = 1e-3;
  svmkernel::KernelParams kernel{};
  std::size_t cache_mb = 256;
  bool use_shrinking = true;
  bool use_openmp = true;
  std::uint64_t max_iterations = 100'000'000;
};

struct OneClassResult {
  std::vector<double> alpha;
  double rho = 0.0;
  std::uint64_t iterations = 0;
  std::uint64_t kernel_evaluations = 0;
  bool converged = false;
  double solve_seconds = 0.0;

  /// f(x) >= 0 classifies x as an inlier. (SvmModel's decision_value.)
  [[nodiscard]] svmcore::SvmModel to_model(const svmdata::CsrMatrix& X,
                                           const svmkernel::KernelParams& kernel) const;
};

/// Trains on unlabeled rows of X. Throws std::invalid_argument for nu
/// outside (0, 1] or fewer than two samples.
[[nodiscard]] OneClassResult solve_one_class(const svmdata::CsrMatrix& X,
                                             const OneClassOptions& options);

}  // namespace svmbaseline
