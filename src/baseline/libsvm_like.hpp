// libsvm-style C-SVC solver — the paper's baseline. This is a from-scratch
// port of libsvm 3.18's Solver for C-SVC (equal class weights):
//  - second-order working-set selection (WSS2, Fan et al. 2005),
//  - libsvm's shrinking with G_bar-based gradient reconstruction,
//  - an LRU kernel-row cache with a megabyte budget,
//  - optional OpenMP parallelism over kernel-row computation, which is the
//    "libsvm-enhanced" modification the paper contributes (§V-A).
//
// Conventions follow libsvm: minimize 0.5 a'Qa - e'a with Q_ij = y_i y_j
// K_ij; G = Qa - e; rho is the threshold. y_i * G_i equals the paper's
// gamma_i, and rho equals the paper's beta, so results are directly
// comparable with svmcore solvers.
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "data/sparse.hpp"
#include "kernel/kernel.hpp"

namespace svmbaseline {

struct BaselineOptions {
  double C = 1.0;
  /// Per-class cost weights (libsvm's -wi); the box constraint of a sample
  /// with label y is C * (y > 0 ? weight_positive : weight_negative).
  double weight_positive = 1.0;
  double weight_negative = 1.0;
  svmkernel::KernelParams kernel{};

  [[nodiscard]] double C_of(double y) const noexcept {
    return C * (y > 0.0 ? weight_positive : weight_negative);
  }
  double eps = 1e-3;
  std::size_t cache_mb = 256;      ///< kernel-row cache budget
  bool use_shrinking = true;       ///< libsvm -h 1
  bool use_openmp = true;          ///< the paper's multicore enhancement
  std::uint64_t max_iterations = 100'000'000;
};

struct BaselineResult {
  std::vector<double> alpha;
  double rho = 0.0;  ///< threshold; equals the paper's beta
  std::uint64_t iterations = 0;
  std::uint64_t kernel_evaluations = 0;
  double cache_hit_rate = 0.0;
  double solve_seconds = 0.0;
  bool converged = false;
};

[[nodiscard]] BaselineResult solve_libsvm_like(const svmdata::Dataset& dataset,
                                               const BaselineOptions& options);

}  // namespace svmbaseline
