// Shared solver types: parameters, per-sample index-set classification
// (Eq. 4), termination statistics. Used by the sequential solver, the
// parallel "Original" solver (Algorithm 2), the shrinking solvers
// (Algorithms 4 and 5) and the PBM solver.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "kernel/kernel.hpp"
#include "kernel/kernel_engine.hpp"

namespace svmcore {

/// Which distributed training algorithm drives the dual optimization.
/// `smo` is the paper's shrinking-SMO (one pair allreduce, carrying the
/// working-set samples, per iteration); `pbm` is Parallel Block
/// Minimization (Hsieh, Si, Dhillon — arXiv:1608.02010): per-block
/// subproblem re-solves with one allgatherv of the owned alpha slices per
/// outer round, trading iterations for communication.
enum class SolverAlgo : std::uint8_t { smo, pbm };

[[nodiscard]] inline const char* to_string(SolverAlgo algo) noexcept {
  return algo == SolverAlgo::pbm ? "pbm" : "smo";
}

[[nodiscard]] inline SolverAlgo solver_algo_from_string(const std::string& name) {
  if (name == "smo") return SolverAlgo::smo;
  if (name == "pbm") return SolverAlgo::pbm;
  throw std::invalid_argument("unknown solver algorithm '" + name + "' (expected smo|pbm)");
}

struct SolverParams {
  double C = 1.0;  ///< box constraint
  svmkernel::KernelParams kernel{};
  double eps = 1e-3;  ///< user tolerance; terminate when beta_up + 2*eps >= beta_low
  /// Safety valve, not a tuning knob. PBM applies it to each block's inner
  /// SMO solve per round and to its cross-block polish steps.
  std::uint64_t max_iterations = 100'000'000;

  /// Kernel-evaluation path of the solver engines. `automatic` lets each
  /// engine pick from its own rows (kernel_engine.hpp); the forced paths
  /// exist for the parity tests and the engine benches. Every path is
  /// bit-identical to `reference`, so this never changes a result.
  svmkernel::EngineBackend engine_backend = svmkernel::EngineBackend::automatic;

  /// Per-class cost weights (libsvm's -wi): the box constraint of a sample
  /// with label y is C * (y > 0 ? weight_positive : weight_negative). Used
  /// for imbalanced datasets; 1.0/1.0 is the paper's (unweighted) setting.
  double weight_positive = 1.0;
  double weight_negative = 1.0;

  /// Distributed training algorithm (see SolverAlgo). Ignored by the
  /// sequential solver and the baselines.
  SolverAlgo algo = SolverAlgo::smo;

  /// PBM: number of dual blocks. 0 means "one block per launch rank",
  /// resolved by the trainer before the SPMD region so the block count —
  /// and with it the optimization trajectory — stays fixed across
  /// shrink-world recoveries and restarts.
  int pbm_blocks = 0;

  [[nodiscard]] double C_of(double y) const noexcept {
    return C * (y > 0.0 ? weight_positive : weight_negative);
  }
};

/// Index-set membership from Eq. (4). A sample is in exactly one of the five
/// sets given (y, alpha); alpha hits the bounds {0, C} exactly because the
/// pair update clips with assignment, so exact comparisons are sound.
enum class IndexSet : std::uint8_t { I0, I1, I2, I3, I4 };

[[nodiscard]] inline IndexSet classify(double y, double alpha, double C) noexcept {
  if (alpha > 0.0 && alpha < C) return IndexSet::I0;
  if (y > 0.0) return alpha == 0.0 ? IndexSet::I1 : IndexSet::I3;
  return alpha == 0.0 ? IndexSet::I4 : IndexSet::I2;
}

/// I_up = I0 u I1 u I2: samples eligible to define beta_up = min gamma.
[[nodiscard]] inline bool in_up_set(IndexSet s) noexcept {
  return s == IndexSet::I0 || s == IndexSet::I1 || s == IndexSet::I2;
}

/// I_low = I0 u I3 u I4: samples eligible to define beta_low = max gamma.
[[nodiscard]] inline bool in_low_set(IndexSet s) noexcept {
  return s == IndexSet::I0 || s == IndexSet::I3 || s == IndexSet::I4;
}

/// Execution statistics; in the distributed solvers, counter fields are this
/// rank's share and the times are this rank's wall clock. Everything else a
/// distributed solve counts (reconstruction ring steps and seconds, engine
/// work) lives only in the rank's MetricsRegistry (RankResult::metrics).
struct SolverStats {
  std::uint64_t iterations = 0;
  std::uint64_t kernel_evaluations = 0;
  std::uint64_t samples_shrunk = 0;      ///< cumulative samples removed
  std::uint64_t reconstructions = 0;     ///< gradient-reconstruction rounds
  double solve_seconds = 0.0;            ///< total wall time in the solver
  double final_beta_up = std::numeric_limits<double>::quiet_NaN();
  double final_beta_low = std::numeric_limits<double>::quiet_NaN();
  std::size_t min_active = 0;            ///< smallest active-set size seen (this rank)
  bool converged = false;                ///< false only if max_iterations hit
  /// Kernel path this rank's engine resolved to (KernelEngine::backend()).
  svmkernel::EngineBackend engine_backend = svmkernel::EngineBackend::automatic;
  /// (iteration, global active samples) samples; filled on rank 0 when
  /// DistributedConfig::trace_active_interval > 0.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> active_trace;
};

}  // namespace svmcore
