#include "core/sequential_smo.hpp"

#include <limits>
#include <stdexcept>

#include "core/pair_update.hpp"
#include "kernel/kernel_engine.hpp"
#include "util/timer.hpp"

namespace svmcore {

SequentialResult solve_sequential(const svmdata::Dataset& dataset, const SolverParams& params) {
  dataset.validate();
  const std::size_t n = dataset.size();
  if (n < 2) throw std::invalid_argument("solve_sequential: need at least two samples");

  const svmkernel::Kernel kernel(params.kernel);
  svmkernel::KernelEngine engine(kernel, dataset.X, params.engine_backend);
  const auto& X = dataset.X;
  const std::vector<double>& y = dataset.y;
  std::vector<double> k_up(n);
  std::vector<double> k_low(n);

  SequentialResult result;
  result.alpha.assign(n, 0.0);
  std::vector<double>& alpha = result.alpha;
  std::vector<double> gamma(n);
  for (std::size_t i = 0; i < n; ++i) gamma[i] = -y[i];  // alpha = 0 => gamma = -y

  svmutil::Timer total;
  const double two_eps = 2.0 * params.eps;

  while (true) {
    // Worst-violator selection over the index sets (Eq. 3): first index
    // achieving the extremum wins, matching the MINLOC/MAXLOC tie-break of
    // the distributed solver.
    double beta_up = std::numeric_limits<double>::infinity();
    double beta_low = -std::numeric_limits<double>::infinity();
    std::size_t i_up = n;
    std::size_t i_low = n;
    for (std::size_t i = 0; i < n; ++i) {
      const IndexSet set = classify(y[i], alpha[i], params.C_of(y[i]));
      if (in_up_set(set) && gamma[i] < beta_up) {
        beta_up = gamma[i];
        i_up = i;
      }
      if (in_low_set(set) && gamma[i] > beta_low) {
        beta_low = gamma[i];
        i_low = i;
      }
    }
    result.stats.final_beta_up = beta_up;
    result.stats.final_beta_low = beta_low;

    if (i_up == n || i_low == n)
      throw std::invalid_argument("solve_sequential: dataset must contain both classes");
    if (beta_up + two_eps >= beta_low) {
      result.stats.converged = true;
      break;
    }
    if (result.stats.iterations >= params.max_iterations) break;

    const auto row_up = X.row(i_up);
    const auto row_low = X.row(i_low);
    const double sq_up = engine.sq_norm(i_up);
    const double sq_low = engine.sq_norm(i_low);
    const PairState state{
        y[i_up],       y[i_low],      alpha[i_up],
        alpha[i_low],  gamma[i_up],   gamma[i_low],
        engine.eval_one(row_up, row_up, sq_up, sq_up),
        engine.eval_one(row_low, row_low, sq_low, sq_low),
        engine.eval_one(row_up, row_low, sq_up, sq_low),
        params.C_of(y[i_up]),
        params.C_of(y[i_low])};
    const PairResult update = solve_pair(state);
    if (!update.progress) break;  // degenerate pair; cannot move further

    const double delta_up = update.alpha_up - alpha[i_up];
    const double delta_low = update.alpha_low - alpha[i_low];
    alpha[i_up] = update.alpha_up;
    alpha[i_low] = update.alpha_low;

    // Gradient update, Eq. (2), for every sample: one fused engine pass
    // computes both kernel columns, then the same expression shape as the
    // distributed gamma loop (bitwise parity with it is test-enforced).
    const double coef_up = y[i_up] * delta_up;
    const double coef_low = y[i_low] * delta_low;
    engine.eval_pair_range(row_up, sq_up, row_low, sq_low, 0, n, k_up, k_low);
    for (std::size_t i = 0; i < n; ++i)
      gamma[i] += coef_up * k_up[i] + coef_low * k_low[i];
    ++result.stats.iterations;
  }

  // Threshold beta (Section III): average gamma over I0, else the midpoint.
  double sum_i0 = 0.0;
  std::size_t count_i0 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (classify(y[i], alpha[i], params.C_of(y[i])) == IndexSet::I0) {
      sum_i0 += gamma[i];
      ++count_i0;
    }
  }
  result.beta = count_i0 > 0
                    ? sum_i0 / static_cast<double>(count_i0)
                    : 0.5 * (result.stats.final_beta_low + result.stats.final_beta_up);

  result.stats.kernel_evaluations = kernel.evaluations();
  result.stats.engine_backend = engine.backend();
  result.stats.solve_seconds = total.seconds();
  return result;
}

BlockSolveResult solve_sequential_block(const svmdata::Dataset& dataset,
                                        const SolverParams& params,
                                        svmkernel::KernelEngine& engine, std::size_t begin,
                                        std::size_t end, std::span<double> alpha,
                                        std::span<double> gamma, double tolerance,
                                        std::uint64_t max_iterations) {
  const std::size_t m = end - begin;
  if (alpha.size() != m || gamma.size() != m)
    throw std::invalid_argument("solve_sequential_block: alpha/gamma must match the block");
  const auto& X = dataset.X;
  const std::vector<double>& y = dataset.y;
  std::vector<double> k_up(m);
  std::vector<double> k_low(m);

  BlockSolveResult result;
  while (true) {
    // Same first-index-wins worst-violator scan as solve_sequential,
    // restricted to the block's own samples.
    double beta_up = std::numeric_limits<double>::infinity();
    double beta_low = -std::numeric_limits<double>::infinity();
    std::size_t i_up = m;
    std::size_t i_low = m;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t g = begin + i;
      const IndexSet set = classify(y[g], alpha[i], params.C_of(y[g]));
      if (in_up_set(set) && gamma[i] < beta_up) {
        beta_up = gamma[i];
        i_up = i;
      }
      if (in_low_set(set) && gamma[i] > beta_low) {
        beta_low = gamma[i];
        i_low = i;
      }
    }
    result.beta_up = beta_up;
    result.beta_low = beta_low;

    // One-class (or empty-side) block: no movable pair exists. Not an error
    // here — PBM's cross-block polishing handles the violating pairs that
    // span blocks.
    if (i_up == m || i_low == m) {
      result.reached_tolerance = true;
      break;
    }
    if (beta_up + tolerance >= beta_low) {
      result.reached_tolerance = true;
      break;
    }
    if (result.iterations >= max_iterations) break;

    const std::size_t g_up = begin + i_up;
    const std::size_t g_low = begin + i_low;
    const auto row_up = X.row(g_up);
    const auto row_low = X.row(g_low);
    const double sq_up = engine.sq_norm(g_up);
    const double sq_low = engine.sq_norm(g_low);
    const PairState state{
        y[g_up],      y[g_low],    alpha[i_up],
        alpha[i_low], gamma[i_up], gamma[i_low],
        engine.eval_one(row_up, row_up, sq_up, sq_up),
        engine.eval_one(row_low, row_low, sq_low, sq_low),
        engine.eval_one(row_up, row_low, sq_up, sq_low),
        params.C_of(y[g_up]),
        params.C_of(y[g_low])};
    const PairResult update = solve_pair(state);
    if (!update.progress) break;

    const double delta_up = update.alpha_up - alpha[i_up];
    const double delta_low = update.alpha_low - alpha[i_low];
    alpha[i_up] = update.alpha_up;
    alpha[i_low] = update.alpha_low;
    result.progress = true;

    // Block-local gradient refresh; the same fused-pair expression shape as
    // solve_sequential, so a block covering [0, n) reproduces it bitwise.
    const double coef_up = y[g_up] * delta_up;
    const double coef_low = y[g_low] * delta_low;
    engine.eval_pair_range(row_up, sq_up, row_low, sq_low, begin, end, k_up, k_low);
    for (std::size_t i = 0; i < m; ++i)
      gamma[i] += coef_up * k_up[i] + coef_low * k_low[i];
    ++result.iterations;
  }
  return result;
}

}  // namespace svmcore
