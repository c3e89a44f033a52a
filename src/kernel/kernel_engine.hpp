// KernelEngine: the one batched kernel-evaluation layer every hot path goes
// through. The engine owns per-solve hot state — precomputed row squared
// norms for its slice of the matrix, a dense scatter buffer for the current
// query row(s), an optional LRU row cache — and exposes batched operations:
//
//   eval_pair_rows / eval_pair_range   fused up/low evaluation: both query
//       rows are scattered into one interleaved dense accumulator, then every
//       requested matrix row is streamed against it ONCE, producing K(up,i)
//       and K(low,i) in a single memory traversal (the gamma-update hot loop
//       previously paid two sparse merge-join intersections per sample);
//   eval_rows                          the single-query batch, same core;
//   accumulate_rows                    one query's weighted kernel sum over
//       the engine's rows (model scoring against support vectors);
//   eval_block_rows                    multi-query batches: a ring step of
//       gradient reconstruction, or a serving micro-batch;
//   k_row_floats                       full float kernel row with optional
//       per-row scaling and LRU caching (the libsvm baseline's Q rows).
//
// Paths (EngineBackend). `automatic`, the default everywhere, resolves at
// construction from what the engine can observe: the RowStore panels when
// the row flavor is reduced or the engine's rows are at least kPanelDensity
// dense, the fused dense scatter otherwise. backend() reports the resolved
// path. The named paths force one:
//   reference      every value via Kernel::eval, i.e. the CsrMatrix::dot
//                  sparse merge join — the semantics ground truth;
//   dense_scatter  the fused fast path described above;
//   simd           the engine's norm-range rows materialized in a dense
//                  panel RowStore (lane-per-row, see row_store.hpp) and
//                  evaluated with the runtime-dispatched SIMD kernels.
// A cache budget > 0 turns on the exact float Q-row cache behind
// k_row_floats on any path.
//
// Row flavors (RowFlavor, row_store.hpp) select the resident precision of
// the panels: f64 is exact; f32/f16/i8 trade precision for footprint and
// bandwidth, so only the panel path accepts them. Training always runs f64,
// so optimization stays bit-exact double — flavors are a prediction
// feature, accuracy-gated by tests and bench_precision.
//
// Parity guarantee: dense_scatter is BIT-IDENTICAL to reference, not merely
// close. Both visit row i's nonzeros in increasing index order: the merge
// join accumulates the products a_k*b_k of the index intersection in that
// order, and the dense pass accumulates the same products in the same order
// interleaved with terms of the form v*(+-0.0), which never change an IEEE
// sum that starts at +0.0 (adding a signed zero to any finite value is an
// exact identity, and (+0)+(-0) = +0). Both paths then funnel the dot
// through Kernel::finish_from_dot, so the RBF/poly/sigmoid finish is the
// same instruction sequence. Tests enforce bitwise equality of whole models;
// checkpoint/chaos recovery relies on it staying exact.
//
// The panel path at flavor f64 inherits the same guarantee: each panel
// lane is one row's sequential mul+add sum over ascending columns (never a
// horizontal reduction, never an FMA — see simd.hpp), which is the dense
// pass above with the sides swapped, and the dot funnels through the same
// finish_from_dot. k_row_floats fills, whose rows are not in the store,
// fall back to the scalar dense-scatter code on the panel path —
// bit-identical for f64 by the argument above. The batched multi-query
// paths (eval_block_rows in both forms, accumulate_rows) DO run on the
// RowStore panels: each external row becomes the prepared query
// and the resident side is swept a panel at a time, with ordered reductions
// preserving f64 bit-identity.
//
// Thread safety: an engine is mutable per-call state (scatter buffers,
// counters) — use one engine per rank / per thread. Only k_row_floats'
// `parallel` flag (the libsvm-enhanced baseline's OpenMP row fill) runs
// threads inside a call; that is safe because the dense buffer is
// read-only while they stream rows.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/sparse.hpp"
#include "kernel/kernel.hpp"
#include "kernel/kernel_cache.hpp"
#include "kernel/row_store.hpp"

namespace svmkernel {

enum class EngineBackend { reference, dense_scatter, automatic, simd };

/// Row density (nonzeros / (rows * cols)) of an engine's rows at and above
/// which `automatic` takes the RowStore panels. A panel row costs its full
/// column count, a scatter row its nonzeros. bench_engine_backends measures
/// the crossover across the zoo shapes (BENCH_engine.json): the scatter path
/// wins at a9a's 0.11 and below, the panels win at mushrooms' 0.19 and
/// above (mnist's 0.26 is a tie).
inline constexpr double kPanelDensity = 0.15;

[[nodiscard]] std::string to_string(EngineBackend backend);
[[nodiscard]] EngineBackend engine_backend_from_string(const std::string& name);
/// Stable string literal for trace metadata (trace_instant keeps pointers).
[[nodiscard]] const char* trace_label(EngineBackend backend) noexcept;

/// Counters for the batched layer; cheap (no atomics — engines are
/// single-owner), published as the solvers' engine.* metrics.
struct EngineStats {
  std::uint64_t pair_evals = 0;      ///< samples evaluated by the fused pair path
  std::uint64_t single_evals = 0;    ///< kernel values outside the fused pair path
  std::uint64_t scatter_builds = 0;  ///< query-row scatters into the dense buffer
  std::uint64_t bytes_streamed = 0;  ///< payload bytes traversed by batched ops
                                     ///< (CSR features, or flavored panel bytes
                                     ///< on the panel path)
  std::uint64_t panel_dots = 0;      ///< 8-row SIMD panel products computed
};

class KernelEngine {
 public:
  /// Engine over rows [norm_begin, norm_end) of `X` (a distributed rank's
  /// local block); squared norms for that slice are computed on
  /// construction, and `automatic` resolves from that slice's density.
  /// `cache_budget_bytes` > 0 enables the Q-row cache used by k_row_floats.
  /// `flavor` selects the resident row precision of the panels; a reduced
  /// flavor needs the panel path. The engine keeps references to `kernel`
  /// and `X` — both must outlive it.
  KernelEngine(const Kernel& kernel, const svmdata::CsrMatrix& X, EngineBackend backend,
               std::size_t norm_begin, std::size_t norm_end,
               std::size_t cache_budget_bytes = 0, RowFlavor flavor = RowFlavor::f64);

  /// Full-matrix convenience (sequential solvers, baselines, model scoring).
  KernelEngine(const Kernel& kernel, const svmdata::CsrMatrix& X, EngineBackend backend,
               std::size_t cache_budget_bytes = 0, RowFlavor flavor = RowFlavor::f64)
      : KernelEngine(kernel, X, backend, 0, X.rows(), cache_budget_bytes, flavor) {}

  /// Owning-kernel form for callers without a long-lived Kernel (model
  /// scoring): the engine constructs and owns the evaluator itself and
  /// borrows already-computed squared norms for all of `X`.
  KernelEngine(const KernelParams& params, const svmdata::CsrMatrix& X,
               EngineBackend backend, std::span<const double> sq_norms,
               RowFlavor flavor = RowFlavor::f64);

  /// The resolved path: never `automatic`.
  [[nodiscard]] EngineBackend backend() const noexcept { return backend_; }
  [[nodiscard]] RowFlavor flavor() const noexcept { return flavor_; }
  [[nodiscard]] const Kernel& kernel() const noexcept { return kernel_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Resident bytes of the panel path's flavored RowStore (0 otherwise).
  [[nodiscard]] std::size_t store_bytes() const noexcept {
    return store_ ? store_->bytes_resident() : 0;
  }

  /// ||X.row(i)||^2 for i in the engine's norm range.
  [[nodiscard]] double sq_norm(std::size_t i) const noexcept {
    return norms_[i - norm_begin_];
  }

  /// One-off evaluation of arbitrary rows (not necessarily from X); always
  /// the reference merge join — there is nothing to batch.
  [[nodiscard]] double eval_one(std::span<const svmdata::Feature> a,
                                std::span<const svmdata::Feature> b, double sq_a,
                                double sq_b) const noexcept {
    return kernel_.eval(a, b, sq_a, sq_b);
  }

  /// Fused pair evaluation over an index list: for each k,
  ///   out_up[k]  = K(up,  X.row(base + rows[k]))
  ///   out_low[k] = K(low, X.row(base + rows[k]))
  /// All base+rows[k] must lie in the engine's norm range. `up`/`low` may be
  /// remote rows (PackedSamples); their squared norms are passed explicitly.
  void eval_pair_rows(std::span<const svmdata::Feature> up, double sq_up,
                      std::span<const svmdata::Feature> low, double sq_low,
                      std::span<const std::uint32_t> rows, std::size_t base,
                      std::span<double> out_up, std::span<double> out_low);

  /// Fused pair evaluation over the contiguous rows [begin, end).
  void eval_pair_range(std::span<const svmdata::Feature> up, double sq_up,
                       std::span<const svmdata::Feature> low, double sq_low,
                       std::size_t begin, std::size_t end, std::span<double> out_up,
                       std::span<double> out_low);

  /// Single-query batch: out[i - begin] = K(query, X.row(i)), i in [begin, end).
  void eval_rows(std::span<const svmdata::Feature> query, double sq_query,
                 std::size_t begin, std::size_t end, std::span<double> out);

  /// Weighted kernel sum over every row in the engine's norm range:
  ///   sum_j coeffs[j] * K(query, X.row(norm_begin + j)),  j ascending.
  /// This is model scoring (coeffs = alpha_i * y_i over support vectors) as
  /// one batched call. The scalar paths evaluate the query's kernel row
  /// (eval_rows) and reduce it in ascending row order; the panel path
  /// sweeps the RowStore panels and reduces in the same order, so the result
  /// is bit-identical across paths at flavor f64.
  [[nodiscard]] double accumulate_rows(std::span<const svmdata::Feature> query,
                                       double sq_query, std::span<const double> coeffs);

  // --- multi-query block batch (reconstruction ring steps) -----------------

  /// One ring step of gradient reconstruction in a single call: for every
  /// stale sample w,
  ///   accum[w] += sum_j block_coeffs[j] * K(block_rows[j], X.row(base + rows[w]))
  /// where block_rows are the circulating remote samples (their squared
  /// norms passed in block_sq_norms) and the j-sum is evaluated in
  /// increasing j order into a fresh +0.0 partial before the single +=. The
  /// reference path is exactly that per-stale-sample merge-join loop, and
  /// every other path is BIT-IDENTICAL to it (the dot is
  /// orientation-symmetric: the merge join and both scatter directions
  /// accumulate the index-intersection products in the same increasing-index
  /// order, and IEEE add/mul are commutative). Block rows may be wider than
  /// X; their features beyond X.cols() cannot intersect a stale row.
  ///
  /// The dense-scatter path scatters whichever side is SMALLER — the adaptive
  /// kernel orientation: min(rows.size(), block_rows.size()) scatter builds
  /// instead of one per stale sample.
  void eval_block_rows(std::span<const std::span<const svmdata::Feature>> block_rows,
                       std::span<const double> block_sq_norms,
                       std::span<const double> block_coeffs,
                       std::span<const std::uint32_t> rows, std::size_t base,
                       std::span<double> accum);

  /// Serving micro-batch form: score every query against the engine's whole
  /// norm range in one call,
  ///   out[q] = sum_j coeffs[j] * K(queries[q], X.row(norm_begin + j))
  /// with the j-sum in ascending order — each out[q] is bitwise equal to
  /// accumulate_rows(queries[q], ...) on the same engine, across paths at
  /// flavor f64. On the panel path the resident rows are swept through
  /// the RowStore panels per query (flavored batch predict: an f32/f16/i8
  /// store serves degraded-precision batches from the same call shape).
  /// `query_sq_norms[q]` is ||queries[q]||^2.
  void eval_block_rows(std::span<const std::span<const svmdata::Feature>> queries,
                       std::span<const double> query_sq_norms,
                       std::span<const double> coeffs, std::span<double> out);

  // --- cached float rows (libsvm baseline Q rows) -------------------------

  /// Optional per-row scale s: k_row_floats then returns
  /// float(s[i] * s[j] * K(i, j)) — with s = y this is exactly the C-SVC
  /// Q row, and since y in {+-1} the float rounding equals libsvm's
  /// float(y_i * y_j * K). Must be set before the first k_row_floats call;
  /// scaled rows are cached scaled (cache hits stay O(1)).
  void set_row_scale(std::span<const double> scale);

  /// Row i of the (scaled) kernel matrix as floats, columns [0, len).
  /// Served from the LRU cache when the engine has a cache budget; the
  /// returned span stays valid until the next k_row_floats call (the cache
  /// pins it — see KernelRowCache::lookup). Counts `len` kernel
  /// evaluations on a miss and none on a hit, matching the per-element
  /// Kernel::eval metric of the unbatched code. `parallel` fills a missed
  /// row with OpenMP, the paper's libsvm-enhanced baseline (§V-A).
  [[nodiscard]] std::span<const float> k_row_floats(std::size_t i, std::size_t len,
                                                    bool parallel = false);

  [[nodiscard]] double cache_hit_rate() const noexcept {
    return cache_ ? cache_->hit_rate() : 0.0;
  }

 private:
  void ensure_dense(std::size_t lanes);
  void scatter(std::span<const svmdata::Feature> row, std::size_t lane, std::size_t lanes);
  void unscatter(std::span<const svmdata::Feature> row, std::size_t lane, std::size_t lanes);
  void fill_k_row(std::size_t i, std::size_t len, bool parallel, float* out);
  [[nodiscard]] std::uint64_t payload_bytes(std::span<const std::uint32_t> rows,
                                            std::size_t base) const noexcept;
  void init_path(EngineBackend requested, std::size_t norm_end,
                 std::size_t cache_budget_bytes);
  /// Decoded squared norm of store-local row (engine norms when f64 — the
  /// two agree there, and the scalar parity paths compare against norms_).
  [[nodiscard]] double store_sq(std::size_t local) const {
    return flavor_ == RowFlavor::f64 ? norms_[local] : store_->sq_norm(local);
  }
  /// Densifies `row` into `buf` (resized to cols, zeros elsewhere); caller
  /// must clear_query_vec afterwards. Returns the span panel eval reads.
  void fill_query_vec(std::vector<double>& buf, std::span<const svmdata::Feature> row);
  void clear_query_vec(std::vector<double>& buf, std::span<const svmdata::Feature> row);
  /// Splits an index list into runs of consecutive entries in one panel
  /// (panel_runs_ holds each run's first entry, then rows.size()); returns
  /// the run count. The panel path's indexed sweeps compute one panel per
  /// run.
  std::size_t build_panel_runs(std::span<const std::uint32_t> rows, std::size_t base);
  void simd_pair_indexed(std::span<const std::uint32_t> rows, std::size_t base,
                         double sq_up, double sq_low, std::span<double> out_up,
                         std::span<double> out_low);
  void simd_pair_range(std::size_t begin, std::size_t end, double sq_up, double sq_low,
                       std::span<double> out_up, std::span<double> out_low);
  void simd_single_range(std::size_t begin, std::size_t end, double sq_query,
                         std::span<double> out);

  std::unique_ptr<Kernel> owned_kernel_;  ///< set only by the owning ctor
  const Kernel& kernel_;
  const svmdata::CsrMatrix& X_;
  EngineBackend backend_ = EngineBackend::automatic;  ///< resolved by init_path
  RowFlavor flavor_ = RowFlavor::f64;
  std::size_t norm_begin_ = 0;
  std::vector<double> owned_norms_;
  std::span<const double> norms_;

  std::unique_ptr<RowStore> store_;  ///< the panel path's flavored rows
  std::vector<double> qa_vec_;       ///< dense query buffers for the store
  std::vector<double> qb_vec_;
  std::vector<std::size_t> panel_runs_;  ///< simd_pair_indexed's work units

  std::vector<double> dense_;        ///< scatter buffer, lanes * cols entries
  std::size_t dense_lanes_ = 0;      ///< 1 = single query, 2 = interleaved pair

  std::vector<double> scale_;
  std::vector<float> row_scratch_;
  // Scratch reused across calls: eval_block_rows' per-stale-sample partial
  // sums, and accumulate_rows' kernel row.
  std::vector<double> block_partials_;
  std::vector<double> kvals_;
  std::unique_ptr<KernelRowCache> cache_;
  std::uint64_t k_row_calls_ = 0;  ///< trace counter-track sampling stride

  EngineStats stats_;
};

}  // namespace svmkernel
