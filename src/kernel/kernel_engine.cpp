#include "kernel/kernel_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"

namespace svmkernel {

namespace {

// One cache-hit-rate counter sample per kCacheCounterStride k_row_floats
// calls: frequent enough to plot warm-up, cheap enough for traced runs.
constexpr std::uint64_t kCacheCounterStride = 1024;

}  // namespace

std::string to_string(EngineBackend backend) {
  switch (backend) {
    case EngineBackend::reference: return "reference";
    case EngineBackend::dense_scatter: return "dense_scatter";
    case EngineBackend::automatic: return "automatic";
    case EngineBackend::simd: return "simd";
  }
  return "?";
}

EngineBackend engine_backend_from_string(const std::string& name) {
  if (name == "reference") return EngineBackend::reference;
  if (name == "dense_scatter") return EngineBackend::dense_scatter;
  if (name == "automatic") return EngineBackend::automatic;
  if (name == "simd") return EngineBackend::simd;
  throw std::invalid_argument("engine_backend_from_string: unknown backend '" + name + "'");
}

const char* trace_label(EngineBackend backend) noexcept {
  switch (backend) {
    case EngineBackend::reference: return "backend_reference";
    case EngineBackend::dense_scatter: return "backend_dense_scatter";
    case EngineBackend::automatic: return "backend_automatic";
    case EngineBackend::simd: return "backend_simd";
  }
  return "backend_unknown";
}

void KernelEngine::init_path(EngineBackend requested, std::size_t norm_end,
                             std::size_t cache_budget_bytes) {
  backend_ = requested;
  if (requested == EngineBackend::automatic) {
    // A panel row costs the full column count, a scatter row its nonzeros:
    // the engine's own rows decide.
    std::size_t nonzeros = 0;
    for (std::size_t i = norm_begin_; i < norm_end; ++i) nonzeros += X_.row(i).size();
    const double cells =
        static_cast<double>(norm_end - norm_begin_) * static_cast<double>(X_.cols());
    const bool dense = cells > 0.0 && static_cast<double>(nonzeros) >= kPanelDensity * cells;
    backend_ = dense || flavor_ != RowFlavor::f64 ? EngineBackend::simd
                                                  : EngineBackend::dense_scatter;
  }
  if (flavor_ != RowFlavor::f64 && backend_ != EngineBackend::simd)
    throw std::invalid_argument("KernelEngine: flavored rows ('" + to_string(flavor_) +
                                "') live only in the panels; the " + to_string(backend_) +
                                " path is exact");
  if (cache_budget_bytes > 0) cache_ = std::make_unique<KernelRowCache>(cache_budget_bytes);
  if (backend_ == EngineBackend::simd)
    store_ = std::make_unique<RowStore>(X_, norm_begin_, norm_end, flavor_);
}

KernelEngine::KernelEngine(const Kernel& kernel, const svmdata::CsrMatrix& X,
                           EngineBackend backend, std::size_t norm_begin,
                           std::size_t norm_end, std::size_t cache_budget_bytes,
                           RowFlavor flavor)
    : kernel_(kernel), X_(X), flavor_(flavor), norm_begin_(norm_begin) {
  if (norm_end < norm_begin || norm_end > X.rows())
    throw std::invalid_argument("KernelEngine: bad norm range");
  owned_norms_.resize(norm_end - norm_begin);
  for (std::size_t i = norm_begin; i < norm_end; ++i)
    owned_norms_[i - norm_begin] = svmdata::CsrMatrix::squared_norm(X.row(i));
  norms_ = owned_norms_;
  init_path(backend, norm_end, cache_budget_bytes);
}

KernelEngine::KernelEngine(const KernelParams& params, const svmdata::CsrMatrix& X,
                           EngineBackend backend, std::span<const double> sq_norms,
                           RowFlavor flavor)
    : owned_kernel_(std::make_unique<Kernel>(params)),
      kernel_(*owned_kernel_),
      X_(X),
      flavor_(flavor),
      norm_begin_(0),
      norms_(sq_norms) {
  if (sq_norms.size() < X.rows())
    throw std::invalid_argument("KernelEngine: borrowed norms shorter than matrix");
  init_path(backend, X.rows(), 0);
}

void KernelEngine::ensure_dense(std::size_t lanes) {
  const std::size_t needed = lanes * X_.cols();
  // The buffer is kept all-zero between scatters, so growing with
  // zero-fill (and reinterpreting the lane stride) preserves the invariant.
  if (dense_.size() < needed) dense_.resize(needed, 0.0);
  dense_lanes_ = lanes;
}

void KernelEngine::scatter(std::span<const svmdata::Feature> row, std::size_t lane,
                           std::size_t lanes) {
  const std::size_t cols = X_.cols();
  // Query features beyond the matrix's column count cannot intersect any
  // matrix row; skipping them is exact (and keeps the buffer in bounds when
  // the query is a remote sample with wider features).
  for (const svmdata::Feature& f : row) {
    const auto idx = static_cast<std::size_t>(f.index);
    if (idx < cols) dense_[idx * lanes + lane] = f.value;
  }
}

void KernelEngine::unscatter(std::span<const svmdata::Feature> row, std::size_t lane,
                             std::size_t lanes) {
  const std::size_t cols = X_.cols();
  for (const svmdata::Feature& f : row) {
    const auto idx = static_cast<std::size_t>(f.index);
    if (idx < cols) dense_[idx * lanes + lane] = 0.0;
  }
}

std::uint64_t KernelEngine::payload_bytes(std::span<const std::uint32_t> rows,
                                          std::size_t base) const noexcept {
  std::uint64_t bytes = 0;
  for (const std::uint32_t r : rows)
    bytes += X_.row(base + r).size() * sizeof(svmdata::Feature);
  return bytes;
}

void KernelEngine::eval_pair_rows(std::span<const svmdata::Feature> up, double sq_up,
                                  std::span<const svmdata::Feature> low, double sq_low,
                                  std::span<const std::uint32_t> rows, std::size_t base,
                                  std::span<double> out_up, std::span<double> out_low) {
  svmobs::TraceSpan span("engine_pair_batch", "kernel");
  stats_.pair_evals += rows.size();
  stats_.bytes_streamed +=
      store_ ? rows.size() * store_->row_bytes() : payload_bytes(rows, base);

  if (backend_ == EngineBackend::reference) {
    // Ground truth: two sparse merge joins per sample, as the pre-engine
    // solvers did. Kernel::eval bumps the evaluation counter itself.
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const std::size_t g = base + rows[k];
      const auto row = X_.row(g);
      const double sq = sq_norm(g);
      out_up[k] = kernel_.eval(up, row, sq_up, sq);
      out_low[k] = kernel_.eval(low, row, sq_low, sq);
    }
    return;
  }

  if (backend_ == EngineBackend::simd) {
    fill_query_vec(qa_vec_, up);
    fill_query_vec(qb_vec_, low);
    simd_pair_indexed(rows, base, sq_up, sq_low, out_up, out_low);
    kernel_.note_evaluations(2 * rows.size());
    clear_query_vec(qa_vec_, up);
    clear_query_vec(qb_vec_, low);
    return;
  }

  // Fused fast path: one interleaved dense buffer holds both query rows, so
  // each matrix row is traversed once and yields both kernel values.
  ensure_dense(2);
  scatter(up, 0, 2);
  scatter(low, 1, 2);
  stats_.scatter_builds += 2;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::size_t g = base + rows[k];
    double du = 0.0;
    double dl = 0.0;
    for (const svmdata::Feature& f : X_.row(g)) {
      const double* lane = dense_.data() + 2 * static_cast<std::size_t>(f.index);
      du += f.value * lane[0];
      dl += f.value * lane[1];
    }
    const double sq = sq_norm(g);
    out_up[k] = kernel_.finish_from_dot(du, sq_up, sq);
    out_low[k] = kernel_.finish_from_dot(dl, sq_low, sq);
  }
  kernel_.note_evaluations(2 * rows.size());
  unscatter(up, 0, 2);
  unscatter(low, 1, 2);
}

void KernelEngine::eval_pair_range(std::span<const svmdata::Feature> up, double sq_up,
                                   std::span<const svmdata::Feature> low, double sq_low,
                                   std::size_t begin, std::size_t end,
                                   std::span<double> out_up, std::span<double> out_low) {
  svmobs::TraceSpan span("engine_pair_batch", "kernel");
  stats_.pair_evals += end - begin;
  if (store_) {
    stats_.bytes_streamed += (end - begin) * store_->row_bytes();
  } else {
    for (std::size_t i = begin; i < end; ++i)
      stats_.bytes_streamed += X_.row(i).size() * sizeof(svmdata::Feature);
  }

  if (backend_ == EngineBackend::reference) {
    for (std::size_t g = begin; g < end; ++g) {
      const auto row = X_.row(g);
      const double sq = sq_norm(g);
      out_up[g - begin] = kernel_.eval(up, row, sq_up, sq);
      out_low[g - begin] = kernel_.eval(low, row, sq_low, sq);
    }
    return;
  }

  if (backend_ == EngineBackend::simd) {
    fill_query_vec(qa_vec_, up);
    fill_query_vec(qb_vec_, low);
    simd_pair_range(begin, end, sq_up, sq_low, out_up, out_low);
    kernel_.note_evaluations(2 * (end - begin));
    clear_query_vec(qa_vec_, up);
    clear_query_vec(qb_vec_, low);
    return;
  }

  ensure_dense(2);
  scatter(up, 0, 2);
  scatter(low, 1, 2);
  stats_.scatter_builds += 2;
  for (std::size_t g = begin; g < end; ++g) {
    double du = 0.0;
    double dl = 0.0;
    for (const svmdata::Feature& f : X_.row(g)) {
      const double* lane = dense_.data() + 2 * static_cast<std::size_t>(f.index);
      du += f.value * lane[0];
      dl += f.value * lane[1];
    }
    const double sq = sq_norm(g);
    out_up[g - begin] = kernel_.finish_from_dot(du, sq_up, sq);
    out_low[g - begin] = kernel_.finish_from_dot(dl, sq_low, sq);
  }
  kernel_.note_evaluations(2 * (end - begin));
  unscatter(up, 0, 2);
  unscatter(low, 1, 2);
}

void KernelEngine::eval_rows(std::span<const svmdata::Feature> query, double sq_query,
                             std::size_t begin, std::size_t end, std::span<double> out) {
  svmobs::TraceSpan span("engine_row_batch", "kernel");
  stats_.single_evals += end - begin;
  if (store_) {
    stats_.bytes_streamed += (end - begin) * store_->row_bytes();
  } else {
    for (std::size_t i = begin; i < end; ++i)
      stats_.bytes_streamed += X_.row(i).size() * sizeof(svmdata::Feature);
  }

  if (backend_ == EngineBackend::reference) {
    for (std::size_t g = begin; g < end; ++g)
      out[g - begin] = kernel_.eval(X_.row(g), query, sq_norm(g), sq_query);
    return;
  }

  if (backend_ == EngineBackend::simd) {
    fill_query_vec(qa_vec_, query);
    simd_single_range(begin, end, sq_query, out);
    kernel_.note_evaluations(end - begin);
    clear_query_vec(qa_vec_, query);
    return;
  }

  ensure_dense(1);
  scatter(query, 0, 1);
  stats_.scatter_builds += 1;
  for (std::size_t g = begin; g < end; ++g) {
    double d = 0.0;
    for (const svmdata::Feature& f : X_.row(g))
      d += f.value * dense_[static_cast<std::size_t>(f.index)];
    out[g - begin] = kernel_.finish_from_dot(d, sq_norm(g), sq_query);
  }
  kernel_.note_evaluations(end - begin);
  unscatter(query, 0, 1);
}

void KernelEngine::eval_block_rows(
    std::span<const std::span<const svmdata::Feature>> block_rows,
    std::span<const double> block_sq_norms, std::span<const double> block_coeffs,
    std::span<const std::uint32_t> rows, std::size_t base, std::span<double> accum) {
  svmobs::TraceSpan span("engine_block_batch", "kernel");
  const std::size_t stale = rows.size();
  const std::size_t block = block_rows.size();
  stats_.single_evals += stale * block;

  if (backend_ == EngineBackend::reference) {
    // Ground truth: per stale sample, one ordered merge-join sweep over the
    // block into a fresh partial, added once.
    for (std::size_t w = 0; w < stale; ++w) {
      const std::size_t g = base + rows[w];
      const auto stale_row = X_.row(g);
      const double sq_stale = sq_norm(g);
      stats_.bytes_streamed += block * stale_row.size() * sizeof(svmdata::Feature);
      double partial = 0.0;
      for (std::size_t j = 0; j < block; ++j)
        partial += block_coeffs[j] *
                   kernel_.eval(block_rows[j], stale_row, block_sq_norms[j], sq_stale);
      accum[w] += partial;
    }
    return;
  }

  if (backend_ == EngineBackend::simd) {
    // Panel orientation: the stale side already lives in the RowStore, so
    // each circulating block row becomes the prepared query and the store is
    // swept one panel per run of stale rows. Every partial accumulates in
    // ascending j — the scalar orientations' order, so f64 stays
    // bit-identical.
    constexpr std::size_t kP = RowStore::kPanel;
    const std::size_t runs = build_panel_runs(rows, base);
    block_partials_.assign(stale, 0.0);
    for (std::size_t j = 0; j < block; ++j) {
      fill_query_vec(qa_vec_, block_rows[j]);
      store_->prepare_query(qa_vec_);
      const double coeff = block_coeffs[j];
      const double sq_block = block_sq_norms[j];
      for (std::size_t r = 0; r < runs; ++r) {
        const std::size_t first = panel_runs_[r];
        double d[kP];
        store_->panel_dots((base + rows[first] - norm_begin_) / kP, d);
        for (std::size_t w = first; w < panel_runs_[r + 1]; ++w) {
          const std::size_t local = base + rows[w] - norm_begin_;
          block_partials_[w] +=
              coeff * kernel_.finish_from_dot(d[local % kP], sq_block, store_sq(local));
        }
      }
      clear_query_vec(qa_vec_, block_rows[j]);
    }
    for (std::size_t w = 0; w < stale; ++w) accum[w] += block_partials_[w];
    stats_.panel_dots += block * runs;
    stats_.bytes_streamed += stale * block * store_->row_bytes();
    kernel_.note_evaluations(stale * block);
    return;
  }

  ensure_dense(1);
  // Adaptive orientation: scatter whichever side is smaller (ties go to the
  // block side).
  if (block <= stale) {
    // Scatter each circulating block row once; stream all stale rows
    // against it. Outer j loop is serial, so accum[w]'s additions happen in
    // increasing j order via the partials buffer.
    block_partials_.assign(stale, 0.0);
    for (std::size_t j = 0; j < block; ++j) {
      scatter(block_rows[j], 0, 1);
      stats_.scatter_builds += 1;
      const double coeff = block_coeffs[j];
      const double sq_block = block_sq_norms[j];
      for (std::size_t w = 0; w < stale; ++w) {
        const std::size_t g = base + rows[w];
        double d = 0.0;
        for (const svmdata::Feature& f : X_.row(g))
          d += f.value * dense_[static_cast<std::size_t>(f.index)];
        block_partials_[w] += coeff * kernel_.finish_from_dot(d, sq_block, sq_norm(g));
      }
      unscatter(block_rows[j], 0, 1);
    }
    for (std::size_t w = 0; w < stale; ++w) {
      stats_.bytes_streamed += block * X_.row(base + rows[w]).size() * sizeof(svmdata::Feature);
      accum[w] += block_partials_[w];
    }
  } else {
    // Scatter each stale row once; stream the whole block against it.
    // Circulating rows may be wider than this rank's matrix; features beyond
    // cols cannot intersect the scattered stale row, so skipping them is
    // exact.
    std::uint64_t block_bytes = 0;
    for (std::size_t j = 0; j < block; ++j)
      block_bytes += block_rows[j].size() * sizeof(svmdata::Feature);
    const std::size_t cols = X_.cols();
    for (std::size_t w = 0; w < stale; ++w) {
      const std::size_t g = base + rows[w];
      const auto stale_row = X_.row(g);
      const double sq_stale = sq_norm(g);
      scatter(stale_row, 0, 1);
      stats_.scatter_builds += 1;
      stats_.bytes_streamed += block_bytes;
      double partial = 0.0;
      for (std::size_t j = 0; j < block; ++j) {
        double d = 0.0;
        for (const svmdata::Feature& f : block_rows[j]) {
          const auto idx = static_cast<std::size_t>(f.index);
          if (idx < cols) d += f.value * dense_[idx];
        }
        partial += block_coeffs[j] * kernel_.finish_from_dot(d, block_sq_norms[j], sq_stale);
      }
      unscatter(stale_row, 0, 1);
      accum[w] += partial;
    }
  }
  kernel_.note_evaluations(stale * block);
}

void KernelEngine::eval_block_rows(std::span<const std::span<const svmdata::Feature>> queries,
                                   std::span<const double> query_sq_norms,
                                   std::span<const double> coeffs, std::span<double> out) {
  svmobs::TraceSpan span("engine_predict_batch", "kernel");
  // Each query is exactly one accumulate_rows scope (bit-identical by
  // construction); batching here buys the serving batcher one engine call
  // per micro-batch and, on the panel path, one store sweep per query instead of a
  // per-support-vector scatter loop.
  for (std::size_t q = 0; q < queries.size(); ++q)
    out[q] = accumulate_rows(queries[q], query_sq_norms[q], coeffs);
}

void KernelEngine::set_row_scale(std::span<const double> scale) {
  scale_.assign(scale.begin(), scale.end());
  if (cache_) cache_->clear();  // cached rows bake the scale in
}

void KernelEngine::fill_k_row(std::size_t i, std::size_t len, bool parallel, float* out) {
  const auto qrow = X_.row(i);
  const double sq_i = sq_norm(i);
  const bool scaled = !scale_.empty();
  const double s_i = scaled ? scale_[i] : 1.0;
  const auto last = static_cast<std::ptrdiff_t>(len);
  stats_.single_evals += len;
  for (std::size_t j = 0; j < len; ++j)
    stats_.bytes_streamed += X_.row(j).size() * sizeof(svmdata::Feature);

  if (backend_ == EngineBackend::reference) {
#pragma omp parallel for schedule(static) if (parallel)
    for (std::ptrdiff_t k = 0; k < last; ++k) {
      const auto j = static_cast<std::size_t>(k);
      const double kij = kernel_.eval(qrow, X_.row(j), sq_i, sq_norm(j));
      out[j] = static_cast<float>(scaled ? s_i * scale_[j] * kij : kij);
    }
    return;
  }

  ensure_dense(1);
  scatter(qrow, 0, 1);
  stats_.scatter_builds += 1;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t k = 0; k < last; ++k) {
    const auto j = static_cast<std::size_t>(k);
    double d = 0.0;
    for (const svmdata::Feature& f : X_.row(j))
      d += f.value * dense_[static_cast<std::size_t>(f.index)];
    const double kij = kernel_.finish_from_dot(d, sq_i, sq_norm(j));
    out[j] = static_cast<float>(scaled ? s_i * scale_[j] * kij : kij);
  }
  kernel_.note_evaluations(len);
  unscatter(qrow, 0, 1);
}

std::span<const float> KernelEngine::k_row_floats(std::size_t i, std::size_t len,
                                                  bool parallel) {
  if (svmobs::trace_enabled() && ++k_row_calls_ % kCacheCounterStride == 0 && cache_)
    svmobs::trace_counter("kernel_cache_hit_rate", cache_->hit_rate());
  if (cache_) {
    const std::span<const float> hit = cache_->lookup(i);
    if (hit.size() >= len) return hit.first(len);
    row_scratch_.resize(len);
    fill_k_row(i, len, parallel, row_scratch_.data());
    cache_->insert(i, row_scratch_);
    return cache_->lookup(i).first(len);  // re-lookup pins the fresh row
  }
  row_scratch_.resize(len);
  fill_k_row(i, len, parallel, row_scratch_.data());
  return std::span<const float>(row_scratch_).first(len);
}

// --- panel path helpers -----------------------------------------------------

void KernelEngine::fill_query_vec(std::vector<double>& buf,
                                  std::span<const svmdata::Feature> row) {
  const std::size_t cols = X_.cols();
  // Kept all-zero between uses (clear_query_vec), so resize only zero-fills
  // growth. Query features beyond the matrix's columns cannot intersect any
  // stored row; skipping them is exact (same argument as scatter()).
  if (buf.size() < cols) buf.resize(cols, 0.0);
  for (const svmdata::Feature& f : row) {
    const auto idx = static_cast<std::size_t>(f.index);
    if (idx < cols) buf[idx] = f.value;
  }
  stats_.scatter_builds += 1;
}

void KernelEngine::clear_query_vec(std::vector<double>& buf,
                                   std::span<const svmdata::Feature> row) {
  const std::size_t cols = X_.cols();
  for (const svmdata::Feature& f : row) {
    const auto idx = static_cast<std::size_t>(f.index);
    if (idx < cols) buf[idx] = 0.0;
  }
}

std::size_t KernelEngine::build_panel_runs(std::span<const std::uint32_t> rows,
                                           std::size_t base) {
  constexpr std::size_t kP = RowStore::kPanel;
  panel_runs_.clear();
  std::size_t cur = std::numeric_limits<std::size_t>::max();
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::size_t p = (base + rows[k] - norm_begin_) / kP;
    if (p != cur) {
      panel_runs_.push_back(k);
      cur = p;
    }
  }
  const std::size_t runs = panel_runs_.size();
  panel_runs_.push_back(rows.size());
  return runs;
}

void KernelEngine::simd_pair_indexed(std::span<const std::uint32_t> rows, std::size_t base,
                                     double sq_up, double sq_low, std::span<double> out_up,
                                     std::span<double> out_low) {
  store_->prepare_query(qa_vec_, qb_vec_);
  constexpr std::size_t kP = RowStore::kPanel;
  const std::size_t runs = build_panel_runs(rows, base);
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t first = panel_runs_[r];
    const std::size_t last = panel_runs_[r + 1];
    double oa[kP];
    double ob[kP];
    store_->panel_dots((base + rows[first] - norm_begin_) / kP, oa, ob);
    for (std::size_t k = first; k < last; ++k) {
      const std::size_t local = base + rows[k] - norm_begin_;
      const double sq = store_sq(local);
      out_up[k] = kernel_.finish_from_dot(oa[local % kP], sq_up, sq);
      out_low[k] = kernel_.finish_from_dot(ob[local % kP], sq_low, sq);
    }
  }
  stats_.panel_dots += runs;
}

void KernelEngine::simd_pair_range(std::size_t begin, std::size_t end, double sq_up,
                                   double sq_low, std::span<double> out_up,
                                   std::span<double> out_low) {
  store_->prepare_query(qa_vec_, qb_vec_);
  constexpr std::size_t kP = RowStore::kPanel;
  const std::size_t lo = begin - norm_begin_;
  const std::size_t hi = end - norm_begin_;
  const std::size_t plo = lo / kP;
  const std::size_t phi = (hi + kP - 1) / kP;
  for (std::size_t p = plo; p < phi; ++p) {
    double oa[kP];
    double ob[kP];
    store_->panel_dots(p, oa, ob);
    const std::size_t first = std::max(lo, p * kP);
    const std::size_t last = std::min(hi, (p + 1) * kP);
    for (std::size_t local = first; local < last; ++local) {
      const std::size_t lane = local - p * kP;
      const double sq = store_sq(local);
      out_up[local - lo] = kernel_.finish_from_dot(oa[lane], sq_up, sq);
      out_low[local - lo] = kernel_.finish_from_dot(ob[lane], sq_low, sq);
    }
  }
  stats_.panel_dots += phi - plo;
}

void KernelEngine::simd_single_range(std::size_t begin, std::size_t end, double sq_query,
                                     std::span<double> out) {
  store_->prepare_query(qa_vec_);
  constexpr std::size_t kP = RowStore::kPanel;
  const std::size_t lo = begin - norm_begin_;
  const std::size_t hi = end - norm_begin_;
  const std::size_t plo = lo / kP;
  const std::size_t phi = (hi + kP - 1) / kP;
  for (std::size_t p = plo; p < phi; ++p) {
    double d[kP];
    store_->panel_dots(p, d);
    const std::size_t first = std::max(lo, p * kP);
    const std::size_t last = std::min(hi, (p + 1) * kP);
    for (std::size_t local = first; local < last; ++local)
      out[local - lo] = kernel_.finish_from_dot(d[local - p * kP], sq_query, store_sq(local));
  }
  stats_.panel_dots += phi - plo;
}

double KernelEngine::accumulate_rows(std::span<const svmdata::Feature> query,
                                     double sq_query, std::span<const double> coeffs) {
  const std::size_t n = coeffs.size();

  if (backend_ != EngineBackend::simd) {
    // The query's kernel row (eval_rows opens the trace span and counts the
    // work), then the coefficient reduction in ascending row order.
    kvals_.resize(n);
    eval_rows(query, sq_query, norm_begin_, norm_begin_ + n, kvals_);
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += coeffs[j] * kvals_[j];
    return sum;
  }

  // Panel sweep with an ordered (ascending-row) coefficient reduction: same
  // per-term operations and order as the scalar path above, so f64 stays
  // bit-identical.
  svmobs::TraceSpan span("engine_row_batch", "kernel");
  stats_.single_evals += n;
  stats_.bytes_streamed += n * store_->row_bytes();
  constexpr std::size_t kP = RowStore::kPanel;
  fill_query_vec(qa_vec_, query);
  store_->prepare_query(qa_vec_);
  double sum = 0.0;
  double d[kP];
  const std::size_t panels = (n + kP - 1) / kP;
  for (std::size_t p = 0; p < panels; ++p) {
    store_->panel_dots(p, d);
    const std::size_t lim = std::min(n - p * kP, kP);
    for (std::size_t l = 0; l < lim; ++l) {
      const std::size_t j = p * kP + l;
      sum += coeffs[j] * kernel_.finish_from_dot(d[l], sq_query, store_sq(j));
    }
  }
  stats_.panel_dots += panels;
  kernel_.note_evaluations(n);
  clear_query_vec(qa_vec_, query);
  return sum;
}

}  // namespace svmkernel
