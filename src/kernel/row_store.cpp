#include "kernel/row_store.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace svmkernel {

namespace {
constexpr std::size_t kMaxStoreBytes = std::size_t{3} << 30;  // 3 GiB dense-footprint guard
}

std::string to_string(RowFlavor flavor) {
  switch (flavor) {
    case RowFlavor::f64: return "f64";
    case RowFlavor::f32: return "f32";
    case RowFlavor::f16: return "f16";
    case RowFlavor::i8: return "i8";
  }
  return "unknown";
}

RowFlavor row_flavor_from_string(const std::string& name) {
  if (name == "f64" || name == "double") return RowFlavor::f64;
  if (name == "f32" || name == "float") return RowFlavor::f32;
  if (name == "f16" || name == "half") return RowFlavor::f16;
  if (name == "i8" || name == "int8") return RowFlavor::i8;
  throw std::invalid_argument("row_flavor_from_string: unknown flavor '" + name +
                              "' (expected f64|f32|f16|i8)");
}

std::size_t flavor_element_bytes(RowFlavor flavor) noexcept {
  switch (flavor) {
    case RowFlavor::f64: return 8;
    case RowFlavor::f32: return 4;
    case RowFlavor::f16: return 2;
    case RowFlavor::i8: return 1;
  }
  return 8;
}

RowStore::RowStore(const svmdata::CsrMatrix& X, std::size_t row_begin, std::size_t row_end,
                   RowFlavor flavor)
    : flavor_(flavor), ops_(&simd::ops()) {
  if (row_begin > row_end || row_end > X.rows())
    throw std::invalid_argument("RowStore: row range out of bounds");
  rows_ = row_end - row_begin;
  cols_ = X.cols();
  panels_ = (rows_ + kPanel - 1) / kPanel;
  const std::size_t elems = panels_ * kPanel * cols_;
  const std::size_t payload = elems * flavor_element_bytes(flavor_);
  if (payload > kMaxStoreBytes)
    throw std::invalid_argument(
        "RowStore: dense flavored storage for " + std::to_string(rows_) + "x" +
        std::to_string(cols_) + " rows would need " + std::to_string(payload) +
        " bytes; use the dense_scatter path for very wide sparse data");
  switch (flavor_) {
    case RowFlavor::f64: data_f64_.assign(elems, 0.0); break;
    case RowFlavor::f32: data_f32_.assign(elems, 0.0f); break;
    case RowFlavor::f16: data_f16_.assign(elems, 0); break;
    case RowFlavor::i8:
      data_i8_.assign(elems, 0);
      i8_scale_.assign(panels_ * kPanel, 0.0f);
      i8_offset_.assign(panels_ * kPanel, 0.0f);
      break;
  }
  bytes_resident_ = payload;
  if (flavor_ == RowFlavor::i8)
    bytes_resident_ += (i8_scale_.size() + i8_offset_.size()) * sizeof(float);
  sq_norms_.assign(rows_, 0.0);
  encode(X, row_begin);
}

void RowStore::encode(const svmdata::CsrMatrix& X, std::size_t row_begin) {
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto row = X.row(row_begin + r);
    const std::size_t base = (r / kPanel) * kPanel * cols_ + (r % kPanel);
    double sq = 0.0;
    switch (flavor_) {
      case RowFlavor::f64: {
        for (const auto& f : row) {
          data_f64_[base + static_cast<std::size_t>(f.index) * kPanel] = f.value;
          sq += f.value * f.value;
        }
        break;
      }
      case RowFlavor::f32: {
        for (const auto& f : row) {
          const float v = static_cast<float>(f.value);
          data_f32_[base + static_cast<std::size_t>(f.index) * kPanel] = v;
          const double d = static_cast<double>(v);
          sq += d * d;
        }
        break;
      }
      case RowFlavor::f16: {
        for (const auto& f : row) {
          const std::uint16_t h = simd::float_to_half(static_cast<float>(f.value));
          data_f16_[base + static_cast<std::size_t>(f.index) * kPanel] = h;
          const double d = static_cast<double>(simd::half_to_float(h));
          sq += d * d;
        }
        break;
      }
      case RowFlavor::i8: {
        // Pick the per-row affine map. Rows with implicit zeros must keep
        // zero representable exactly, so they get the symmetric map; only
        // fully-dense rows spend the codebook on the [min, max] midrange.
        float scale = 0.0f;
        float offset = 0.0f;
        if (!row.empty()) {
          if (row.size() == cols_) {
            double lo = row.front().value;
            double hi = lo;
            for (const auto& f : row) {
              lo = std::min(lo, f.value);
              hi = std::max(hi, f.value);
            }
            offset = static_cast<float>(0.5 * (lo + hi));
            scale = static_cast<float>((hi - lo) / 254.0);
          } else {
            double amax = 0.0;
            for (const auto& f : row) amax = std::max(amax, std::abs(f.value));
            scale = static_cast<float>(amax / 127.0);
          }
        }
        i8_scale_[r] = scale;
        i8_offset_[r] = offset;
        const double ds = static_cast<double>(scale);
        const double doff = static_cast<double>(offset);
        for (const auto& f : row) {
          long code = 0;
          if (scale != 0.0f) {
            code = std::lround((f.value - doff) / ds);
            code = std::clamp(code, long{-127}, long{127});
          }
          data_i8_[base + static_cast<std::size_t>(f.index) * kPanel] =
              static_cast<std::int8_t>(code);
          const double d = doff + ds * static_cast<double>(code);
          sq += d * d;
        }
        // Implicit zeros decode to offset + scale*0 = offset; symmetric rows
        // have offset == 0 so they contribute nothing. (Affine rows have no
        // implicit zeros by construction.)
        break;
      }
    }
    sq_norms_[r] = sq;
  }
}

void RowStore::prepare_query(std::span<const double> qa, std::span<const double> qb) {
  qa64_ = qa;
  qb64_ = qb;
  have_qb_ = !qb.empty();
  if (flavor_ == RowFlavor::f64) return;
  qa32_.resize(cols_);
  for (std::size_t j = 0; j < cols_; ++j) qa32_[j] = static_cast<float>(qa[j]);
  if (have_qb_) {
    qb32_.resize(cols_);
    for (std::size_t j = 0; j < cols_; ++j) qb32_[j] = static_cast<float>(qb[j]);
  }
  if (flavor_ == RowFlavor::i8) {
    qa_sum_ = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) qa_sum_ += qa[j];
    qb_sum_ = 0.0;
    if (have_qb_)
      for (std::size_t j = 0; j < cols_; ++j) qb_sum_ += qb[j];
  }
}

void RowStore::panel_dots(std::size_t p, double* out_a, double* out_b) const {
  const std::size_t base = p * kPanel * cols_;
  switch (flavor_) {
    case RowFlavor::f64: {
      const double* panel = data_f64_.data() + base;
      if (out_b)
        ops_->dot2_f64(qa64_.data(), qb64_.data(), panel, cols_, out_a, out_b);
      else
        ops_->dot_f64(qa64_.data(), panel, cols_, out_a);
      return;
    }
    case RowFlavor::f32: {
      const float* panel = data_f32_.data() + base;
      float a[kPanel], b[kPanel];
      if (out_b)
        ops_->dot2_f32(qa32_.data(), qb32_.data(), panel, cols_, a, b);
      else
        ops_->dot_f32(qa32_.data(), panel, cols_, a);
      for (std::size_t l = 0; l < kPanel; ++l) out_a[l] = static_cast<double>(a[l]);
      if (out_b)
        for (std::size_t l = 0; l < kPanel; ++l) out_b[l] = static_cast<double>(b[l]);
      return;
    }
    case RowFlavor::f16: {
      const std::uint16_t* panel = data_f16_.data() + base;
      float a[kPanel], b[kPanel];
      if (out_b)
        ops_->dot2_f16(qa32_.data(), qb32_.data(), panel, cols_, a, b);
      else
        ops_->dot_f16(qa32_.data(), panel, cols_, a);
      for (std::size_t l = 0; l < kPanel; ++l) out_a[l] = static_cast<double>(a[l]);
      if (out_b)
        for (std::size_t l = 0; l < kPanel; ++l) out_b[l] = static_cast<double>(b[l]);
      return;
    }
    case RowFlavor::i8: {
      const std::int8_t* panel = data_i8_.data() + base;
      float a[kPanel], b[kPanel];
      if (out_b)
        ops_->dot2_i8(qa32_.data(), qb32_.data(), panel, cols_, a, b);
      else
        ops_->dot_i8(qa32_.data(), panel, cols_, a);
      // dot = scale_r * sum_j q[j]*code_r[j] + offset_r * sum_j q[j]
      const float* scale = i8_scale_.data() + p * kPanel;
      const float* offset = i8_offset_.data() + p * kPanel;
      for (std::size_t l = 0; l < kPanel; ++l)
        out_a[l] = static_cast<double>(scale[l]) * static_cast<double>(a[l]) +
                   static_cast<double>(offset[l]) * qa_sum_;
      if (out_b)
        for (std::size_t l = 0; l < kPanel; ++l)
          out_b[l] = static_cast<double>(scale[l]) * static_cast<double>(b[l]) +
                     static_cast<double>(offset[l]) * qb_sum_;
      return;
    }
  }
}

}  // namespace svmkernel
