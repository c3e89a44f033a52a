// Precision-flavored dense row storage for the SIMD kernel backend.
//
// A RowStore materializes a contiguous range of CSR rows as dense panels of
// simd::kPanel (=8) rows in one of four element flavors:
//
//   f64  8 B/elem  bit-exact: panel sums reproduce the scalar dense pass
//   f32  4 B/elem  rows rounded to binary32 (RNE)
//   f16  2 B/elem  rows rounded to binary16 (RNE), decoded exactly on eval
//   i8   1 B/elem  per-row affine quantization: value ~ offset + scale*code
//
// Panel layout is lane-per-row (element (r, j) of a panel at base[j*8 + r]),
// so one SIMD sweep over columns advances eight row dots at once while each
// lane remains ONE sequential accumulation over ascending j — the property
// the f64 bit-identity argument rests on (see simd.hpp and the signed-zero
// identity note in kernel_engine.hpp; the extra q[j]*0.0 terms the dense
// sweep adds are bitwise identities for every case the solvers exercise).
//
// i8 quantization policy: rows with implicit zeros use SYMMETRIC scaling
// (offset = 0, scale = max|v|/127) so missing features decode to exactly
// 0.0; only fully-dense rows use the affine midrange form. Per-row squared
// norms are recomputed from the DECODED values, so RBF distances are
// consistent with the quantized dots.
//
// Reduced-precision flavors are approximate by design and are accuracy-gated
// at the prediction layer (tests + bench_precision); training never uses
// them. The f64 flavor is exact on every engine path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/sparse.hpp"
#include "kernel/simd.hpp"

namespace svmkernel {

enum class RowFlavor : std::uint8_t { f64, f32, f16, i8 };

[[nodiscard]] std::string to_string(RowFlavor flavor);
/// Accepts "f64"/"double", "f32"/"float", "f16"/"half", "i8"/"int8".
/// Throws std::invalid_argument naming the unknown flavor otherwise.
[[nodiscard]] RowFlavor row_flavor_from_string(const std::string& name);
/// Bytes per stored element (8/4/2/1).
[[nodiscard]] std::size_t flavor_element_bytes(RowFlavor flavor) noexcept;

class RowStore {
 public:
  static constexpr std::size_t kPanel = simd::kPanel;

  /// Materializes rows [row_begin, row_end) of X. Throws std::invalid_argument
  /// if the dense footprint would exceed ~3 GiB (pathologically wide sparse
  /// data — use the dense_scatter path there).
  RowStore(const svmdata::CsrMatrix& X, std::size_t row_begin, std::size_t row_end,
           RowFlavor flavor);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t panels() const noexcept { return panels_; }
  [[nodiscard]] RowFlavor flavor() const noexcept { return flavor_; }
  [[nodiscard]] const char* ops_name() const noexcept { return ops_->name; }

  /// Encoded panel payload plus per-row quantization parameters, the bytes
  /// the flavored store actually keeps resident (norms excluded; every
  /// backend carries those).
  [[nodiscard]] std::size_t bytes_resident() const noexcept { return bytes_resident_; }
  /// Bytes one row's worth of panel data occupies (streaming-stats unit).
  [[nodiscard]] std::size_t row_bytes() const noexcept {
    return cols_ * flavor_element_bytes(flavor_);
  }

  /// Squared norm of the DECODED local row (equals the CSR norm for f64).
  [[nodiscard]] double sq_norm(std::size_t local_row) const { return sq_norms_[local_row]; }
  [[nodiscard]] std::span<const double> sq_norms() const noexcept { return sq_norms_; }

  /// Opens a query scope: densifies derived query state (f32 copies, column
  /// sums for i8). The spans must outlive subsequent panel_dots calls; the
  /// store is single-owner like KernelEngine, so the usual engine query
  /// discipline applies. `qb` may be empty for single-query scopes.
  void prepare_query(std::span<const double> qa, std::span<const double> qb = {});

  /// Writes the prepared query's dot against each of panel `p`'s eight rows
  /// into out_a[0..8) (and the second query's into out_b when non-null,
  /// which requires prepare_query to have been given `qb`). Lanes beyond
  /// rows() hold zeros from padding. Thread-safe: only reads prepared state.
  void panel_dots(std::size_t p, double* out_a, double* out_b = nullptr) const;

 private:
  void encode(const svmdata::CsrMatrix& X, std::size_t row_begin);

  RowFlavor flavor_;
  const simd::Ops* ops_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t panels_ = 0;
  std::size_t bytes_resident_ = 0;

  // Exactly one of these holds the panels, by flavor.
  std::vector<double> data_f64_;
  std::vector<float> data_f32_;
  std::vector<std::uint16_t> data_f16_;
  std::vector<std::int8_t> data_i8_;
  std::vector<float> i8_scale_;   ///< per padded row; 0 for padding lanes
  std::vector<float> i8_offset_;  ///< nonzero only for fully-dense rows

  std::vector<double> sq_norms_;  ///< decoded-row norms, size rows()

  // Prepared-query state (written by prepare_query, read by panel_dots).
  std::span<const double> qa64_;
  std::span<const double> qb64_;
  std::vector<float> qa32_;
  std::vector<float> qb32_;
  double qa_sum_ = 0.0;  ///< sum_j qa[j], the i8 offset correction term
  double qb_sum_ = 0.0;
  bool have_qb_ = false;
};

}  // namespace svmkernel
