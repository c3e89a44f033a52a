// Trained SVM model: support vectors, their coefficients alpha_j * y_j, the
// threshold beta and the kernel. Prediction computes
//   f(x) = sum_j coef_j * K(sv_j, x) - beta,  label = sign(f(x)).
// Serialization is a versioned text format that round-trips every normal
// double exactly (decimal values at 17 significant digits, %.17g).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "data/sparse.hpp"
#include "kernel/kernel.hpp"
#include "kernel/kernel_engine.hpp"

namespace svmcore {

class SvmModel {
 public:
  SvmModel() = default;
  SvmModel(svmkernel::KernelParams kernel, svmdata::CsrMatrix support_vectors,
           std::vector<double> coefficients, double beta);

  [[nodiscard]] std::size_t num_support_vectors() const noexcept { return coefficients_.size(); }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] const svmkernel::KernelParams& kernel_params() const noexcept { return kernel_; }
  [[nodiscard]] const svmdata::CsrMatrix& support_vectors() const noexcept {
    return support_vectors_;
  }
  [[nodiscard]] const std::vector<double>& coefficients() const noexcept { return coefficients_; }

  /// Signed decision value f(x); positive ⇒ class +1.
  [[nodiscard]] double decision_value(std::span<const svmdata::Feature> x) const;

  /// A KernelEngine over this model's support vectors, for batched scoring
  /// of many queries (decision_value(x, engine)). The engine references the
  /// model — the model must outlive it. One engine per thread: the engine
  /// carries mutable scatter state. `flavor` selects the resident precision
  /// of the support-vector rows (f32/f16/i8 trade exactness for
  /// footprint/bandwidth on the panel path; see row_store.hpp). `backend`
  /// forces a path for the parity tests and the precision bench.
  [[nodiscard]] svmkernel::KernelEngine make_engine(
      svmkernel::EngineBackend backend = svmkernel::EngineBackend::automatic,
      svmkernel::RowFlavor flavor = svmkernel::RowFlavor::f64) const;

  /// Engine-accelerated scoring; `engine` must come from make_engine() on
  /// this model. Bit-identical to the plain decision_value overload for f64
  /// engines on any path; flavored engines score against the compressed
  /// support vectors (the accuracy-gated serving path).
  [[nodiscard]] double decision_value(std::span<const svmdata::Feature> x,
                                      svmkernel::KernelEngine& engine) const;

  [[nodiscard]] double predict(std::span<const svmdata::Feature> x) const {
    return decision_value(x) >= 0.0 ? 1.0 : -1.0;
  }

  /// Predicts every row, OpenMP-parallel across rows.
  [[nodiscard]] std::vector<double> predict_all(const svmdata::CsrMatrix& X) const;

  /// Fraction of rows whose prediction matches `labels`.
  [[nodiscard]] double accuracy(const svmdata::Dataset& test) const;

  // --- serialization -----------------------------------------------------
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  [[nodiscard]] static SvmModel load(std::istream& in);
  [[nodiscard]] static SvmModel load_file(const std::string& path);

 private:
  svmkernel::KernelParams kernel_{};
  svmdata::CsrMatrix support_vectors_;
  std::vector<double> coefficients_;  ///< alpha_j * y_j per support vector
  std::vector<double> sv_sq_norms_;   ///< cached ||sv_j||^2 for rbf
  double beta_ = 0.0;
};

}  // namespace svmcore
