// Wire format for moving sample subsets between ranks: each rank's x_up and
// x_low candidates in Algorithm 2's pair allreduce (one sample per side) and
// the CSR ring exchange in Algorithm 3. A PackedSamples block carries, per
// sample: global index, label, alpha, squared norm and the sparse feature
// row. pack()/unpack() round-trip through a flat byte buffer transported by
// the message-passing substrate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/sparse.hpp"

namespace svmcore {

class PackedSamples {
 public:
  PackedSamples() = default;

  void reserve(std::size_t samples, std::size_t features);

  /// Empties the block but keeps every internal buffer's capacity, so a
  /// block reused across ring steps stops allocating once sizes stabilize.
  void clear() noexcept;

  void add(std::int64_t global_index, double y, double alpha, double sq_norm,
           std::span<const svmdata::Feature> features);

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] bool empty() const noexcept { return index_.empty(); }

  [[nodiscard]] std::int64_t global_index(std::size_t i) const noexcept { return index_[i]; }
  [[nodiscard]] double y(std::size_t i) const noexcept { return y_[i]; }
  [[nodiscard]] double alpha(std::size_t i) const noexcept { return alpha_[i]; }
  [[nodiscard]] double sq_norm(std::size_t i) const noexcept { return sq_norm_[i]; }
  [[nodiscard]] std::span<const svmdata::Feature> row(std::size_t i) const noexcept {
    return std::span<const svmdata::Feature>(features_.data() + offsets_[i],
                                             offsets_[i + 1] - offsets_[i]);
  }

  /// Total bytes pack() will produce; the quantity the network model charges.
  [[nodiscard]] std::size_t packed_bytes() const noexcept;

  [[nodiscard]] std::vector<std::byte> pack() const;

  /// pack() into a caller-owned buffer, reusing its capacity; `out` is
  /// resized to exactly packed_bytes(). The reconstruction ring packs into
  /// the same circulating buffer every round instead of allocating.
  void pack_into(std::vector<std::byte>& out) const;

  /// Inverse of pack(); throws std::runtime_error on malformed buffers.
  [[nodiscard]] static PackedSamples unpack(std::span<const std::byte> bytes);

  /// unpack() into a caller-owned block, reusing its vectors' capacity.
  /// `out` is fully overwritten; on a malformed buffer it is left cleared.
  static void unpack_into(std::span<const std::byte> bytes, PackedSamples& out);

 private:
  std::vector<std::int64_t> index_;
  std::vector<double> y_;
  std::vector<double> alpha_;
  std::vector<double> sq_norm_;
  std::vector<std::uint64_t> offsets_{0};  ///< CSR offsets into features_
  std::vector<svmdata::Feature> features_;
};

}  // namespace svmcore
