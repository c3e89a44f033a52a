// LRU kernel-row cache, the component the paper's proposed algorithm
// deliberately *avoids* (§III-A.2) but which the libsvm baseline depends on.
// Caches full rows K(x_i, *) keyed by sample index with a byte budget;
// eviction is least-recently-used, matching libsvm's Cache class semantics.
// Hit/miss counters feed the kernel-cache ablation bench.
//
// Rows are stored and served as exact float spans; the byte budget charges
// 4 bytes per value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

namespace svmkernel {

class KernelRowCache {
 public:
  /// `budget_bytes` bounds the summed size of cached rows; a single row
  /// larger than the budget is still admitted alone (libsvm behaviour).
  explicit KernelRowCache(std::size_t budget_bytes) : budget_bytes_(budget_bytes) {}

  /// Looks up the row for sample `index`. On hit, returns a view and bumps
  /// recency. On miss, returns an empty span; call insert() with the data.
  ///
  /// Lifetime contract: the returned span stays valid until the NEXT call to
  /// lookup() or clear(). The looked-up entry is pinned — insert() will evict
  /// other LRU entries but never the pinned one (the budget may transiently
  /// overshoot by that single row, matching libsvm's behaviour of always
  /// keeping the in-flight row resident). Each lookup() releases the
  /// previous pin, so callers that need two live rows must copy the first.
  [[nodiscard]] std::span<const float> lookup(std::size_t index);

  /// Inserts a copy of a row, evicting LRU entries until within budget. The
  /// entry pinned by the latest lookup() is never evicted; the inserted row
  /// itself becomes most-recent but is not pinned.
  void insert(std::size_t index, std::span<const float> row);

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  /// Bytes currently resident (what the budget is charged against).
  [[nodiscard]] std::size_t bytes_used() const noexcept { return bytes_used_; }
  [[nodiscard]] std::size_t entries() const noexcept { return map_.size(); }
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

  void clear();

 private:
  struct Entry {
    std::size_t index;
    std::vector<float> row;
  };

  [[nodiscard]] static std::size_t entry_bytes(const Entry& e) noexcept {
    return e.row.size() * sizeof(float);
  }

  static constexpr std::size_t kNoPin = static_cast<std::size_t>(-1);

  std::size_t budget_bytes_;
  std::size_t bytes_used_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::size_t, std::list<Entry>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::size_t pinned_ = kNoPin;  ///< index of the entry the last lookup() returned
};

}  // namespace svmkernel
