// Metrics registry: named counters, gauges and histograms with optional
// labels. One registry per owner (a rank's solver, a bench run) — no atomics
// and no locks; instruments are plain fields and handles are stable
// references (std::map nodes never move), so a hot loop binds a Counter&
// once and increments a single machine word.
//
// The solvers keep their counters and timers here. SolverStats and
// TrainResult add only what a registry does not hold by name plus a few
// totals their callers read; everything else is looked up with value().
// Run reports (obs/report.hpp) serialize registries to JSON.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace svmobs {

class JsonWriter;

/// Monotonic event count. set() exists solely for checkpoint restore, which
/// rewinds a replayed rank's counters to the restored epoch.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  void set(std::uint64_t value) noexcept { value_ = value; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value, with accumulate/min/max conveniences for timers and
/// watermarks.
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  void add(double delta) noexcept { value_ += delta; }
  void min_with(double value) noexcept { value_ = value < value_ ? value : value_; }
  void max_with(double value) noexcept { value_ = value_ < value ? value : value_; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bound bucket histogram (+inf overflow bucket implied); observe()
/// is a linear scan over the (few) bounds.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  void observe(double value) noexcept {
    std::size_t b = 0;
    while (b < bounds_.size() && value > bounds_[b]) ++b;
    ++counts_[b];
    sum_ += value;
    ++count_;
  }

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Bucket-wise merge; bounds must match (or this histogram be empty).
  void merge(const Histogram& other);

  /// Estimates the p-th percentile (p in [0,100]) by linear interpolation
  /// within the bucket holding the target rank. The overflow bucket has no
  /// upper edge, so percentiles landing there report the highest finite
  /// bound (a known underestimate — size the bounds to cover the tail).
  /// Returns 0 for an empty histogram.
  [[nodiscard]] double percentile(double p) const noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_{0};
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Label set, e.g. {{"exit","converged"}}. Kept sorted for a canonical key.
using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  /// Handles are stable for the registry's lifetime (map nodes don't move);
  /// bind once, increment forever.
  [[nodiscard]] Counter& counter(const std::string& name, const Labels& labels = {});
  [[nodiscard]] Gauge& gauge(const std::string& name, const Labels& labels = {});
  /// `bounds` applies on first creation only.
  [[nodiscard]] Histogram& histogram(const std::string& name, std::vector<double> bounds,
                                     const Labels& labels = {});

  /// Read-only views over everything registered, keyed by the canonical
  /// "name{k=v,...}" string.
  [[nodiscard]] const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const noexcept { return gauges_; }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// The counter or gauge registered under the canonical key `key` (the
  /// plain name when unlabeled), or 0 when neither exists. Counters convert
  /// to double exactly below 2^53.
  [[nodiscard]] double value(const std::string& key) const;

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Cross-rank aggregation: counters sum, gauges take the max (wall times —
  /// the slowest rank paces the run), histograms merge bucket-wise.
  void aggregate_from(const MetricsRegistry& rank);

  /// Serializes as {"counters":{...},"gauges":{...},"histograms":{...}}.
  void to_json(JsonWriter& w) const;
  [[nodiscard]] std::string json() const;

  [[nodiscard]] static std::string canonical_key(const std::string& name, const Labels& labels);

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace svmobs
