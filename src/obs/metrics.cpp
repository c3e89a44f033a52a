#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"

namespace svmobs {

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0 && other.bounds_.empty()) return;
  if (bounds_.empty() && count_ == 0) {
    *this = other;
    return;
  }
  if (bounds_ != other.bounds_)
    throw std::runtime_error("svmobs: merging histograms with different bucket bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  sum_ += other.sum_;
  count_ += other.count_;
}

double Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[b];
    if (static_cast<double>(cumulative) < target) continue;
    if (b >= bounds_.size())  // overflow bucket: no upper edge
      return bounds_.empty() ? 0.0 : bounds_.back();
    const double lower = b == 0 ? std::min(0.0, bounds_[0]) : bounds_[b - 1];
    const double upper = bounds_[b];
    const double fraction =
        std::clamp((target - before) / static_cast<double>(counts_[b]), 0.0, 1.0);
    return lower + fraction * (upper - lower);
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::string MetricsRegistry::canonical_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) key += ',';
    first = false;
    key += k;
    key += '=';
    key += v;
  }
  key += '}';
  return key;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels) {
  return counters_[canonical_key(name, labels)];
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return gauges_[canonical_key(name, labels)];
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds,
                                      const Labels& labels) {
  auto [it, inserted] = histograms_.try_emplace(canonical_key(name, labels));
  if (inserted) it->second = Histogram(std::move(bounds));
  return it->second;
}

double MetricsRegistry::value(const std::string& key) const {
  if (const auto c = counters_.find(key); c != counters_.end())
    return static_cast<double>(c->second.value());
  if (const auto g = gauges_.find(key); g != gauges_.end()) return g->second.value();
  return 0.0;
}

void MetricsRegistry::aggregate_from(const MetricsRegistry& rank) {
  for (const auto& [key, c] : rank.counters_) counters_[key].add(c.value());
  for (const auto& [key, g] : rank.gauges_) {
    auto [it, inserted] = gauges_.try_emplace(key);
    if (inserted)
      it->second.set(g.value());
    else
      it->second.max_with(g.value());
  }
  for (const auto& [key, h] : rank.histograms_) histograms_[key].merge(h);
}

void MetricsRegistry::to_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [key, c] : counters_) {
    w.key(key);
    w.value(c.value());
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [key, g] : gauges_) {
    w.key(key);
    w.value(g.value());
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [key, h] : histograms_) {
    w.key(key);
    w.begin_object();
    w.key("bounds");
    w.begin_array();
    for (const double b : h.bounds()) w.value(b);
    w.end_array();
    w.key("counts");
    w.begin_array();
    for (const std::uint64_t c : h.counts()) w.value(c);
    w.end_array();
    w.key("sum");
    w.value(h.sum());
    w.key("count");
    w.value(h.count());
    w.key("p50");
    w.value(h.percentile(50.0));
    w.key("p95");
    w.value(h.percentile(95.0));
    w.key("p99");
    w.value(h.percentile(99.0));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string MetricsRegistry::json() const {
  JsonWriter w;
  to_json(w);
  return w.str();
}

}  // namespace svmobs
