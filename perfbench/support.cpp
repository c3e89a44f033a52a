#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "perfbench.hpp"
#include "spans.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name, const char* layer)
    : recorder_(recorder), id_(-1) {
  if (!recorder_.enabled_) return;
  id_ = static_cast<std::int64_t>(recorder_.spans_.size());
  const std::int64_t parent = recorder_.open_.empty() ? -1 : recorder_.open_.back();
  recorder_.spans_.push_back({std::move(name), layer, now_s(), 0.0, parent, -1});
  recorder_.open_.push_back(id_);
}

SpanRecorder::Scope::~Scope() {
  if (id_ < 0) return;
  recorder_.spans_[static_cast<std::size_t>(id_)].end_s = now_s();
  recorder_.open_.pop_back();
}

void SpanRecorder::add(std::string name, const char* layer, double start_s, double end_s,
                       std::int64_t key) {
  if (!enabled_) return;
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), layer, start_s, end_s, parent, key});
}

double span_cost_s() {
  constexpr int kSpans = 100000;
  SpanRecorder probe;
  probe.set_enabled(true);
  const double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) SpanRecorder::Scope span(probe, "data.read_libsvm_file", "data");
  return (now_s() - t0) / kSpans;
}

void SpanRecorder::write_chrome(const std::string& path) const {
  svmobs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("cat");
    w.value(s.layer);
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(s.start_s * 1e6);
    w.key("dur");
    w.value((s.end_s - s.start_s) * 1e6);
    w.key("pid");
    w.value(1);
    // Serve requests overlap the calls around them: a track of their own.
    w.key("tid");
    w.value(s.key >= 0 ? 2 : 1);
    w.key("args");
    w.begin_object();
    w.key("span");
    w.value(static_cast<std::int64_t>(i));
    w.key("parent");
    w.value(s.parent);
    if (s.key >= 0) {
      w.key("request");
      w.value(s.key);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  if (!out) throw std::runtime_error("perfbench: cannot write trace " + path);
}

}  // namespace perfbench
