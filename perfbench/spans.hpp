// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a layer (the program's
// internal spans are not used), kept in memory, and written out once as
// Chrome trace-event JSON when the run ends. Single-threaded: only the
// benchmark's main thread records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    const char* layer = "";  ///< module name: data, mpisim, kernel, ...
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at top
    std::int64_t key = -1;     ///< request id for serve requests, else -1
  };

  /// RAII span around one call; a no-op while recording is disabled.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::int64_t id_;
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Adds a finished span measured elsewhere (serve requests, whose times
  /// come from the service clock), parented to the innermost open span.
  void add(std::string name, const char* layer, double start_s, double end_s, std::int64_t key);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes every span as Chrome trace-event JSON (one "X" event each).
  void write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
  bool enabled_ = false;
};

/// Measured wall cost of recording one span, in seconds.
[[nodiscard]] double span_cost_s();

}  // namespace perfbench
