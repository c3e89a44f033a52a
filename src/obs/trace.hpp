// Trace recorder: per-thread (per-rank) event ring buffers with Chrome
// trace-event JSON export, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Design constraints, in priority order:
//
//  1. ~ns no-op when disabled. Every emission entry point is an inline
//     function whose first instruction is a relaxed atomic load of the
//     global enable flag; solver hot loops can therefore be instrumented
//     unconditionally. The micro-bench guard in bench_micro_mpisim asserts
//     the disabled-path overhead on an SMO-shaped hot loop stays < 2%.
//
//  2. Lock-free append. Each thread writes only its own ring buffer
//     (registered once under a mutex on first emission); an append is a
//     plain array store plus an index increment — no atomics, no locks, no
//     allocation. Buffers are owned by the global recorder and outlive
//     their threads, so export after an SPMD join reads them race-free
//     (thread join provides the happens-before edge).
//
//  3. Bounded memory. Buffers are fixed-capacity rings: overflow drops the
//     OLDEST events (per-thread drop counters are reported in the export).
//     The exporter repairs spans the eviction truncated — an end event
//     whose begin was dropped gets a synthetic begin at the buffer's oldest
//     timestamp — so the emitted JSON always has balanced, properly nested
//     begin/end pairs and monotonic per-track timestamps, which
//     tools/trace_validate enforces.
//
//  4. Crash-safe flush. Faults in this codebase surface as C++ exceptions,
//     so TraceSpan unwinds close open spans, and the recorder can always
//     export a well-formed partial trace after a failed run (TraceSession
//     flushes on every exit).
//
// Event taxonomy (category / name) is documented in DESIGN.md
// "Observability". Names and categories MUST be string literals (or
// otherwise outlive the recorder): events store the pointers.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace svmobs {

namespace detail {

extern std::atomic<bool> g_trace_enabled;

enum class EventType : std::uint8_t { begin, end, counter, instant, flow_start, flow_finish };

struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  double value = 0.0;       ///< counter value, or the flow id (exact <= 2^53)
  std::uint64_t ts_ns = 0;  ///< since the recorder epoch
  EventType type = EventType::instant;
};

void emit(EventType type, const char* name, const char* category, double value) noexcept;

/// Per-thread round sequence counter for TraceRound; resets with the
/// recorder generation so successive traced runs restart at 0.
[[nodiscard]] std::uint64_t next_round_seq() noexcept;

}  // namespace detail

/// True when emission is active (relaxed; emission itself re-checks).
[[nodiscard]] inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Enables tracing. `events_per_thread` bounds each thread's ring buffer
/// (drop-oldest on overflow); the epoch (t=0 of the exported timeline) is
/// set on the transition from disabled to enabled. Safe to call repeatedly.
void trace_enable(std::size_t events_per_thread = 1u << 16);

/// Stops emission. Recorded events remain available for export.
void trace_disable();

/// Drops all recorded events and thread buffers (threads re-register on
/// their next emission). Call between independent traced runs.
void trace_reset();

/// Labels the calling thread's track with an MPI-style rank; the exporter
/// uses it as the Chrome pid/tid so each rank renders as its own process
/// row. Unlabeled threads export under the "driver" track. Cheap no-op when
/// tracing is disabled.
void trace_set_thread_rank(int rank);

// --- emission (all ~ns no-ops while disabled) ------------------------------

inline void trace_begin(const char* name, const char* category) noexcept {
  if (!trace_enabled()) return;
  detail::emit(detail::EventType::begin, name, category, 0.0);
}

inline void trace_end(const char* name, const char* category) noexcept {
  if (!trace_enabled()) return;
  detail::emit(detail::EventType::end, name, category, 0.0);
}

/// One sample on the counter track `name` (per-rank tracks; Perfetto plots
/// the value over time). Used for active-set size, the beta_low - beta_up
/// gap, kernel-cache hit rate and modeled/overlapped network seconds.
inline void trace_counter(const char* name, double value) noexcept {
  if (!trace_enabled()) return;
  detail::emit(detail::EventType::counter, name, "counter", value);
}

/// A zero-duration marker (recovery events: restarts, world shrinks).
inline void trace_instant(const char* name, const char* category) noexcept {
  if (!trace_enabled()) return;
  detail::emit(detail::EventType::instant, name, category, 0.0);
}

// --- causal flow events ----------------------------------------------------
//
// A flow binds two slices on DIFFERENT tracks: the start event is emitted
// inside the producing span (e.g. a sender's isend), the finish inside the
// consuming span (the receiver's recv / collective wait). The exporter maps
// them to legacy Chrome flow phases `ph:"s"` / `ph:"f","bp":"e"` keyed on
// `id`, which Perfetto renders as cross-rank arrows. Flow ids come from
// svmmpi::acquire_flow_id() — process-globally unique, monotone, and <= 2^53
// so storing them in the event's double `value` slot is exact.

inline void trace_flow_start(const char* name, const char* category, std::uint64_t id) noexcept {
  if (!trace_enabled()) return;
  detail::emit(detail::EventType::flow_start, name, category, static_cast<double>(id));
}

inline void trace_flow_finish(const char* name, const char* category, std::uint64_t id) noexcept {
  if (!trace_enabled()) return;
  detail::emit(detail::EventType::flow_finish, name, category, static_cast<double>(id));
}

/// RAII span. `name`/`category` must be string literals.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* category) noexcept
      : name_(name), category_(category) {
    trace_begin(name_, category_);
  }
  ~TraceSpan() { trace_end(name_, category_); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
};

/// RAII marker for one synchronization round. Emits a uniform span named
/// "round" in the given category plus a "round_seq" counter carrying the
/// per-thread sequence number, so traces from the SMO solver, PBM, gradient
/// reconstruction and serving all segment identically for trace_analyze.
/// In SPMD workloads every rank's thread counts rounds in lockstep, so equal
/// sequence numbers across ranks name the same logical round.
class TraceRound {
 public:
  explicit TraceRound(const char* category) noexcept : category_(category) {
    if (!trace_enabled()) return;
    seq_ = detail::next_round_seq();
    trace_begin("round", category_);
    trace_counter("round_seq", static_cast<double>(seq_));
  }
  ~TraceRound() { trace_end("round", category_); }
  TraceRound(const TraceRound&) = delete;
  TraceRound& operator=(const TraceRound&) = delete;

  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }

 private:
  const char* category_;
  std::uint64_t seq_ = 0;
};

// --- export ----------------------------------------------------------------

/// Total events dropped to ring-buffer overflow since the last reset.
[[nodiscard]] std::uint64_t trace_dropped_events();

/// Renders everything recorded since the last reset as Chrome trace-event
/// JSON (object form: {"traceEvents":[...]}). Call after the traced threads
/// have joined — concurrent emission during export is a data race.
[[nodiscard]] std::string trace_json();

/// trace_json() to a file; throws std::runtime_error on I/O failure.
void trace_write(const std::string& path);

/// Scoped trace recording for one run (a train(), scheduler or serving
/// call): reset + enable at the default ring capacity on entry, disable +
/// write `path` on EVERY exit. A failing run unwinds through here with its
/// rank threads already joined (the SPMD launchers join before rethrowing),
/// so the partial trace is complete and race-free. A failed write is logged
/// as a warning, never thrown. An empty path leaves the recorder untouched.
class TraceSession {
 public:
  explicit TraceSession(std::string path);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string path_;
};

}  // namespace svmobs
