#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/logging.hpp"

namespace svmobs {

namespace detail {

std::atomic<bool> g_trace_enabled{false};

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kDriverRank = 1 << 20;  ///< track id for unlabeled (main) threads

/// One thread's ring. Owned by the registry so it outlives the thread; the
/// owning thread is the only writer, and readers only run after the writer
/// has joined (or from the writer itself).
struct ThreadBuffer {
  explicit ThreadBuffer(std::size_t capacity) : events(capacity) {}

  std::vector<TraceEvent> events;  ///< ring storage, fixed capacity
  std::size_t next = 0;            ///< ring write cursor
  std::uint64_t appended = 0;      ///< total appends (>= capacity => wrapped)
  int rank = kDriverRank;
  std::uint64_t registration = 0;  ///< export ordering for same-rank buffers

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return appended > events.size() ? appended - events.size() : 0;
  }

  void push(const TraceEvent& e) noexcept {
    events[next] = e;
    next = (next + 1) % events.size();
    ++appended;
  }

  /// Oldest-to-newest iteration bounds.
  [[nodiscard]] std::size_t size() const noexcept {
    return std::min<std::uint64_t>(appended, events.size());
  }
  [[nodiscard]] const TraceEvent& at(std::size_t i) const noexcept {
    const std::size_t start = appended > events.size() ? next : 0;
    return events[(start + i) % events.size()];
  }
};

/// Bumped by trace_reset to invalidate cached thread-local buffer pointers.
/// trace_reset must not race emission (the trainer resets between runs,
/// after SPMD threads have joined).
std::atomic<std::uint64_t> g_generation{0};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::size_t capacity = 1u << 16;
  Clock::time_point epoch = Clock::now();
  std::uint64_t registrations = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: emission may outlive statics
  return *r;
}

struct ThreadSlot {
  ThreadBuffer* buffer = nullptr;
  std::uint64_t generation = ~0ULL;
};
thread_local ThreadSlot t_slot;

ThreadBuffer* register_thread_buffer() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.buffers.push_back(std::make_unique<ThreadBuffer>(std::max<std::size_t>(r.capacity, 16)));
  r.buffers.back()->registration = r.registrations++;
  t_slot.buffer = r.buffers.back().get();
  t_slot.generation = g_generation.load(std::memory_order_relaxed);
  return t_slot.buffer;
}

/// Fast path is lock-free: one relaxed load + pointer compare. The mutex is
/// only taken on a thread's FIRST emission (per reset generation).
inline ThreadBuffer* this_thread_buffer() {
  if (t_slot.buffer != nullptr &&
      t_slot.generation == g_generation.load(std::memory_order_relaxed))
    return t_slot.buffer;
  return register_thread_buffer();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - registry().epoch)
          .count());
}

}  // namespace

void emit(EventType type, const char* name, const char* category, double value) noexcept {
  // Double-check under no lock: trace_disable between the caller's check and
  // here only risks recording one extra event, never a fault.
  if (!g_trace_enabled.load(std::memory_order_relaxed)) return;
  try {
    ThreadBuffer* buffer = this_thread_buffer();
    TraceEvent e;
    e.name = name;
    e.category = category;
    e.value = value;
    e.ts_ns = now_ns();
    e.type = type;
    buffer->push(e);
  } catch (...) {
    // Allocation failure during registration: drop the event, never throw
    // into a noexcept hot path.
  }
}

std::uint64_t next_round_seq() noexcept {
  // Generation-checked like the buffer slot: a trace_reset between runs
  // restarts every thread's round numbering at 0, so round N in run 2 is
  // never confused with round N of run 1.
  thread_local std::uint64_t seq = 0;
  thread_local std::uint64_t generation = ~0ULL;
  const std::uint64_t current = g_generation.load(std::memory_order_relaxed);
  if (generation != current) {
    generation = current;
    seq = 0;
  }
  return seq++;
}

}  // namespace detail

using detail::EventType;
using detail::TraceEvent;

void trace_enable(std::size_t events_per_thread) {
  auto& r = detail::registry();
  {
    std::lock_guard lock(r.mutex);
    r.capacity = std::max<std::size_t>(events_per_thread, 16);
    if (!detail::g_trace_enabled.load(std::memory_order_relaxed) && r.buffers.empty())
      r.epoch = std::chrono::steady_clock::now();
  }
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void trace_disable() { detail::g_trace_enabled.store(false, std::memory_order_relaxed); }

void trace_reset() {
  auto& r = detail::registry();
  std::lock_guard lock(r.mutex);
  r.buffers.clear();
  detail::g_generation.fetch_add(1, std::memory_order_relaxed);
  r.epoch = std::chrono::steady_clock::now();
}

void trace_set_thread_rank(int rank) {
  if (!trace_enabled()) return;
  detail::this_thread_buffer()->rank = rank;
}

std::uint64_t trace_dropped_events() {
  auto& r = detail::registry();
  std::lock_guard lock(r.mutex);
  std::uint64_t dropped = 0;
  for (const auto& b : r.buffers) dropped += b->dropped();
  return dropped;
}

namespace {

struct ExportEvent {
  TraceEvent event;
  int rank = 0;
  std::uint64_t order = 0;  ///< stable tiebreak: (registration, index)
};

void write_event(JsonWriter& w, const ExportEvent& e) {
  w.begin_object();
  w.key("name");
  w.value(std::string_view(e.event.name != nullptr ? e.event.name : ""));
  const char* ph = "i";
  switch (e.event.type) {
    case EventType::begin: ph = "B"; break;
    case EventType::end: ph = "E"; break;
    case EventType::counter: ph = "C"; break;
    case EventType::instant: ph = "i"; break;
    case EventType::flow_start: ph = "s"; break;
    case EventType::flow_finish: ph = "f"; break;
  }
  w.key("ph");
  w.value(std::string_view(ph));
  if (e.event.category != nullptr && e.event.type != EventType::counter) {
    w.key("cat");
    w.value(std::string_view(e.event.category));
  }
  w.key("ts");  // Chrome trace timestamps are microseconds
  w.value(static_cast<double>(e.event.ts_ns) / 1000.0);
  w.key("pid");
  w.value(static_cast<std::int64_t>(e.rank));
  w.key("tid");
  w.value(static_cast<std::int64_t>(e.rank));
  if (e.event.type == EventType::counter) {
    w.key("args");
    w.begin_object();
    w.key("value");
    w.value(e.event.value);
    w.end_object();
  } else if (e.event.type == EventType::instant) {
    w.key("s");
    w.value(std::string_view("t"));
  } else if (e.event.type == EventType::flow_start || e.event.type == EventType::flow_finish) {
    // Legacy Chrome flow events: the finish binds to the ENCLOSING slice
    // (bp:"e"), which is exactly the receiver's recv/wait span.
    w.key("id");
    w.value(static_cast<std::int64_t>(e.event.value));
    if (e.event.type == EventType::flow_finish) {
      w.key("bp");
      w.value(std::string_view("e"));
    }
  }
  w.end_object();
}

}  // namespace

std::string trace_json() {
  auto& r = detail::registry();
  std::lock_guard lock(r.mutex);

  // Gather per-buffer events, repairing what ring eviction truncated: an
  // `end` with no live `begin` (depth would go negative) gets a synthetic
  // begin at the buffer's oldest timestamp; a `begin` never closed (the
  // thread was stopped outside an unwind — cannot happen with TraceSpan, but
  // raw trace_begin users can) gets a synthetic end at the newest timestamp.
  std::vector<ExportEvent> events;
  std::uint64_t dropped = 0;
  std::uint64_t order = 0;
  for (const auto& buffer : r.buffers) {
    dropped += buffer->dropped();
    const std::size_t n = buffer->size();
    if (n == 0) continue;
    const std::uint64_t oldest_ts = buffer->at(0).ts_ns;
    std::uint64_t newest_ts = oldest_ts;
    std::vector<const TraceEvent*> open;
    std::vector<ExportEvent> local;
    local.reserve(n + 8);
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = buffer->at(i);
      newest_ts = std::max(newest_ts, e.ts_ns);
      if (e.type == EventType::begin) {
        open.push_back(&e);
      } else if (e.type == EventType::end) {
        if (!open.empty() && std::strcmp(open.back()->name, e.name) == 0) {
          open.pop_back();
        } else if (!open.empty()) {
          // Mismatched end (raw begin/end misuse, not eviction — eviction
          // only drops a prefix): pair it with a synthetic begin at its own
          // timestamp so it nests as a zero-length span inside the open one.
          TraceEvent b = e;
          b.type = EventType::begin;
          local.push_back(ExportEvent{b, buffer->rank, 0});
        } else {
          // Truncated-left span: synthesize its begin at the oldest ts.
          TraceEvent b = e;
          b.type = EventType::begin;
          b.ts_ns = oldest_ts;
          // Must precede everything already collected to nest correctly.
          local.insert(local.begin(), ExportEvent{b, buffer->rank, 0});
        }
      }
      local.push_back(ExportEvent{e, buffer->rank, 0});
    }
    // Still-open spans (no unwind ran): close them at the newest timestamp,
    // innermost first.
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      TraceEvent e = **it;
      e.type = EventType::end;
      e.ts_ns = newest_ts;
      local.push_back(ExportEvent{e, buffer->rank, 0});
    }
    for (ExportEvent& e : local) {
      e.order = (buffer->registration << 32) | (order++ & 0xFFFFFFFFu);
      events.push_back(e);
    }
  }

  // Per-track (pid/tid = rank) monotonic order. Buffers from successive SPMD
  // generations share ranks; the (ts, registration order) sort interleaves
  // them correctly because all share one epoch.
  std::stable_sort(events.begin(), events.end(), [](const ExportEvent& a, const ExportEvent& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.event.ts_ns != b.event.ts_ns) return a.event.ts_ns < b.event.ts_ns;
    return a.order < b.order;
  });

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  // Track-name metadata so Perfetto shows "rank N" / "driver" rows.
  std::vector<int> ranks_seen;
  for (const ExportEvent& e : events)
    if (std::find(ranks_seen.begin(), ranks_seen.end(), e.rank) == ranks_seen.end())
      ranks_seen.push_back(e.rank);
  for (const int rank : ranks_seen) {
    w.begin_object();
    w.key("name");
    w.value(std::string_view("process_name"));
    w.key("ph");
    w.value(std::string_view("M"));
    w.key("pid");
    w.value(static_cast<std::int64_t>(rank));
    w.key("tid");
    w.value(static_cast<std::int64_t>(rank));
    w.key("args");
    w.begin_object();
    w.key("name");
    w.value(rank == (1 << 20) ? std::string("driver") : "rank " + std::to_string(rank));
    w.end_object();
    w.end_object();
  }
  for (const ExportEvent& e : events) write_event(w, e);
  w.end_array();
  w.key("displayTimeUnit");
  w.value(std::string_view("ms"));
  w.key("otherData");
  w.begin_object();
  w.key("schema");
  w.value(std::string_view("svmobs.trace.v1"));
  w.key("dropped_events");
  w.value(dropped);
  w.end_object();
  w.end_object();
  return w.str();
}

void trace_write(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("svmobs: cannot open trace output file " + path);
  const std::string json = trace_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!out) throw std::runtime_error("svmobs: failed writing trace to " + path);
}

TraceSession::TraceSession(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  trace_reset();
  trace_enable();
}

TraceSession::~TraceSession() {
  if (path_.empty()) return;
  trace_disable();
  try {
    trace_write(path_);
  } catch (const std::exception& e) {
    SVM_LOG_WARN << "trace flush failed: " << e.what();
  }
}

}  // namespace svmobs
