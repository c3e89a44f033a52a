#include "serve/serving.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "kernel/kernel.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/spmd.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace svmserve {

namespace {

using svmdata::Feature;
using svmmpi::Comm;

// --- service policy --------------------------------------------------------
// Fixed tunings of the degradation ladder (see serving.hpp); ServeOptions
// holds only what a caller sets.

constexpr double kBatchLingerS = 0.0005;  // wait this long to top up a short batch
constexpr double kAdmissionMargin = 0.8;  // shed when predicted wait > margin*deadline
constexpr int kMaxRetries = 2;            // re-dispatches per shard per batch
constexpr double kRetryBackoffS = 0.002;  // first backoff; doubles, capped below
constexpr double kRetryBackoffCapS = 0.01;
constexpr double kHedgePollS = 0.002;  // poll slice alternating replicas when hedged
constexpr double kQuarantineMinBaselineS = 5e-4;  // floor so tiny baselines don't trip
constexpr double kDegradeQueueFrac = 0.5;         // degrade when depth > frac*capacity
constexpr double kWorkerReadyTimeoutS = 5.0;      // startup barrier per worker

// --- wire protocol ---------------------------------------------------------
// Frontend -> worker on kWorkTag: BatchHeader, then `count` queries, each a
// QueryHeader followed by its features. Worker -> frontend: `count` doubles
// (the shard's partial sums) on the batch's unique reply tag — so a late or
// duplicated reply from an abandoned attempt can never match a later batch's
// receive, it just sits in the mailbox until the stale-reply drain pops it.

constexpr int kReadyTag = 1;
constexpr int kWorkTag = 2;
constexpr int kReplyTagBase = 100;
// Reply tags cycle through a fixed window, so a tag always fits an int.
constexpr std::uint32_t kReplyTagWindow = 1u << 20;

constexpr std::uint32_t kOpExit = 0;
constexpr std::uint32_t kOpWork = 1;

struct BatchHeader {
  std::uint32_t opcode = kOpWork;
  std::uint32_t reply_tag = 0;
  std::uint32_t count = 0;
  std::uint32_t degraded = 0;
};
static_assert(std::is_trivially_copyable_v<BatchHeader>);

struct QueryHeader {
  std::uint64_t nfeat = 0;
  double sq_norm = 0.0;
};
static_assert(std::is_trivially_copyable_v<QueryHeader>);

template <typename T>
void append_pod(std::vector<std::byte>& out, const T& value) {
  const std::size_t offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
[[nodiscard]] T read_pod(std::span<const std::byte> bytes, std::size_t& offset) {
  if (bytes.size() - offset < sizeof(T))
    throw std::runtime_error("svmserve: truncated batch payload");
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

[[nodiscard]] std::vector<std::byte> encode_batch(std::uint32_t reply_tag, bool degraded,
                                                  const svmdata::CsrMatrix& queries,
                                                  std::span<const double> query_sq_norms,
                                                  std::span<const std::uint32_t> rows) {
  std::vector<std::byte> out;
  BatchHeader header;
  header.reply_tag = reply_tag;
  header.count = static_cast<std::uint32_t>(rows.size());
  header.degraded = degraded ? 1 : 0;
  append_pod(out, header);
  for (const std::uint32_t r : rows) {
    const auto row = queries.row(r);
    QueryHeader qh{row.size(), query_sq_norms[r]};
    append_pod(out, qh);
    const std::size_t offset = out.size();
    out.resize(offset + row.size_bytes());
    if (!row.empty()) std::memcpy(out.data() + offset, row.data(), row.size_bytes());
  }
  return out;
}

[[nodiscard]] std::vector<std::byte> encode_exit() {
  std::vector<std::byte> out;
  BatchHeader header;
  header.opcode = kOpExit;
  append_pod(out, header);
  return out;
}

/// Worker-side scratch for a decoded batch; buffers reused across batches.
struct DecodedBatch {
  BatchHeader header;
  std::vector<Feature> features;       ///< all queries, concatenated
  std::vector<std::size_t> offsets;    ///< count+1 bounds into features
  std::vector<double> sq_norms;
  std::vector<std::span<const Feature>> spans;
};

void decode_batch(std::span<const std::byte> bytes, DecodedBatch& batch) {
  std::size_t offset = 0;
  batch.header = read_pod<BatchHeader>(bytes, offset);
  const std::size_t count = batch.header.count;
  batch.features.clear();
  batch.offsets.assign(1, 0);
  batch.sq_norms.clear();
  for (std::size_t q = 0; q < count; ++q) {
    const auto qh = read_pod<QueryHeader>(bytes, offset);
    const std::size_t nbytes = static_cast<std::size_t>(qh.nfeat) * sizeof(Feature);
    if (bytes.size() - offset < nbytes)
      throw std::runtime_error("svmserve: truncated query features");
    const std::size_t first = batch.features.size();
    batch.features.resize(first + qh.nfeat);
    if (qh.nfeat > 0)
      std::memcpy(batch.features.data() + first, bytes.data() + offset, nbytes);
    offset += nbytes;
    batch.offsets.push_back(batch.features.size());
    batch.sq_norms.push_back(qh.sq_norm);
  }
  // Spans are rebuilt AFTER all features landed (resize invalidates).
  batch.spans.clear();
  for (std::size_t q = 0; q < count; ++q)
    batch.spans.push_back(std::span<const Feature>(batch.features)
                              .subspan(batch.offsets[q], batch.offsets[q + 1] - batch.offsets[q]));
}

// --- shared client/frontend state ------------------------------------------

struct Shared {
  std::mutex mutex;
  std::condition_variable arrived;    ///< wakes the frontend batcher
  std::condition_variable completed;  ///< wakes closed-loop clients + run exit
  std::deque<std::uint32_t> queue;    ///< accepted request ids, FIFO
  bool service_up = false;    ///< workers ready; clients may submit
  bool service_down = false;  ///< frontend exited; submits fail fast
  bool producers_done = false;

  std::vector<RequestRecord>* records = nullptr;
  svmutil::Timer clock;  ///< the service clock; reset when service_up flips

  std::atomic<double> service_rate{0.0};  ///< completed requests/s, EWMA
  std::atomic<std::uint32_t> inflight{0};

  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_predicted_wait = 0;
  std::size_t max_queue_depth = 0;
};

enum class SubmitVerdict { accepted, shed, down };

/// Deadline-aware admission, called on client threads. Shedding here is the
/// FIRST line of graceful degradation: the queue never exceeds
/// queue_capacity, and a request predicted to wait past its deadline is
/// refused immediately instead of being accepted and then missed.
SubmitVerdict submit(Shared& sh, std::uint32_t id, const ServeOptions& opt) {
  std::unique_lock lock(sh.mutex);
  ++sh.submitted;
  RequestRecord& rec = (*sh.records)[id];
  const double now = sh.clock.seconds();
  rec.arrival_s = now;
  if (sh.service_down) {
    rec.status = RequestStatus::failed;
    rec.done_s = now;
    return SubmitVerdict::down;
  }
  const std::size_t depth = sh.queue.size();
  if (depth >= opt.queue_capacity) {
    ++sh.shed_queue_full;
    rec.status = RequestStatus::shed;
    rec.done_s = now;
    return SubmitVerdict::shed;
  }
  const double rate = sh.service_rate.load(std::memory_order_relaxed);
  if (rate > 0.0) {
    const double backlog =
        static_cast<double>(depth) + static_cast<double>(sh.inflight.load(std::memory_order_relaxed));
    if (backlog / rate > kAdmissionMargin * opt.deadline_s) {
      ++sh.shed_predicted_wait;
      rec.status = RequestStatus::shed;
      rec.done_s = now;
      return SubmitVerdict::shed;
    }
  }
  ++sh.accepted;
  sh.queue.push_back(id);
  sh.max_queue_depth = std::max(sh.max_queue_depth, sh.queue.size());
  lock.unlock();
  sh.arrived.notify_one();
  return SubmitVerdict::accepted;
}

// --- worker ----------------------------------------------------------------

void worker_body(Comm& comm, const svmcore::SvmModel& model, const ServeOptions& opt) {
  const int me = comm.rank();
  const int shard = (me - 1) % opt.shards;
  const std::size_t nsv = model.num_support_vectors();
  const std::size_t begin = (nsv * static_cast<std::size_t>(shard)) /
                            static_cast<std::size_t>(opt.shards);
  const std::size_t end = (nsv * static_cast<std::size_t>(shard + 1)) /
                          static_cast<std::size_t>(opt.shards);

  const svmkernel::Kernel kernel(model.kernel_params());
  svmkernel::KernelEngine engine(kernel, model.support_vectors(),
                                 svmkernel::EngineBackend::automatic, begin, end);
  // Overload shedding to f32 gets its own flavored store; the exact engine
  // stays resident so un-degraded batches keep bit-exactness.
  std::optional<svmkernel::KernelEngine> degraded;
  if (opt.degrade_enabled)
    degraded.emplace(kernel, model.support_vectors(), svmkernel::EngineBackend::automatic, begin,
                     end, std::size_t{0}, svmkernel::RowFlavor::f32);
  const auto coeffs = std::span<const double>(model.coefficients()).subspan(begin, end - begin);

  comm.send_value<std::uint64_t>(static_cast<std::uint64_t>(end - begin), 0, kReadyTag);

  DecodedBatch batch;
  std::vector<double> partials;
  for (;;) {
    std::vector<std::byte> payload;
    try {
      payload = comm.recv<std::byte>(0, kWorkTag);
    } catch (const svmmpi::TimeoutError&) {
      continue;  // idle lull longer than the net-model backstop; keep serving
    } catch (const svmmpi::RankLost&) {
      return;  // the frontend died: nothing left to serve
    } catch (const svmmpi::ContextCancelled&) {
      return;  // external teardown of the serving context
    }
    decode_batch(payload, batch);
    if (batch.header.opcode == kOpExit) return;
    partials.resize(batch.header.count);
    {
      svmobs::TraceRound round_marker("serve");
      svmobs::TraceSpan span("serve_eval", "serve");
      svmkernel::KernelEngine& eng =
          (batch.header.degraded != 0 && degraded) ? *degraded : engine;
      eng.eval_block_rows(batch.spans, batch.sq_norms, coeffs, partials);
    }
    try {
      comm.send<double>(partials, 0, batch.header.reply_tag);
    } catch (const svmmpi::ContextCancelled&) {
      return;
    }
  }
}

// --- frontend --------------------------------------------------------------

/// Frontend-side view of one worker rank's health.
struct WorkerState {
  int rank = -1;  ///< world rank
  bool dead = false;
  bool quarantined = false;
  bool probation = false;        ///< first post-cooldown dispatch is hedged
  double quarantine_until = 0.0;  ///< service-clock time the cooldown ends
  double ewma_s = 0.0;            ///< per-dispatch service latency EWMA
  std::uint64_t samples = 0;
};

struct FrontendCounters {
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::uint64_t failovers = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t degraded_batches = 0;
};

class Frontend {
 public:
  Frontend(Comm& comm, Shared& sh, const ServeOptions& opt, const svmdata::CsrMatrix& queries,
           std::span<const double> query_sq, std::span<const std::uint32_t> request_rows,
           double beta)
      : comm_(comm),
        sh_(sh),
        opt_(opt),
        queries_(queries),
        query_sq_(query_sq),
        request_rows_(request_rows),
        beta_(beta) {
    workers_.resize(static_cast<std::size_t>(opt.shards) * static_cast<std::size_t>(opt.replicas));
    for (int r = 0; r < opt.replicas; ++r)
      for (int s = 0; s < opt.shards; ++s) {
        WorkerState& w = workers_[static_cast<std::size_t>(r) * static_cast<std::size_t>(opt.shards) +
                                  static_cast<std::size_t>(s)];
        w.rank = 1 + r * opt.shards + s;
      }
  }

  void run() {
    wait_ready();
    {
      // Service-up: reset the service clock so arrival schedules start at 0,
      // then release the waiting client threads.
      std::lock_guard lock(sh_.mutex);
      sh_.clock.reset();
      sh_.service_up = true;
    }
    sh_.completed.notify_all();

    std::vector<std::uint32_t> batch_ids;
    for (;;) {
      if (!next_batch(batch_ids)) break;
      if (batch_ids.empty()) continue;  // everything popped had expired
      serve_batch(batch_ids);
      drain_stale();
    }
    shutdown_workers();
  }

  [[nodiscard]] const FrontendCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] std::size_t replies_outstanding() const noexcept { return outstanding_.size(); }

 private:
  [[nodiscard]] WorkerState& worker(int shard, int replica) {
    return workers_[static_cast<std::size_t>(replica) * static_cast<std::size_t>(opt_.shards) +
                    static_cast<std::size_t>(shard)];
  }

  void wait_ready() {
    for (WorkerState& w : workers_) {
      std::vector<std::uint64_t> ready;
      try {
        if (!comm_.recv_deadline(ready, w.rank, kReadyTag, kWorkerReadyTimeoutS)) {
          SVM_LOG_WARN << "svmserve: worker rank " << w.rank << " missed the ready barrier";
          w.dead = true;
        }
      } catch (const svmmpi::RankLost&) {
        note_rank_dead(w);
      }
    }
  }

  /// Pops up to batch_max accepted requests, dropping any whose deadline
  /// already passed while queued (marked expired). Returns false when the
  /// producers are done and the queue is fully drained — the exit condition.
  bool next_batch(std::vector<std::uint32_t>& out) {
    out.clear();
    std::unique_lock lock(sh_.mutex);
    sh_.arrived.wait(lock, [&] { return !sh_.queue.empty() || sh_.producers_done; });
    if (sh_.queue.empty()) return false;
    if (sh_.queue.size() < opt_.batch_max && !sh_.producers_done) {
      // Linger briefly to top up a short batch; a fuller batch amortizes the
      // per-shard dispatch cost. Bounded, so latency stays predictable.
      sh_.arrived.wait_for(lock, std::chrono::duration<double>(kBatchLingerS),
                           [&] { return sh_.queue.size() >= opt_.batch_max; });
    }
    queue_depth_at_pop_ = sh_.queue.size();
    const double now = sh_.clock.seconds();
    std::vector<std::uint32_t> expired;
    while (!sh_.queue.empty() && out.size() < opt_.batch_max) {
      const std::uint32_t id = sh_.queue.front();
      sh_.queue.pop_front();
      RequestRecord& rec = (*sh_.records)[id];
      if (now - rec.arrival_s > opt_.deadline_s) {
        rec.status = RequestStatus::expired;
        rec.done_s = now;
        ++counters_.expired;
        expired.push_back(id);
      } else {
        out.push_back(id);
      }
    }
    sh_.inflight.store(static_cast<std::uint32_t>(out.size()), std::memory_order_relaxed);
    lock.unlock();
    if (!expired.empty()) sh_.completed.notify_all();
    return true;
  }

  void serve_batch(const std::vector<std::uint32_t>& ids) {
    svmobs::TraceRound round_marker("serve");
    svmobs::TraceSpan span("serve_batch", "serve");
    ++counters_.batches;
    const svmutil::Timer batch_timer;
    const bool degraded =
        opt_.degrade_enabled &&
        queue_depth_at_pop_ >
            static_cast<std::size_t>(kDegradeQueueFrac *
                                     static_cast<double>(opt_.queue_capacity));
    if (degraded) ++counters_.degraded_batches;

    // One row list for the wire payload (requests may repeat a row; each
    // request keeps its own answer slot).
    std::vector<std::uint32_t> rows(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) rows[i] = request_rows_[ids[i]];
    const std::uint32_t reply_tag =
        kReplyTagBase + static_cast<std::uint32_t>(batch_seq_++ % kReplyTagWindow);
    const std::vector<std::byte> payload =
        encode_batch(reply_tag, degraded, queries_, query_sq_, rows);

    // Phase 1: one dispatch per shard, all in flight before any collect, so
    // the shards compute concurrently.
    std::vector<Dispatch> dispatches(static_cast<std::size_t>(opt_.shards));
    bool all_dispatched = true;
    for (int s = 0; s < opt_.shards; ++s) {
      if (!start_dispatch(s, payload, dispatches[static_cast<std::size_t>(s)]))
        all_dispatched = false;
    }

    // Phase 2: collect partials in ascending shard order (the decision sum
    // below is order-fixed, so replica choice never changes the answer).
    std::vector<std::vector<double>> partials(static_cast<std::size_t>(opt_.shards));
    bool ok = all_dispatched;
    int collected = 0;
    for (int s = 0; s < opt_.shards; ++s) {
      if (!ok) break;
      auto got = collect_shard(s, dispatches[static_cast<std::size_t>(s)], payload, reply_tag,
                               ids.size());
      if (!got) {
        ok = false;
        break;
      }
      partials[static_cast<std::size_t>(s)] = std::move(*got);
      ++collected;
    }
    if (!ok) {
      // Shards dispatched but never collected still owe a reply; register
      // them for the stale drain so the mailbox stays bounded (the shard
      // that failed in collect_shard cleared its own fields).
      for (int s = collected; s < opt_.shards; ++s) {
        const Dispatch& d = dispatches[static_cast<std::size_t>(s)];
        if (d.target >= 0) abandon(d.target, reply_tag);
        if (d.partner >= 0) abandon(d.partner, reply_tag);
      }
    }

    const double service_s = batch_timer.seconds();
    finish_batch(ids, partials, ok, degraded, service_s);
  }

  /// Per-shard dispatch bookkeeping across send + collect.
  struct Dispatch {
    int target = -1;   ///< worker index currently awaited (primary answer)
    int partner = -1;  ///< hedge sibling also holding the batch, or -1
    int attempts = 0;
    double sent_at = 0.0;  ///< service-clock send time of the live attempt
  };

  /// Chooses a replica for `shard` and sends the batch (hedging to the
  /// sibling when the pick is on probation). False when no replica is alive.
  bool start_dispatch(int shard, std::span<const std::byte> payload, Dispatch& d) {
    const double now = sh_.clock.seconds();
    refresh_quarantine(now);
    const int target = pick_replica(shard, /*exclude=*/-1);
    if (target < 0) return false;
    d.target = target;
    d.sent_at = now;
    send_to(workers_[static_cast<std::size_t>(target)], payload);
    WorkerState& w = workers_[static_cast<std::size_t>(target)];
    if (w.probation) {
      const int sibling = pick_replica(shard, /*exclude=*/target);
      if (sibling >= 0) hedge_to(sibling, payload, d);
    }
    return true;
  }

  /// Waits for `shard`'s partial, driving retry / hedge / failover until the
  /// reply arrives or the attempt budget is spent.
  std::optional<std::vector<double>> collect_shard(int shard, Dispatch& d,
                                                   std::span<const std::byte> payload,
                                                   std::uint32_t reply_tag, std::size_t count) {
    // On every failure return the dispatch fields are cleared: each attempt
    // was either consumed, abandoned (registered for the stale drain), or
    // belongs to a dead rank — so serve_batch's cleanup never double-counts.
    const auto fail = [&d]() -> std::optional<std::vector<double>> {
      d.target = -1;
      d.partner = -1;
      return std::nullopt;
    };
    double backoff = kRetryBackoffS;
    std::vector<double> out;
    while (d.target >= 0) {
      const int result = await_reply(d, reply_tag, out);
      if (result == kGotReply) {
        if (out.size() != count) return fail();  // protocol corruption
        return out;
      }
      if (result == kTargetLost && d.partner >= 0) {
        // Failover inside the wait: the hedge sibling already has the batch.
        d.target = d.partner;
        d.partner = -1;
        continue;
      }
      // Timed out (or lost with no hedge in flight): abandon this attempt,
      // leave its eventual reply for the stale drain, back off, re-dispatch.
      if (result == kTimedOut) {
        penalize(workers_[static_cast<std::size_t>(d.target)]);
        ++counters_.retries;
        abandon(d.target, reply_tag);
      }
      if (d.partner >= 0) abandon(d.partner, reply_tag);
      d.partner = -1;
      ++d.attempts;
      if (d.attempts > kMaxRetries) return fail();
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2.0, kRetryBackoffCapS);
      const double now = sh_.clock.seconds();
      refresh_quarantine(now);
      const int exclude = result == kTimedOut ? d.target : -1;
      int next = pick_replica(shard, exclude);
      if (next < 0 && result == kTimedOut)
        next = pick_replica(shard, /*exclude=*/-1);  // lone slow replica: retry it
      if (next < 0) return fail();
      d.target = next;
      d.sent_at = now;
      send_to(workers_[static_cast<std::size_t>(next)], payload);
      // A retry means the first attempt was already suspect — hedge it.
      const int sibling = pick_replica(shard, /*exclude=*/next);
      if (sibling >= 0) hedge_to(sibling, payload, d);
    }
    return fail();
  }

  static constexpr int kGotReply = 0;
  static constexpr int kTimedOut = 1;
  static constexpr int kTargetLost = 2;

  /// Polls the dispatch's target (and hedge partner, in alternating slices)
  /// for the batch reply until dispatch_timeout_s elapses.
  int await_reply(Dispatch& d, std::uint32_t reply_tag, std::vector<double>& out) {
    for (;;) {
      const double elapsed = sh_.clock.seconds() - d.sent_at;
      const double remaining = opt_.dispatch_timeout_s - elapsed;
      if (remaining <= 0.0) return kTimedOut;
      const bool hedged = d.partner >= 0;
      const double slice = hedged ? std::min(kHedgePollS, remaining) : remaining;
      // Primary slice.
      const int verdict = poll_one(d.target, reply_tag, slice, out);
      if (verdict == kGotReply) {
        note_success(d.target, sh_.clock.seconds() - d.sent_at);
        if (d.partner >= 0) abandon(d.partner, reply_tag);
        d.partner = -1;
        return kGotReply;
      }
      if (verdict == kTargetLost) {
        note_rank_dead(workers_[static_cast<std::size_t>(d.target)]);
        ++counters_.failovers;
        return kTargetLost;
      }
      if (hedged) {
        const int hv = poll_one(d.partner, reply_tag, std::min(kHedgePollS, remaining), out);
        if (hv == kGotReply) {
          note_success(d.partner, sh_.clock.seconds() - d.sent_at);
          abandon(d.target, reply_tag);
          d.target = d.partner;
          d.partner = -1;
          return kGotReply;
        }
        if (hv == kTargetLost) {
          note_rank_dead(workers_[static_cast<std::size_t>(d.partner)]);
          d.partner = -1;
        }
      }
    }
  }

  /// One deadline-bounded poll of a single worker's reply.
  int poll_one(int worker_index, std::uint32_t reply_tag, double deadline_s,
               std::vector<double>& out) {
    WorkerState& w = workers_[static_cast<std::size_t>(worker_index)];
    try {
      if (comm_.recv_deadline(out, w.rank, static_cast<int>(reply_tag), deadline_s))
        return kGotReply;
      return kTimedOut;
    } catch (const svmmpi::RankLost&) {
      return kTargetLost;
    }
  }

  void send_to(WorkerState& w, std::span<const std::byte> payload) {
    // Sending to a dead rank's mailbox is harmless (detection happens on the
    // reply wait); sends only throw for cancellation, which propagates.
    comm_.send(payload, w.rank, kWorkTag);
  }

  void hedge_to(int sibling, std::span<const std::byte> payload, Dispatch& d) {
    d.partner = sibling;
    ++counters_.hedges;
    send_to(workers_[static_cast<std::size_t>(sibling)], payload);
  }

  /// Records that a (worker, tag) reply may still arrive; drained later.
  void abandon(int worker_index, std::uint32_t reply_tag) {
    const WorkerState& w = workers_[static_cast<std::size_t>(worker_index)];
    if (!w.dead) outstanding_.push_back({w.rank, static_cast<int>(reply_tag)});
  }

  /// Opportunistically pops abandoned replies so the frontend mailbox stays
  /// bounded across long runs; a reply from a since-dead rank never arrives
  /// and its entry is dropped.
  void drain_stale() {
    svmmpi::Mailbox& box = comm_.world().mailbox(0);
    std::erase_if(outstanding_, [&](const std::pair<int, int>& entry) {
      if (workers_alive_count() == 0) return true;
      svmmpi::Message m;
      if (box.try_pop(comm_.context_id(), entry.first, entry.second, m)) return true;
      return workers_[worker_index_of(entry.first)].dead;
    });
  }

  // Worker rank 1 + r*shards + s sits at workers_[r*shards + s] == rank - 1.
  [[nodiscard]] std::size_t worker_index_of(int rank) const {
    return static_cast<std::size_t>(rank - 1);
  }

  [[nodiscard]] int workers_alive_count() const {
    int alive = 0;
    for (const WorkerState& w : workers_)
      if (!w.dead) ++alive;
    return alive;
  }

  /// Healthiest live replica of `shard`, or -1. Order of preference: live &
  /// not quarantined with the lowest EWMA; a fully-quarantined shard still
  /// serves (a slow answer beats none) from the least-bad member.
  int pick_replica(int shard, int exclude) {
    int best = -1, best_quarantined = -1;
    double best_ewma = std::numeric_limits<double>::infinity();
    double best_q_ewma = std::numeric_limits<double>::infinity();
    for (int r = 0; r < opt_.replicas; ++r) {
      const int index = r * opt_.shards + shard;
      const WorkerState& w = workers_[static_cast<std::size_t>(index)];
      if (w.dead || index == exclude) continue;
      const double e = w.samples > 0 ? w.ewma_s : 0.0;
      if (!w.quarantined) {
        if (e < best_ewma) {
          best_ewma = e;
          best = index;
        }
      } else if (e < best_q_ewma) {
        best_q_ewma = e;
        best_quarantined = index;
      }
    }
    return best >= 0 ? best : best_quarantined;
  }

  void refresh_quarantine(double now) {
    for (WorkerState& w : workers_) {
      if (w.quarantined && now >= w.quarantine_until) {
        // Cooldown over: half-open. The next dispatch that picks it is
        // hedged (probation), so a still-slow rank cannot stall a request.
        w.quarantined = false;
        w.probation = true;
      }
    }
  }

  void note_success(int worker_index, double latency_s) {
    WorkerState& w = workers_[static_cast<std::size_t>(worker_index)];
    w.ewma_s = w.samples == 0 ? latency_s : 0.7 * w.ewma_s + 0.3 * latency_s;
    ++w.samples;
    w.probation = false;
    maybe_quarantine(w);
  }

  /// A dispatch timeout charges the worker as if it took 2x the timeout —
  /// pushes a silently-slow rank toward quarantine without a success sample.
  void penalize(WorkerState& w) {
    const double sample = 2.0 * opt_.dispatch_timeout_s;
    w.ewma_s = w.samples == 0 ? sample : 0.7 * w.ewma_s + 0.3 * sample;
    ++w.samples;
    maybe_quarantine(w);
  }

  void maybe_quarantine(WorkerState& w) {
    // One sample suffices: a full dispatch timeout is penalized at 2x the
    // timeout, far past any healthy baseline, and a false positive costs
    // only a cooldown followed by a hedged probe.
    if (w.quarantined || w.samples < 1) return;
    // Fleet baseline: the fastest live worker's EWMA, floored so cold starts
    // with microsecond baselines don't quarantine ordinary jitter.
    double baseline = std::numeric_limits<double>::infinity();
    for (const WorkerState& other : workers_)
      if (!other.dead && other.samples > 0 && &other != &w)
        baseline = std::min(baseline, other.ewma_s);
    if (!std::isfinite(baseline)) return;
    baseline = std::max(baseline, kQuarantineMinBaselineS);
    if (w.ewma_s > opt_.quarantine_latency_factor * baseline) {
      w.quarantined = true;
      w.probation = false;
      w.quarantine_until = sh_.clock.seconds() + opt_.quarantine_cooldown_s;
      ++counters_.quarantines;
      svmobs::trace_instant("serve_quarantine", "serve");
      SVM_LOG_DEBUG << "svmserve: quarantined rank " << w.rank << " (ewma " << w.ewma_s << "s)";
    }
  }

  void note_rank_dead(WorkerState& w) {
    if (w.dead) return;
    w.dead = true;
    ranks_lost_.push_back(w.rank);
    svmobs::trace_instant("serve_rank_lost", "serve");
    SVM_LOG_DEBUG << "svmserve: worker rank " << w.rank << " lost; failing over";
  }

  void finish_batch(const std::vector<std::uint32_t>& ids,
                    const std::vector<std::vector<double>>& partials, bool ok, bool degraded,
                    double service_s) {
    {
      std::lock_guard lock(sh_.mutex);
      const double now = sh_.clock.seconds();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        RequestRecord& rec = (*sh_.records)[ids[i]];
        rec.done_s = now;
        if (ok) {
          double sum = 0.0;
          for (int s = 0; s < opt_.shards; ++s) sum += partials[static_cast<std::size_t>(s)][i];
          rec.decision = sum - beta_;
          rec.degraded = degraded;
          rec.latency_s = now - rec.arrival_s;
          rec.status = RequestStatus::completed;
          ++counters_.completed;
        } else {
          rec.status = RequestStatus::failed;
          ++counters_.failed;
        }
      }
      sh_.inflight.store(0, std::memory_order_relaxed);
      if (ok) {
        // Observed service rate feeds admission's predicted-wait estimate.
        const double sample = static_cast<double>(ids.size()) / std::max(service_s, 1e-6);
        const double old = sh_.service_rate.load(std::memory_order_relaxed);
        sh_.service_rate.store(old == 0.0 ? sample : 0.7 * old + 0.3 * sample,
                               std::memory_order_relaxed);
      }
    }
    sh_.completed.notify_all();
    svmobs::trace_counter("serve_queue_depth", static_cast<double>(queue_depth_at_pop_));
  }

  void shutdown_workers() {
    const std::vector<std::byte> exit_msg = encode_exit();
    for (const WorkerState& w : workers_) {
      if (w.dead) continue;
      try {
        comm_.send(std::span<const std::byte>(exit_msg), w.rank, kWorkTag);
      } catch (const std::exception&) {
        // Teardown is best-effort; a cancelled context or racing death just
        // means the worker is already on its way out.
      }
    }
  }

 public:
  [[nodiscard]] const std::vector<int>& ranks_lost() const noexcept { return ranks_lost_; }

 private:
  Comm& comm_;
  Shared& sh_;
  const ServeOptions& opt_;
  const svmdata::CsrMatrix& queries_;
  std::span<const double> query_sq_;
  std::span<const std::uint32_t> request_rows_;
  double beta_;

  std::vector<WorkerState> workers_;  ///< indexed r*shards + s
  std::vector<std::pair<int, int>> outstanding_;  ///< (world rank, reply tag)
  std::vector<int> ranks_lost_;
  std::uint64_t batch_seq_ = 0;
  std::size_t queue_depth_at_pop_ = 0;
  FrontendCounters counters_;
};

// --- client threads --------------------------------------------------------

void open_loop_client(Shared& sh, const ServeOptions& opt, std::span<const double> arrivals) {
  // Absolute schedule against the service clock: falling behind produces a
  // burst (the backlog is preserved), which is exactly what open-loop means.
  {
    std::unique_lock lock(sh.mutex);
    sh.completed.wait(lock, [&] { return sh.service_up || sh.service_down; });
  }
  for (std::size_t id = 0; id < arrivals.size(); ++id) {
    const double wait = arrivals[id] - sh.clock.seconds();
    if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    (void)submit(sh, static_cast<std::uint32_t>(id), opt);
  }
  {
    std::lock_guard lock(sh.mutex);
    sh.producers_done = true;
  }
  sh.arrived.notify_all();
}

void closed_loop_client(Shared& sh, const ServeOptions& opt, std::size_t first, std::size_t stride,
                        std::size_t total, double think_s, std::atomic<int>& live_clients) {
  {
    std::unique_lock lock(sh.mutex);
    sh.completed.wait(lock, [&] { return sh.service_up || sh.service_down; });
  }
  for (std::size_t id = first; id < total; id += stride) {
    const SubmitVerdict verdict = submit(sh, static_cast<std::uint32_t>(id), opt);
    if (verdict == SubmitVerdict::down) break;
    if (verdict == SubmitVerdict::accepted) {
      std::unique_lock lock(sh.mutex);
      sh.completed.wait(lock, [&] {
        return (*sh.records)[id].status != RequestStatus::pending || sh.service_down;
      });
    }
    if (think_s > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(think_s));
  }
  if (live_clients.fetch_sub(1) == 1) {
    std::lock_guard lock(sh.mutex);
    sh.producers_done = true;
    sh.arrived.notify_all();
  }
}

// --- report ----------------------------------------------------------------

void fill_report(ServeReport& report, const Shared& sh, const FrontendCounters& c,
                 double wall_s) {
  report.submitted = sh.submitted;
  report.accepted = sh.accepted;
  report.shed_queue_full = sh.shed_queue_full;
  report.shed_predicted_wait = sh.shed_predicted_wait;
  report.max_queue_depth = sh.max_queue_depth;
  report.completed = c.completed;
  report.expired = c.expired;
  report.failed = c.failed;
  report.batches = c.batches;
  report.retries = c.retries;
  report.hedges = c.hedges;
  report.failovers = c.failovers;
  report.quarantines = c.quarantines;
  report.degraded_batches = c.degraded_batches;
  report.wall_s = wall_s;
  if (wall_s > 0.0) {
    report.accepted_qps = static_cast<double>(report.accepted) / wall_s;
    report.completed_qps = static_cast<double>(report.completed) / wall_s;
  }

  // Completed-request latencies go through a fine log-spaced histogram
  // (8 buckets/decade over 100µs..10s) and the reported percentiles are
  // derived from it, so bench_serving and the run-report emitter agree on
  // one estimator instead of keeping a parallel sorted-sample path.
  auto& m = report.metrics;
  std::vector<double> bounds;
  for (int i = 0; i <= 40; ++i) bounds.push_back(1e-4 * std::pow(10.0, i / 8.0));
  auto& latency_hist = m.histogram("serve.latency_s", std::move(bounds));
  for (const RequestRecord& rec : report.requests)
    if (rec.status == RequestStatus::completed) latency_hist.observe(rec.latency_s);
  report.latency_p50_s = latency_hist.percentile(50.0);
  report.latency_p99_s = latency_hist.percentile(99.0);
  report.latency_p999_s = latency_hist.percentile(99.9);
  m.counter("serve.submitted").add(report.submitted);
  m.counter("serve.accepted").add(report.accepted);
  m.counter("serve.completed").add(report.completed);
  m.counter("serve.shed_queue_full").add(report.shed_queue_full);
  m.counter("serve.shed_predicted_wait").add(report.shed_predicted_wait);
  m.counter("serve.expired").add(report.expired);
  m.counter("serve.failed").add(report.failed);
  m.counter("serve.batches").add(report.batches);
  m.counter("serve.retries").add(report.retries);
  m.counter("serve.hedges").add(report.hedges);
  m.counter("serve.failovers").add(report.failovers);
  m.counter("serve.quarantines").add(report.quarantines);
  m.counter("serve.degraded_batches").add(report.degraded_batches);
  m.counter("serve.ranks_lost").add(static_cast<std::uint64_t>(report.ranks_lost.size()));
  m.gauge("serve.latency_p50_s").set(report.latency_p50_s);
  m.gauge("serve.latency_p99_s").set(report.latency_p99_s);
  m.gauge("serve.latency_p999_s").set(report.latency_p999_s);
  m.gauge("serve.accepted_qps").set(report.accepted_qps);
  m.gauge("serve.completed_qps").set(report.completed_qps);
  m.gauge("serve.max_queue_depth").set(static_cast<double>(report.max_queue_depth));
}

void maybe_write_metrics(const ServeReport& report, const LoadSpec& load,
                         const ServeOptions& options) {
  if (options.metrics_path.empty()) return;
  svmobs::RunReport run;
  run.name = "serving";
  run.info.emplace_back("shards", std::to_string(options.shards));
  run.info.emplace_back("replicas", std::to_string(options.replicas));
  run.info.emplace_back("requests", std::to_string(load.requests));
  run.info.emplace_back("queue_capacity", std::to_string(options.queue_capacity));
  run.aggregate = report.metrics;
  svmobs::write_reports(options.metrics_path, {run});
}

void validate(const svmcore::SvmModel& model, const svmdata::CsrMatrix& queries,
              const LoadSpec& load, const ServeOptions& opt) {
  if (opt.shards < 1) throw std::invalid_argument("run_serving: shards must be >= 1");
  if (opt.replicas < 1) throw std::invalid_argument("run_serving: replicas must be >= 1");
  if (opt.queue_capacity == 0)
    throw std::invalid_argument("run_serving: queue_capacity must be positive");
  if (opt.batch_max == 0) throw std::invalid_argument("run_serving: batch_max must be positive");
  if (opt.deadline_s <= 0.0) throw std::invalid_argument("run_serving: deadline_s must be > 0");
  if (opt.dispatch_timeout_s <= 0.0)
    throw std::invalid_argument("run_serving: dispatch_timeout_s must be > 0");
  if (opt.net_model.timeout_s <= 0.0)
    throw std::invalid_argument(
        "run_serving: net_model.timeout_s must be > 0 (deadline-driven failure detection)");
  if (model.num_support_vectors() == 0)
    throw std::invalid_argument("run_serving: model has no support vectors");
  if (static_cast<std::size_t>(opt.shards) > model.num_support_vectors())
    throw std::invalid_argument("run_serving: more shards than support vectors");
  if (queries.rows() == 0) throw std::invalid_argument("run_serving: empty query matrix");
  if (load.requests == 0) throw std::invalid_argument("run_serving: load.requests must be > 0");
  if (load.mode == ArrivalMode::closed_loop && load.clients < 1)
    throw std::invalid_argument("run_serving: closed loop needs >= 1 client");
}

}  // namespace

int serving_world_size(const ServeOptions& options) {
  return 1 + options.shards * options.replicas;
}

ServeReport run_serving(const svmcore::SvmModel& model, const svmdata::CsrMatrix& queries,
                        const LoadSpec& load, const ServeOptions& options) {
  validate(model, queries, load, options);

  ServeReport report;
  report.requests.resize(load.requests);
  const std::vector<std::uint32_t> request_rows =
      assign_query_rows(load.requests, queries.rows(), load.seed);
  for (std::size_t i = 0; i < load.requests; ++i) report.requests[i].query_row = request_rows[i];
  const std::vector<double> query_sq = queries.row_squared_norms();
  const std::vector<double> arrivals =
      load.mode == ArrivalMode::open_poisson
          ? poisson_arrivals(load.requests, load.offered_qps, load.seed)
          : std::vector<double>{};

  Shared sh;
  sh.records = &report.requests;

  svmobs::TraceSession trace(options.trace_path);
  std::optional<svmmpi::FaultInjector> injector;
  if (options.fault_plan != nullptr) injector.emplace(*options.fault_plan);

  // Client threads start first and block on the service-up gate the frontend
  // opens once every worker passed the ready barrier.
  std::vector<std::thread> clients;
  std::atomic<int> live_clients{0};
  if (load.mode == ArrivalMode::open_poisson) {
    clients.emplace_back([&] { open_loop_client(sh, options, arrivals); });
  } else {
    live_clients = load.clients;
    for (int c = 0; c < load.clients; ++c)
      clients.emplace_back([&sh, &options, c, &load, &live_clients] {
        closed_loop_client(sh, options, static_cast<std::size_t>(c),
                           static_cast<std::size_t>(load.clients), load.requests, load.think_s,
                           live_clients);
      });
  }

  FrontendCounters counters;
  std::vector<int> frontend_ranks_lost;
  svmutil::Timer wall;
  svmmpi::ElasticReport elastic;
  try {
    elastic = svmmpi::run_spmd_elastic(
        serving_world_size(options),
        [&](Comm& comm) {
          if (comm.rank() == 0) {
            Frontend frontend(comm, sh, options, queries, query_sq, request_rows, model.beta());
            try {
              frontend.run();
            } catch (...) {
              // Whatever unwound the frontend (cancellation, abort), release
              // the clients before propagating so run_serving cannot hang.
              {
                std::lock_guard lock(sh.mutex);
                sh.service_down = true;
              }
              sh.completed.notify_all();
              throw;
            }
            counters = frontend.counters();
            frontend_ranks_lost = frontend.ranks_lost();
          } else {
            worker_body(comm, model, options);
          }
        },
        options.net_model, nullptr, injector ? &*injector : nullptr);
  } catch (...) {
    {
      std::lock_guard lock(sh.mutex);
      sh.service_down = true;
    }
    sh.completed.notify_all();
    for (std::thread& t : clients) t.join();
    throw;
  }
  const double wall_s = wall.seconds();

  {
    std::lock_guard lock(sh.mutex);
    sh.service_down = true;
  }
  sh.completed.notify_all();
  for (std::thread& t : clients) t.join();

  report.ranks_lost = elastic.failed_ranks.empty() ? frontend_ranks_lost : elastic.failed_ranks;
  fill_report(report, sh, counters, wall_s);
  maybe_write_metrics(report, load, options);
  return report;
}

}  // namespace svmserve
