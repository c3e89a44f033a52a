#include "mpisim/comm.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/trace.hpp"

namespace svmmpi {

namespace {

// An injected delay sleeps in slices this long, polling its context between
// them, so a watchdog cancellation ends the stall within one slice.
constexpr auto kDelayPollSlice = std::chrono::milliseconds(1);

// Counter-track samples are rate-limited: one every kNetCounterStride
// collectives (plus every overlap credit) keeps traced runs readable while
// still plotting modeled vs overlapped network seconds over time.
constexpr std::uint64_t kNetCounterStride = 64;

void trace_net_seconds(const TrafficStats& s) {
  svmobs::trace_counter("net_modeled_s", s.modeled_seconds);
  svmobs::trace_counter("net_overlapped_s", s.overlapped_seconds);
}

}  // namespace

bool Comm::faulted_op(FaultSite site) {
  FaultInjector* injector = world_->injector();
  if (injector == nullptr) return false;
  const FaultAction action = injector->on_op((*group_)[rank_], site);  // may throw RankFailed
  if (action.delay_s > 0.0) {
    // A stalled rank is still cancellable: the delay ends early, with
    // ContextCancelled, once the watchdog cancels this comm's context.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(action.delay_s));
    for (auto now = std::chrono::steady_clock::now(); now < until;
         now = std::chrono::steady_clock::now()) {
      check_cancelled();
      std::this_thread::sleep_until(std::min(until, now + kDelayPollSlice));
    }
    check_cancelled();
  }
  return action.drop;
}

void Comm::check_cancelled() const {
  if (world_->context_cancelled(context_id_))
    throw ContextCancelled(context_id_, (*group_)[rank_]);
}

void Comm::send_bytes(std::vector<std::byte> payload, int destination, int tag) {
  if (destination < 0 || destination >= size())
    throw std::out_of_range("svmmpi: send destination out of range");
  check_cancelled();
  const std::size_t bytes = payload.size();
  // A dropped send still charges the sender's stats: the sender cannot tell
  // the message was lost, exactly as on a real network.
  const bool dropped = faulted_op(FaultSite::send);
  if (!dropped) {
    Message m{context_id_, rank_, tag, /*flow_id=*/0, std::move(payload)};
    if (svmobs::trace_enabled()) {
      // Flow-start only for messages actually delivered into a mailbox: a
      // fault-dropped send has no receiver, and an unmatched start would
      // (correctly) fail trace_validate's dangling-flow gate. A re-sent
      // message after a timeout goes through here again and gets a fresh id.
      m.flow_id = acquire_flow_id();
      svmobs::TraceSpan span("send", "net");
      svmobs::trace_flow_start("msg", "flow", m.flow_id);
      world_->mailbox((*group_)[destination]).push(std::move(m));
    } else {
      world_->mailbox((*group_)[destination]).push(std::move(m));
    }
  }
  TrafficStats& s = world_->mutable_stats((*group_)[rank_]);
  ++s.sends;
  s.bytes_sent += bytes;
  s.modeled_seconds += world_->model().pt2pt(bytes);
}

std::vector<int> Comm::dead_members() const {
  std::vector<int> dead;
  if (!world_->any_failed()) return dead;
  for (const int wr : *group_)
    if (world_->is_failed(wr)) dead.push_back(wr);
  std::sort(dead.begin(), dead.end());
  return dead;
}

void Comm::throw_rank_lost() const {
  std::vector<int> dead = dead_members();
  if (dead.empty()) dead = world_->failed_ranks();
  bool permanent = false;
  for (const int wr : dead) permanent = permanent || world_->failure_is_permanent(wr);
  throw RankLost(std::move(dead), permanent);
}

void Comm::convert_timeout(const TimeoutError& timeout) const {
  constexpr int kGracePolls = 40;
  for (int i = 0; i < kGracePolls; ++i) {
    if (!dead_members().empty()) throw_rank_lost();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw timeout;
}

std::function<bool()> Comm::recv_interrupt(int source) const {
  return [this, source] {
    return world_->context_cancelled(context_id_) || world_->is_failed((*group_)[source]);
  };
}

void Comm::account_recv(const Message& m) {
  // Bind the sender's flow to the (still open) recv span: Perfetto draws
  // the cross-rank arrow, trace_analyze recovers the happens-before edge.
  if (m.flow_id != 0) svmobs::trace_flow_finish("msg", "flow", m.flow_id);
  TrafficStats& s = world_->mutable_stats((*group_)[rank_]);
  ++s.recvs;
  s.bytes_received += m.payload.size();
  s.modeled_seconds += world_->model().pt2pt(m.payload.size());
}

Message Comm::recv_message(int source, int tag) {
  if (source < 0 || source >= size()) throw std::out_of_range("svmmpi: recv source out of range");
  // Spans the blocking wait (and any fault-injected delay); a RankLost /
  // TimeoutError unwind closes it, so stalls show up as long recv spans.
  svmobs::TraceSpan span("recv", "net");
  check_cancelled();
  (void)faulted_op(FaultSite::recv);
  // The awaited peer dying while we block surfaces as RankLost rather than a
  // full deadline wait: World::mark_failed pokes the mailbox, the interrupt
  // predicate fires, and the internal wake converts to the public verdict.
  // A watchdog cancellation of this comm's context wakes the wait the same
  // way and converts to ContextCancelled below.
  Message m;
  try {
    m = world_->mailbox((*group_)[rank_]).pop(context_id_, source, tag, recv_interrupt(source));
  } catch (const RendezvousInterrupted&) {
    check_cancelled();
    throw_rank_lost();
  } catch (const TimeoutError& timeout) {
    check_cancelled();
    convert_timeout(timeout);
  }
  account_recv(m);
  return m;
}

bool Comm::recv_bytes_deadline(std::vector<std::byte>& out, int source, int tag,
                               double deadline_s) {
  if (source < 0 || source >= size())
    throw std::out_of_range("svmmpi: recv_deadline source out of range");
  svmobs::TraceSpan span("recv_deadline", "net");
  check_cancelled();
  (void)faulted_op(FaultSite::recv);
  // Only the awaited peer's death wakes the wait and converts to RankLost;
  // unrelated deaths leave the wait (and its deadline) undisturbed, which is
  // what lets the frontend keep polling a healthy replica after its sibling
  // was killed.
  Message m;
  try {
    if (!world_->mailbox((*group_)[rank_]).pop_for(context_id_, source, tag, deadline_s,
                                                   recv_interrupt(source), m))
      return false;
  } catch (const RendezvousInterrupted&) {
    check_cancelled();
    throw_rank_lost();
  }
  account_recv(m);
  out = std::move(m.payload);
  return true;
}

double Comm::credit_overlap(double compute_s, double comm_s) {
  const double credit = std::min(std::max(compute_s, 0.0), std::max(comm_s, 0.0));
  TrafficStats& s = world_->mutable_stats((*group_)[rank_]);
  s.overlapped_seconds += credit;
  s.modeled_seconds -= credit;
  if (svmobs::trace_enabled()) trace_net_seconds(s);
  return credit;
}

std::vector<std::byte> Comm::collective(std::vector<std::byte> contribution,
                                        const CollectiveContext::Combine& combine,
                                        ModelAs model_as, std::size_t payload_bytes,
                                        const char* label) {
  svmobs::TraceSpan span(label, "collective");
  check_cancelled();
  (void)faulted_op(FaultSite::collective);
  const auto interrupt = [this] {
    if (world_->context_cancelled(context_id_)) return true;
    return world_->any_failed() && !dead_members().empty();
  };
  std::vector<std::byte> result;
  try {
    result = world_->context(context_id_).run(rank_, std::move(contribution), combine, interrupt);
  } catch (const RendezvousInterrupted&) {
    check_cancelled();
    throw_rank_lost();
  } catch (const TimeoutError& timeout) {
    check_cancelled();
    convert_timeout(timeout);
  }
  TrafficStats& s = world_->mutable_stats((*group_)[rank_]);
  ++s.collectives;
  s.bytes_collective += payload_bytes;  // this rank's injected collective volume
  const int p = size();
  switch (model_as) {
    case ModelAs::tree: s.modeled_seconds += world_->model().tree(payload_bytes, p); break;
    case ModelAs::ring:
      s.modeled_seconds +=
          static_cast<double>(p - 1) * world_->model().ring_step(payload_bytes);
      break;
  }
  if (svmobs::trace_enabled() && s.collectives % kNetCounterStride == 0) trace_net_seconds(s);
  return result;
}

void Comm::barrier() {
  (void)collective(
      {}, [](const std::vector<std::vector<std::byte>>&) { return std::vector<std::byte>{}; },
      ModelAs::tree, 0, "barrier");
}

namespace {

// Rank-ordered loc-reductions: deterministic and index-tie-broken so the
// distributed solvers select the identical working set as the sequential one.
// Every loc-combine below ranks candidates with these two comparators.
bool minloc_beats(const DoubleInt& candidate, const DoubleInt& best) noexcept {
  return candidate.value < best.value ||
         (candidate.value == best.value && candidate.index < best.index);
}

bool maxloc_beats(const DoubleInt& candidate, const DoubleInt& best) noexcept {
  return candidate.value > best.value ||
         (candidate.value == best.value && candidate.index < best.index);
}

template <bool (*Beats)(const DoubleInt&, const DoubleInt&)>
std::vector<std::byte> combine_loc(const std::vector<std::vector<std::byte>>& parts) {
  DoubleInt best{};
  bool first = true;
  for (const auto& p : parts) {
    const auto cand = detail::from_bytes<DoubleInt>(p)[0];
    if (first || Beats(cand, best)) {
      best = cand;
      first = false;
    }
  }
  return detail::to_bytes(std::span<const DoubleInt>(&best, 1));
}

/// A validated, non-owning view of one pack_minmaxloc buffer.
struct MinMaxLocView {
  DoubleInt min_key;
  DoubleInt max_key;
  std::span<const std::byte> min_payload;
  std::span<const std::byte> max_payload;
};

constexpr std::size_t kMinMaxLocHeader = 2 * sizeof(DoubleInt) + 2 * sizeof(std::uint64_t);

MinMaxLocView view_minmaxloc(std::span<const std::byte> bytes) {
  if (bytes.size() < kMinMaxLocHeader)
    throw std::runtime_error("svmmpi: malformed minmaxloc payload (truncated header)");
  MinMaxLocView view;
  std::uint64_t sizes[2] = {0, 0};
  std::memcpy(&view.min_key, bytes.data(), sizeof(DoubleInt));
  std::memcpy(&view.max_key, bytes.data() + sizeof(DoubleInt), sizeof(DoubleInt));
  std::memcpy(sizes, bytes.data() + 2 * sizeof(DoubleInt), sizeof(sizes));
  const std::span<const std::byte> body = bytes.subspan(kMinMaxLocHeader);
  if (sizes[0] > body.size() || sizes[1] != body.size() - sizes[0])
    throw std::runtime_error("svmmpi: malformed minmaxloc payload (sizes do not match length)");
  view.min_payload = body.first(sizes[0]);
  view.max_payload = body.subspan(sizes[0]);
  return view;
}

}  // namespace

std::vector<std::byte> detail::pack_minmaxloc(DoubleInt min_key,
                                              std::span<const std::byte> min_payload,
                                              DoubleInt max_key,
                                              std::span<const std::byte> max_payload) {
  std::vector<std::byte> out(kMinMaxLocHeader + min_payload.size() + max_payload.size());
  const std::uint64_t sizes[2] = {min_payload.size(), max_payload.size()};
  std::byte* at = out.data();
  std::memcpy(at, &min_key, sizeof(DoubleInt));
  std::memcpy(at + sizeof(DoubleInt), &max_key, sizeof(DoubleInt));
  std::memcpy(at + 2 * sizeof(DoubleInt), sizes, sizeof(sizes));
  at += kMinMaxLocHeader;
  if (!min_payload.empty()) std::memcpy(at, min_payload.data(), min_payload.size());
  if (!max_payload.empty())
    std::memcpy(at + min_payload.size(), max_payload.data(), max_payload.size());
  return out;
}

std::vector<std::byte> detail::combine_minmaxloc(
    const std::vector<std::vector<std::byte>>& parts) {
  MinMaxLocView best{};
  bool first = true;
  for (const auto& p : parts) {
    const MinMaxLocView cand = view_minmaxloc(p);
    if (first || minloc_beats(cand.min_key, best.min_key)) {
      best.min_key = cand.min_key;
      best.min_payload = cand.min_payload;
    }
    if (first || maxloc_beats(cand.max_key, best.max_key)) {
      best.max_key = cand.max_key;
      best.max_payload = cand.max_payload;
    }
    first = false;
  }
  return pack_minmaxloc(best.min_key, best.min_payload, best.max_key, best.max_payload);
}

DoubleInt Comm::allreduce_minloc(DoubleInt mine) {
  auto out = collective(detail::to_bytes(std::span<const DoubleInt>(&mine, 1)),
                        combine_loc<minloc_beats>, ModelAs::tree, sizeof(DoubleInt),
                        "allreduce_minloc");
  return detail::from_bytes<DoubleInt>(out)[0];
}

DoubleInt Comm::allreduce_maxloc(DoubleInt mine) {
  auto out = collective(detail::to_bytes(std::span<const DoubleInt>(&mine, 1)),
                        combine_loc<maxloc_beats>, ModelAs::tree, sizeof(DoubleInt),
                        "allreduce_maxloc");
  return detail::from_bytes<DoubleInt>(out)[0];
}

MinMaxLoc Comm::allreduce_minmaxloc(DoubleInt min_key, std::span<const std::byte> min_payload,
                                    DoubleInt max_key, std::span<const std::byte> max_payload) {
  std::vector<std::byte> mine =
      detail::pack_minmaxloc(min_key, min_payload, max_key, max_payload);
  const std::size_t payload_bytes = mine.size();  // this rank's injected bytes
  const std::vector<std::byte> out = collective(std::move(mine), detail::combine_minmaxloc,
                                                ModelAs::tree, payload_bytes,
                                                "allreduce_minmaxloc");
  const MinMaxLocView winners = view_minmaxloc(out);
  return MinMaxLoc{
      {winners.min_key, {winners.min_payload.begin(), winners.min_payload.end()}},
      {winners.max_key, {winners.max_payload.begin(), winners.max_payload.end()}}};
}

std::vector<std::byte> detail::concat_with_sizes(
    const std::vector<std::vector<std::byte>>& parts) {
  const std::uint64_t count = parts.size();
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<std::byte> out(sizeof(std::uint64_t) * (1 + count) + total);
  std::size_t offset = 0;
  std::memcpy(out.data() + offset, &count, sizeof(count));
  offset += sizeof(count);
  for (const auto& p : parts) {
    const std::uint64_t sz = p.size();
    std::memcpy(out.data() + offset, &sz, sizeof(sz));
    offset += sizeof(sz);
  }
  for (const auto& p : parts) {
    if (!p.empty()) std::memcpy(out.data() + offset, p.data(), p.size());
    offset += p.size();
  }
  return out;
}

int Comm::comm_rank_of_world(int world_rank) const {
  for (int i = 0; i < size(); ++i)
    if ((*group_)[i] == world_rank) return i;
  return -1;
}

std::vector<int> Comm::agree(const std::vector<int>& values) {
  // Fold the locally-known dead set into the contribution so agreement
  // reflects every failure any survivor has observed so far; the finalizer's
  // late_values picks up deaths marked while the agreement was in flight.
  std::vector<int> mine = values;
  const std::vector<int> dead_now = dead_members();
  mine.insert(mine.end(), dead_now.begin(), dead_now.end());
  const auto dead_local = [this] {
    std::vector<int> local;
    for (int i = 0; i < size(); ++i)
      if (world_->is_failed((*group_)[i])) local.push_back(i);
    return local;
  };
  const auto late_values = [this] { return dead_members(); };
  return world_->context(context_id_).agree(rank_, mine, dead_local, late_values);
}

Comm Comm::shrink(std::uint64_t context_salt) {
  const std::vector<int> dead = agree({});
  auto new_group = std::make_shared<std::vector<int>>();
  int new_rank = -1;
  for (int i = 0; i < size(); ++i) {
    const int wr = (*group_)[i];
    if (std::binary_search(dead.begin(), dead.end(), wr)) continue;
    if (i == rank_) new_rank = static_cast<int>(new_group->size());
    new_group->push_back(wr);
  }
  if (new_rank < 0)
    throw std::logic_error("svmmpi: shrink called by a rank in the agreed dead set");
  // Agreement made the dead set — and hence the surviving group — identical
  // on every survivor, so the memoized per-(group, salt) context lookup
  // yields the same context id everywhere without further communication.
  const int context = world_->context_for_group(*new_group, context_salt);
  return Comm(world_, std::move(new_group), new_rank, context);
}

Comm Comm::split_subset(const std::vector<int>& world_ranks, int context_id) const {
  if (world_ranks.empty()) throw std::invalid_argument("svmmpi: split_subset of empty group");
  if (!std::is_sorted(world_ranks.begin(), world_ranks.end()) ||
      std::adjacent_find(world_ranks.begin(), world_ranks.end()) != world_ranks.end())
    throw std::invalid_argument("svmmpi: split_subset group must be sorted and unique");
  int new_rank = -1;
  const int my_world_rank = (*group_)[rank_];
  for (std::size_t i = 0; i < world_ranks.size(); ++i) {
    if (comm_rank_of_world(world_ranks[i]) < 0)
      throw std::invalid_argument("svmmpi: split_subset member outside the parent comm");
    if (world_ranks[i] == my_world_rank) new_rank = static_cast<int>(i);
  }
  if (new_rank < 0)
    throw std::invalid_argument("svmmpi: split_subset caller is not a subset member");
  if (world_->context(context_id).size() != static_cast<int>(world_ranks.size()))
    throw std::invalid_argument("svmmpi: split_subset context size mismatch");
  return Comm(world_, std::make_shared<std::vector<int>>(world_ranks), new_rank, context_id);
}

}  // namespace svmmpi
