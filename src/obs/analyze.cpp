#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace svmobs {

namespace {

constexpr double kMicro = 1e-6;  ///< trace ts are microseconds

const JsonValue* get(const JsonValue& object, const char* key) {
  return object.is(JsonType::object) ? object.find(key) : nullptr;
}

/// A closed span interval on one rank's track (trace microseconds).
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// One "round" span instance with its bound sequence number.
struct RoundInstance {
  double begin = 0.0;
  double end = 0.0;
  std::string category;
  std::uint64_t seq = 0;
  bool has_seq = false;
};

/// A flow event (start or finish) observed on a rank's track.
struct FlowPoint {
  double ts = 0.0;
  std::int64_t id = 0;
};

/// All events sharing one flow id: the happens-before building block.
struct FlowGroup {
  std::string name;  ///< "msg" (pt2pt) or "collective_round"
  int start_rank = -1;
  double start_ts = 0.0;
  bool has_start = false;
  std::vector<std::pair<int, double>> arrivals;  ///< (rank, ts), start included
};

/// True for spans whose duration is time spent in communication (blocking
/// waits and rendezvous). Collectives are wait-shaped by category; pt2pt and
/// ring waits by name.
bool is_wait_span(const std::string& name, const std::string& category) {
  if (category == "collective") return true;
  if (category == "net") return name == "recv" || name == "recv_deadline";
  return name == "ring_wait";
}

/// Ready time of a flow group from a given rank's perspective: the moment
/// the blocking peer unblocked it, and which peer that was.
struct ReadyInfo {
  double ts = 0.0;
  int peer = -1;
  bool valid = false;
};

ReadyInfo ready_of(const FlowGroup& group, int rank) {
  ReadyInfo info;
  if (group.name == "msg") {
    // pt2pt: the receiver was unblocked when the sender pushed the message.
    if (!group.has_start || group.start_rank == rank) return info;
    info.ts = group.start_ts;
    info.peer = group.start_rank;
    info.valid = true;
    return info;
  }
  // Collective: the round completes at the LAST member's arrival; the member
  // who arrives last is the gate. A rank that is itself the last arriver was
  // not blocked on anyone.
  for (const auto& [r, ts] : group.arrivals) {
    if (!info.valid || ts > info.ts) {
      info.ts = ts;
      info.peer = r;
      info.valid = true;
    }
  }
  if (info.valid && info.peer == rank) info.valid = false;
  return info;
}

struct RankEvents {
  std::vector<RoundInstance> rounds;
  std::vector<Interval> waits;      ///< all wait spans, later de-nested
  std::vector<FlowPoint> flows;     ///< sorted by ts after collection
};

}  // namespace

TraceAnalysis analyze_trace(const std::string& json) {
  TraceAnalysis out;
  JsonValue root;
  try {
    root = parse_json(json);
  } catch (const std::exception& e) {
    out.errors.emplace_back(e.what());
    return out;
  }
  const JsonValue* other = get(root, "otherData");
  const JsonValue* schema = other != nullptr ? get(*other, "schema") : nullptr;
  if (schema == nullptr || !schema->is(JsonType::string) || schema->string != "svmobs.trace.v1") {
    out.errors.emplace_back("otherData.schema is not \"svmobs.trace.v1\"");
    return out;
  }
  const JsonValue* events = get(root, "traceEvents");
  if (events == nullptr || !events->is(JsonType::array)) {
    out.errors.emplace_back("traceEvents missing or not an array");
    return out;
  }

  // --- pass 1: rebuild spans, rounds and flow groups per rank -------------
  struct OpenSpan {
    std::string name;
    std::string category;
    double ts = 0.0;
    std::uint64_t seq = 0;
    bool has_seq = false;  ///< for "round" spans awaiting their counter
  };
  std::map<int, RankEvents> per_rank;
  std::map<int, std::vector<OpenSpan>> open_by_rank;
  std::map<std::int64_t, FlowGroup> flow_groups;

  for (const JsonValue& e : events->array) {
    const JsonValue* ph = get(e, "ph");
    const JsonValue* name = get(e, "name");
    const JsonValue* pid = get(e, "pid");
    const JsonValue* ts = get(e, "ts");
    if (ph == nullptr || !ph->is(JsonType::string) || name == nullptr ||
        !name->is(JsonType::string) || pid == nullptr || !pid->is(JsonType::number))
      continue;  // structural problems are trace_validate's department
    if (ph->string == "M") continue;
    if (ts == nullptr || !ts->is(JsonType::number)) continue;
    const int rank = static_cast<int>(pid->number);

    if (ph->string == "B") {
      open_by_rank[rank].push_back(OpenSpan{name->string, "", ts->number, 0, false});
      const JsonValue* cat = get(e, "cat");
      if (cat != nullptr && cat->is(JsonType::string)) open_by_rank[rank].back().category =
          cat->string;
    } else if (ph->string == "E") {
      auto& open = open_by_rank[rank];
      if (open.empty() || open.back().name != name->string) continue;  // malformed; skip
      const OpenSpan span = open.back();
      open.pop_back();
      RankEvents& re = per_rank[rank];
      if (span.name == "round") {
        RoundInstance r;
        r.begin = span.ts;
        r.end = ts->number;
        r.category = span.category;
        r.seq = span.seq;
        r.has_seq = span.has_seq;
        re.rounds.push_back(std::move(r));
      } else if (is_wait_span(span.name, span.category)) {
        re.waits.push_back(Interval{span.ts, ts->number});
      }
    } else if (ph->string == "C" && name->string == "round_seq") {
      // Binds to the innermost open "round" span still awaiting its number.
      auto& open = open_by_rank[rank];
      const JsonValue* args = get(e, "args");
      const JsonValue* value = args != nullptr ? get(*args, "value") : nullptr;
      if (value == nullptr || !value->is(JsonType::number)) continue;
      for (auto it = open.rbegin(); it != open.rend(); ++it) {
        if (it->name == "round" && !it->has_seq) {
          it->seq = static_cast<std::uint64_t>(value->number);
          it->has_seq = true;
          break;
        }
      }
    } else if (ph->string == "s" || ph->string == "f") {
      const JsonValue* id = get(e, "id");
      if (id == nullptr || !id->is(JsonType::number)) continue;
      const auto flow_id = static_cast<std::int64_t>(id->number);
      FlowGroup& group = flow_groups[flow_id];
      if (group.name.empty()) group.name = name->string;
      group.arrivals.emplace_back(rank, ts->number);
      if (ph->string == "s") {
        group.has_start = true;
        group.start_rank = rank;
        group.start_ts = ts->number;
      }
      per_rank[rank].flows.push_back(FlowPoint{ts->number, flow_id});
    }
  }
  for (auto& [id, group] : flow_groups)
    if (group.arrivals.size() > 1 || group.name == "collective_round") ++out.flow_edges;

  // --- pass 2: group round instances by sequence number -------------------
  // The per-thread round counter is shared by every TraceRound site, so in an
  // SPMD trace equal seq => the same logical round on every rank. A rank
  // restarted mid-trace restarts its numbering; keep the LAST instance per
  // (seq, rank) so a clean trailing generation analyzes correctly.
  struct RoundGroup {
    std::string category;
    std::map<int, RoundInstance> by_rank;
  };
  std::map<std::uint64_t, RoundGroup> rounds;
  for (auto& [rank, re] : per_rank) {
    std::sort(re.waits.begin(), re.waits.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
              });
    std::sort(re.flows.begin(), re.flows.end(),
              [](const FlowPoint& a, const FlowPoint& b) { return a.ts < b.ts; });
    for (RoundInstance& r : re.rounds) {
      if (!r.has_seq) continue;  // counter evicted by ring overflow; skip
      RoundGroup& g = rounds[r.seq];
      if (g.category.empty()) g.category = r.category;
      g.by_rank[rank] = r;  // last instance wins
    }
  }

  // --- pass 3: per-round attribution --------------------------------------
  std::map<int, double> blocked_on_total;
  for (auto& [seq, group] : rounds) {
    RoundAnalysis round;
    round.seq = seq;
    round.category = group.category;
    double global_begin = 0.0;
    double global_end = 0.0;
    bool first = true;
    for (const auto& [rank, inst] : group.by_rank) {
      global_begin = first ? inst.begin : std::min(global_begin, inst.begin);
      global_end = first ? inst.end : std::max(global_end, inst.end);
      first = false;
    }
    const double round_wall = std::max(0.0, global_end - global_begin);
    round.begin_s = global_begin * kMicro;
    round.wall_s = round_wall * kMicro;

    std::map<int, double> blocked_on_this_round;
    for (const auto& [rank, inst] : group.by_rank) {
      const RankEvents& re = per_rank[rank];
      RankAttribution a;
      a.rank = rank;
      const double wall = std::max(0.0, inst.end - inst.begin);
      a.wall_s = wall * kMicro;
      a.imbalance_s = (round_wall - wall) * kMicro;

      // Maximal (outermost) wait intervals inside this round span: waits are
      // properly nested per track, so after the (begin asc, end desc) sort an
      // interval starting before the previous maximal end is contained in it.
      double wait_total = 0.0;
      double blocked_total = 0.0;
      std::map<int, double> blocked_by_peer;
      double last_end = -1.0;
      for (const Interval& w : re.waits) {
        if (w.end <= inst.begin || w.begin >= inst.end) continue;
        if (w.begin < last_end) continue;  // nested inside the previous wait
        const double b = std::max(w.begin, inst.begin);
        const double e = std::min(w.end, inst.end);
        last_end = w.end;
        if (e <= b) continue;
        wait_total += e - b;

        // The blocking peer: the flow event inside this wait whose group
        // became ready LAST. Everything before that ready time is blocked-on
        // -peer; the rest of the wait is transfer/rendezvous mechanics.
        ReadyInfo latest;
        const auto lo = std::lower_bound(
            re.flows.begin(), re.flows.end(), b,
            [](const FlowPoint& f, double t) { return f.ts < t; });
        for (auto it = lo; it != re.flows.end() && it->ts <= e; ++it) {
          const auto git = flow_groups.find(it->id);
          if (git == flow_groups.end()) continue;
          const ReadyInfo info = ready_of(git->second, rank);
          if (info.valid && (!latest.valid || info.ts > latest.ts)) latest = info;
        }
        if (latest.valid) {
          const double blocked = std::clamp(latest.ts - b, 0.0, e - b);
          if (blocked > 0.0) {
            blocked_total += blocked;
            blocked_by_peer[latest.peer] += blocked;
          }
        }
      }
      a.blocked_s = blocked_total * kMicro;
      a.comm_s = (wait_total - blocked_total) * kMicro;
      a.compute_s = (wall - wait_total) * kMicro;
      for (const auto& [peer, blocked] : blocked_by_peer) {
        blocked_on_this_round[peer] += blocked;
        blocked_on_total[peer] += blocked;
        if (a.blocked_on < 0 || blocked > blocked_by_peer[a.blocked_on]) a.blocked_on = peer;
      }
      round.ranks.push_back(a);
    }

    // Per-round means: the per-rank identity compute+comm+blocked+imbalance
    // == round_wall survives averaging.
    const double n = static_cast<double>(round.ranks.size());
    for (const RankAttribution& a : round.ranks) {
      round.compute_s += a.compute_s / n;
      round.comm_s += a.comm_s / n;
      round.blocked_s += a.blocked_s / n;
      round.imbalance_s += a.imbalance_s / n;
    }
    const double attributed =
        round.compute_s + round.comm_s + round.blocked_s + round.imbalance_s;
    round.closure = round.wall_s > 0.0 ? attributed / round.wall_s : 1.0;
    for (const auto& [peer, blocked] : blocked_on_this_round)
      if (round.straggler < 0 || blocked > blocked_on_this_round[round.straggler])
        round.straggler = peer;

    // Critical path: walk backward from the latest-finishing participant,
    // jumping to the blocking peer at each blocked wait.
    int cur_rank = -1;
    double cur_ts = 0.0;
    for (const auto& [rank, inst] : group.by_rank)
      if (cur_rank < 0 || inst.end > cur_ts) {
        cur_rank = rank;
        cur_ts = inst.end;
      }
    constexpr int kMaxHops = 128;
    for (int hop = 0; cur_rank >= 0 && hop < kMaxHops; ++hop) {
      const auto inst_it = group.by_rank.find(cur_rank);
      if (inst_it == group.by_rank.end()) break;
      const RoundInstance& inst = inst_it->second;
      const RankEvents& re = per_rank[cur_rank];
      // Latest blocked wait ending at or before cur_ts on this rank.
      ReadyInfo jump;
      double segment_start = inst.begin;
      for (const Interval& w : re.waits) {
        if (w.begin < inst.begin || w.begin >= cur_ts) continue;
        const double e = std::min({w.end, inst.end, cur_ts});
        if (e <= w.begin) continue;
        ReadyInfo latest;
        const auto lo = std::lower_bound(
            re.flows.begin(), re.flows.end(), w.begin,
            [](const FlowPoint& f, double t) { return f.ts < t; });
        for (auto it = lo; it != re.flows.end() && it->ts <= e; ++it) {
          const auto git = flow_groups.find(it->id);
          if (git == flow_groups.end()) continue;
          const ReadyInfo info = ready_of(git->second, cur_rank);
          if (info.valid && (!latest.valid || info.ts > latest.ts)) latest = info;
        }
        if (latest.valid && latest.ts > w.begin && latest.ts < cur_ts &&
            (!jump.valid || latest.ts > jump.ts)) {
          jump = latest;
          segment_start = latest.ts;
        }
      }
      round.critical_path.push_back(
          CriticalSegment{cur_rank, segment_start * kMicro, cur_ts * kMicro});
      if (!jump.valid) break;
      cur_rank = jump.peer;
      cur_ts = jump.ts;
    }
    std::reverse(round.critical_path.begin(), round.critical_path.end());

    out.total_wall_s += round.wall_s;
    out.total_compute_s += round.compute_s;
    out.total_comm_s += round.comm_s;
    out.total_blocked_s += round.blocked_s;
    out.total_imbalance_s += round.imbalance_s;
    out.rounds.push_back(std::move(round));
  }

  for (const auto& [rank, blocked] : blocked_on_total)
    out.stragglers.push_back(StragglerEntry{rank, blocked * kMicro});
  std::sort(out.stragglers.begin(), out.stragglers.end(),
            [](const StragglerEntry& a, const StragglerEntry& b) {
              return a.blocked_on_s != b.blocked_on_s ? a.blocked_on_s > b.blocked_on_s
                                                      : a.rank < b.rank;
            });
  return out;
}

std::string analysis_json(const TraceAnalysis& analysis) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value(std::string_view("svmobs.analysis.v1"));
  w.key("rounds");
  w.begin_array();
  for (const RoundAnalysis& round : analysis.rounds) {
    w.begin_object();
    w.key("seq");
    w.value(static_cast<std::uint64_t>(round.seq));
    w.key("category");
    w.value(std::string_view(round.category));
    w.key("begin_s");
    w.value(round.begin_s);
    w.key("wall_s");
    w.value(round.wall_s);
    w.key("compute_s");
    w.value(round.compute_s);
    w.key("comm_s");
    w.value(round.comm_s);
    w.key("blocked_s");
    w.value(round.blocked_s);
    w.key("imbalance_s");
    w.value(round.imbalance_s);
    w.key("closure");
    w.value(round.closure);
    w.key("straggler");
    w.value(round.straggler);
    w.key("ranks");
    w.begin_array();
    for (const RankAttribution& a : round.ranks) {
      w.begin_object();
      w.key("rank");
      w.value(a.rank);
      w.key("wall_s");
      w.value(a.wall_s);
      w.key("compute_s");
      w.value(a.compute_s);
      w.key("comm_s");
      w.value(a.comm_s);
      w.key("blocked_s");
      w.value(a.blocked_s);
      w.key("imbalance_s");
      w.value(a.imbalance_s);
      w.key("blocked_on");
      w.value(a.blocked_on);
      w.end_object();
    }
    w.end_array();
    w.key("critical_path");
    w.begin_array();
    for (const CriticalSegment& seg : round.critical_path) {
      w.begin_object();
      w.key("rank");
      w.value(seg.rank);
      w.key("from_s");
      w.value(seg.from_s);
      w.key("to_s");
      w.value(seg.to_s);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("stragglers");
  w.begin_array();
  for (const StragglerEntry& s : analysis.stragglers) {
    w.begin_object();
    w.key("rank");
    w.value(s.rank);
    w.key("blocked_on_s");
    w.value(s.blocked_on_s);
    w.end_object();
  }
  w.end_array();
  w.key("totals");
  w.begin_object();
  w.key("wall_s");
  w.value(analysis.total_wall_s);
  w.key("compute_s");
  w.value(analysis.total_compute_s);
  w.key("comm_s");
  w.value(analysis.total_comm_s);
  w.key("blocked_s");
  w.value(analysis.total_blocked_s);
  w.key("imbalance_s");
  w.value(analysis.total_imbalance_s);
  w.key("compute_fraction");
  w.value(analysis.compute_fraction());
  w.key("flow_edges");
  w.value(static_cast<std::uint64_t>(analysis.flow_edges));
  w.end_object();
  w.end_object();
  return w.str();
}

std::string analysis_table(const TraceAnalysis& analysis) {
  std::string out;
  svmutil::TextTable table({"round", "cat", "ranks", "wall_ms", "compute_ms", "comm_ms",
                            "blocked_ms", "imbal_ms", "closure", "straggler"});
  constexpr std::size_t kMaxRows = 40;
  for (std::size_t i = 0; i < analysis.rounds.size() && i < kMaxRows; ++i) {
    const RoundAnalysis& r = analysis.rounds[i];
    table.add_row({svmutil::TextTable::integer(static_cast<long long>(r.seq)), r.category,
                   svmutil::TextTable::integer(static_cast<long long>(r.ranks.size())),
                   svmutil::TextTable::num(r.wall_s * 1e3, 3),
                   svmutil::TextTable::num(r.compute_s * 1e3, 3),
                   svmutil::TextTable::num(r.comm_s * 1e3, 3),
                   svmutil::TextTable::num(r.blocked_s * 1e3, 3),
                   svmutil::TextTable::num(r.imbalance_s * 1e3, 3),
                   svmutil::TextTable::num(r.closure, 3),
                   r.straggler >= 0 ? svmutil::TextTable::integer(r.straggler)
                                    : std::string("-")});
  }
  out += table.str();
  if (analysis.rounds.size() > kMaxRows)
    out += "  ... " + std::to_string(analysis.rounds.size() - kMaxRows) + " more round(s)\n";
  if (!analysis.stragglers.empty()) {
    out += "\nstragglers (by total blocked-on-them time):\n";
    svmutil::TextTable stragglers({"rank", "blocked_on_ms"});
    for (const StragglerEntry& s : analysis.stragglers)
      stragglers.add_row({svmutil::TextTable::integer(s.rank),
                          svmutil::TextTable::num(s.blocked_on_s * 1e3, 3)});
    out += stragglers.str();
  }
  return out;
}

}  // namespace svmobs
