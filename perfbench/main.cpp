// perfbench: the repository's end-to-end benchmark (see perfbench.hpp and
// BENCHMARK.json). One run = one workload at one seed:
//
//   1. generate the inputs and write them as libsvm files (untimed);
//   2. parse them and run one untimed warm-up train() (its solve is the
//      reference), save its model and load it back;
//   3. the measured section of --seconds: timed train() calls, then
//      open-loop serve sessions at a fixed rate, each preceded by one timed
//      set-up repetition (parse both files, load the model file);
//   4. output checks, accuracy, and (traced run) the layer replays.
//
// The last line of standard output is the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "core/objective.hpp"
#include "data/libsvm_io.hpp"
#include "obs/json.hpp"
#include "perfbench.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
    "                 [--tiny] [--work-dir DIR]\n"
    "  --workload  smo-dense | pbm-sparse | serve-open\n"
    "  --seed      input seed, a whole number (default 1); same seed, same inputs\n"
    "  --seconds   length of the measured section in seconds (default 10)\n"
    "  --trace     0 = end-to-end metrics (default), 1 = per-layer metrics\n"
    "  --tiny      self-test size: small inputs and short serve sessions\n"
    "  --work-dir  directory for generated inputs and traces\n"
    "              (default .bench_build/work)\n"
    "  --help      print this text\n"
    "The last line of standard output is the JSON result.\n";

constexpr std::size_t kMinSolveCycles = 1;  ///< least timed solves per training draw
constexpr std::size_t kMinSessions = 8;
constexpr std::size_t kMinSetups = 8;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size())
    throw UsageError("--" + flag + ": not a number: '" + text + "'");
  return value;
}

/// Parses argv; returns false when --help was given.
bool parse_cli(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    if (arg.rfind("--", 0) != 0) throw UsageError("unexpected argument '" + arg + "'");
    std::string name = arg.substr(2);
    std::string value;
    bool inline_value = false;
    if (const std::size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      inline_value = true;
    }
    if (name == "tiny") {
      if (inline_value) throw UsageError("--tiny takes no value");
      opt.tiny = true;
      continue;
    }
    if (name != "workload" && name != "seed" && name != "seconds" && name != "trace" &&
        name != "work-dir")
      throw UsageError("unknown flag '--" + name + "'");
    if (!inline_value) {
      if (i + 1 >= argc) throw UsageError("--" + name + " needs a value");
      value = argv[++i];
    }
    if (name == "workload") {
      if (find_workload(value) == nullptr) throw UsageError("unknown workload '" + value + "'");
      opt.workload = value;
      have_workload = true;
    } else if (name == "seed") {
      opt.seed = parse_number<std::uint64_t>(name, value);
    } else if (name == "seconds") {
      opt.seconds = parse_number<double>(name, value);
      if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0))
        throw UsageError("--seconds must be in (0, 3600]");
    } else if (name == "trace") {
      if (value != "0" && value != "1") throw UsageError("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else {
      opt.work_dir = value;
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  return true;
}

// --- host noise and provenance ----------------------------------------------

/// Host CPU time the hypervisor gave to other guests ("steal"), summed over
/// every vCPU, in seconds; NaN when /proc/stat is unreadable.
double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  unsigned long long ticks[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(stat >> cpu) || cpu != "cpu") return std::numeric_limits<double>::quiet_NaN();
  for (unsigned long long& t : ticks) stat >> t;
  if (!stat) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(ticks[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

struct Usage {
  double cpu_s = 0.0;
  long involuntary_switches = 0;
  double peak_rss_mb = 0.0;
};

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec),
          ru.ru_nivcsw, static_cast<double>(ru.ru_maxrss) / 1024.0};  // ru_maxrss: KiB
}

std::string number_text(double value) {
  if (!std::isfinite(value)) return "unknown";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

/// Wall time of one timed operation and the host steal rate during it.
struct Timed {
  double seconds = 0.0;
  double steal_rate = 0.0;  ///< stolen vCPU-seconds per wall second
};

template <typename F>
Timed timed(F&& op) {
  const double steal0 = host_steal_s();
  const double t0 = now_s();
  op();
  const double seconds = now_s() - t0;
  const double rate = (host_steal_s() - steal0) / seconds;
  return {seconds, std::isfinite(rate) ? rate : 0.0};
}

// On this class of shared host, other guests' bursts steal up to 0.7
// vCPU-seconds per second for tens of seconds at a time. That stretches a
// 2-rank solve up to 3.5x (its ranks wait on each other's stolen vCPUs) and
// serve p99 up to 15x; between bursts the host steals a few hundredths and
// clean solves repeat within 5%. Metrics are therefore computed from the
// operations that ran below a steal rate -- kCleanStealRate for solves and
// set-up, none at all for serve sessions, whose p99 moves by up to 2x with a
// single stolen tick in a quarter-second session -- and the section runs
// past --seconds (up to kMaxStretch times) to collect enough of them. Every
// operation still counts as attempted and is checked. When a burst outlasts
// the stretch, the least-stolen operations are used and the info line says
// so.
constexpr double kCleanStealRate = 0.05;
constexpr double kMaxStretch = 1.5;

/// Indices of the operations a metric is computed from: those at or below
/// `max_rate`, or the `want` least-stolen when fewer are.
std::vector<std::size_t> select_clean(const std::vector<Timed>& ops, std::size_t want,
                                      double max_rate) {
  std::vector<std::size_t> order(ops.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ops[a].steal_rate < ops[b].steal_rate;
  });
  std::size_t keep = 0;
  while (keep < order.size() && ops[order[keep]].steal_rate <= max_rate) ++keep;
  order.resize(std::min(order.size(), std::max(keep, want)));
  std::sort(order.begin(), order.end());
  return order;
}

std::size_t count_clean(const std::vector<Timed>& ops, double max_rate) {
  return static_cast<std::size_t>(std::count_if(
      ops.begin(), ops.end(), [&](const Timed& t) { return t.steal_rate <= max_rate; }));
}

/// One kind of timed operation of the measured section: its share of the
/// section, how many clean runs it needs, and what it has done so far.
struct Phase {
  double share;           ///< of --seconds
  std::size_t min_clean;  ///< operations at or below max_rate needed
  double max_rate;
  std::vector<Timed> ops;
  double used_s = 0.0;

  [[nodiscard]] bool satisfied() const { return count_clean(ops, max_rate) >= min_clean; }
};

/// Interleaves the two phases' operations (`run_a` and `run_b` return their
/// timed part), each time running the one furthest behind its share, so a
/// steal burst in part of the section leaves clean operations of both kinds
/// on either side of it. Stops when both have their clean minimum and the
/// next operation would pass `seconds`, or at kMaxStretch x `seconds` once
/// both have their minimum count.
template <typename A, typename B>
void run_interleaved(double seconds, Phase& a, A&& run_a, Phase& b, B&& run_b) {
  const double start = now_s();
  for (;;) {
    const bool a_next = a.used_s / a.share <= b.used_s / b.share;
    Phase& next = a_next ? a : b;
    std::vector<double> durations;
    for (const Timed& t : next.ops) durations.push_back(t.seconds);
    const double next_end = now_s() - start + median(durations);
    const bool counted = a.ops.size() >= a.min_clean && b.ops.size() >= b.min_clean;
    const bool clean = a.satisfied() && b.satisfied();
    if (counted && next_end > (clean ? 1.0 : kMaxStretch) * seconds) return;
    const double t0 = now_s();
    next.ops.push_back(a_next ? run_a() : run_b());
    next.used_s += now_s() - t0;
  }
}

// --- output checks ----------------------------------------------------------

bool same_dataset(const svmdata::Dataset& a, const svmdata::Dataset& b) {
  if (a.size() != b.size() || a.X.nonzeros() != b.X.nonzeros()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a.y[i], b.y[i])) return false;
    const auto ra = a.X.row(i);
    const auto rb = b.X.row(i);
    if (ra.size() != rb.size()) return false;
    for (std::size_t k = 0; k < ra.size(); ++k)
      if (ra[k].index != rb[k].index || !same_bits(ra[k].value, rb[k].value)) return false;
  }
  return true;
}

bool same_solve(const svmcore::TrainResult& a, const svmcore::TrainResult& b) {
  if (!same_bits(a.beta, b.beta) || a.alpha.size() != b.alpha.size()) return false;
  for (std::size_t i = 0; i < a.alpha.size(); ++i)
    if (!same_bits(a.alpha[i], b.alpha[i])) return false;
  return true;
}

bool same_model(const svmcore::SvmModel& a, const svmcore::SvmModel& b) {
  if (!same_bits(a.beta(), b.beta()) || a.coefficients().size() != b.coefficients().size())
    return false;
  for (std::size_t i = 0; i < a.coefficients().size(); ++i)
    if (!same_bits(a.coefficients()[i], b.coefficients()[i])) return false;
  return true;
}

// --- serving ----------------------------------------------------------------

/// What one serve session (one run_serving call) produced.
struct Session {
  std::vector<double> latency_ms;  ///< from the scheduled arrival; inf = not answered
  std::vector<double> lag_ms;      ///< submit time minus scheduled arrival
  std::vector<std::pair<std::uint32_t, double>> answers;  ///< (held-out row, decision)
  double startup_s = 0.0;  ///< call time minus the last completion
  std::uint64_t unanswered = 0;  ///< shed, expired or failed
  std::uint64_t correct_sign = 0;
  svmserve::ServeReport report;  ///< counters only; requests are moved out
};

Session serve_session(const svmcore::SvmModel& model, const svmdata::Dataset& heldout,
                      const Options& opt, int index, SpanRecorder& spans) {
  svmserve::LoadSpec load;
  load.mode = svmserve::ArrivalMode::open_poisson;
  load.requests = opt.tiny ? 100 : 500;
  load.offered_qps = kServeQps;
  load.seed = opt.seed * 1000 + static_cast<std::uint64_t>(index) + 1;
  const std::vector<double> schedule =
      svmserve::poisson_arrivals(load.requests, load.offered_qps, load.seed);

  Session s;
  const double t0 = now_s();
  {
    SpanRecorder::Scope span(spans, "serve.run_serving", "serve");
    s.report = svmserve::run_serving(model, heldout.X, load, serve_options());
  }
  const double call_s = now_s() - t0;
  const std::vector<svmserve::RequestRecord> requests = std::move(s.report.requests);
  double last_done = 0.0;
  for (const svmserve::RequestRecord& r : requests) last_done = std::max(last_done, r.done_s);
  s.startup_s = call_s - last_done;

  // Request spans on the service clock, aligned so the last completion
  // meets the end of the run_serving span.
  const double clock_zero = t0 + s.startup_s;
  const auto first_id = static_cast<std::int64_t>(index) * static_cast<std::int64_t>(load.requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const svmserve::RequestRecord& r = requests[i];
    spans.add("serve.request", "serve", clock_zero + schedule[i], clock_zero + r.done_s,
              first_id + static_cast<std::int64_t>(i));
    if (r.status != svmserve::RequestStatus::completed) {
      ++s.unanswered;
      s.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    s.latency_ms.push_back((r.done_s - schedule[i]) * 1e3);
    s.lag_ms.push_back((r.arrival_s - schedule[i]) * 1e3);
    s.answers.emplace_back(r.query_row, r.decision);
    if ((r.decision >= 0.0 ? 1.0 : -1.0) == heldout.y[r.query_row]) ++s.correct_sign;
  }
  return s;
}

/// Nearest-rank percentile; unanswered requests sort last as +inf and are
/// reported at the deadline, the limit they are counted as missing.
double latency_percentile(std::vector<double> values, double p, double deadline_ms) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const double v = values[std::max<std::size_t>(rank, 1) - 1];
  return std::isfinite(v) ? v : deadline_ms;
}

/// Held-out accuracy through the model's batched engine: serial, and the
/// same decisions as SvmModel::accuracy (bit-identical at f64), ~10x faster
/// on sparse support vectors.
double heldout_accuracy(const svmcore::SvmModel& model, const svmdata::Dataset& heldout) {
  svmkernel::KernelEngine engine = model.make_engine();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < heldout.size(); ++i)
    if ((model.decision_value(heldout.X.row(i), engine) >= 0.0 ? 1.0 : -1.0) == heldout.y[i])
      ++correct;
  return static_cast<double>(correct) / static_cast<double>(heldout.size());
}

/// FNV-1a over the input files: lets a self-test tell inputs apart.
std::uint64_t file_digest(const std::vector<std::string>& paths) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    for (char c; in.get(c);) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// --- summaries of the measured operations ------------------------------------

/// train_s and its by-products, from the low-steal timed solves.
struct SolveSummary {
  double train_s = 0.0;         ///< mean over the draws of each draw's median
  double first_draw_s = 0.0;    ///< the first draw's median
  std::vector<double> overhead_s;  ///< train() wall minus its solve time
  std::size_t used = 0;
  bool steal_limited = false;
};

/// `solves[i]` ran draw i % draws.
SolveSummary summarize_solves(const std::vector<Timed>& solves,
                              const std::vector<double>& overhead_s, std::size_t draws) {
  SolveSummary out;
  for (std::size_t k = 0; k < draws; ++k) {
    std::vector<Timed> of_draw;
    for (std::size_t i = k; i < solves.size(); i += draws) of_draw.push_back(solves[i]);
    const std::vector<std::size_t> pick = select_clean(of_draw, kMinSolveCycles, kCleanStealRate);
    out.steal_limited |= pick.size() > count_clean(of_draw, kCleanStealRate);
    out.used += pick.size();
    std::vector<double> seconds;
    for (const std::size_t cycle : pick) {
      seconds.push_back(of_draw[cycle].seconds);
      out.overhead_s.push_back(overhead_s[cycle * draws + k]);
    }
    out.train_s += median(seconds) / static_cast<double>(draws);
    if (k == 0) out.first_draw_s = median(seconds);
  }
  return out;
}

/// Serving figures pooled over the sessions that saw no steal.
struct ServeSummary {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> startup_s;
  std::vector<double> batches;  ///< per session
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::size_t used = 0;
  bool steal_limited = false;
};

ServeSummary summarize_sessions(const std::vector<Session>& sessions,
                                const std::vector<Timed>& times) {
  ServeSummary out;
  const std::vector<std::size_t> pick = select_clean(times, kMinSessions, 0.0);
  out.steal_limited = pick.size() > count_clean(times, 0.0);
  out.used = pick.size();
  for (const std::size_t i : pick) {
    const Session& s = sessions[i];
    out.latency_ms.insert(out.latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
    out.lag_ms.insert(out.lag_ms.end(), s.lag_ms.begin(), s.lag_ms.end());
    out.startup_s.push_back(s.startup_s);
    out.batches.push_back(static_cast<double>(s.report.batches));
    out.completed += s.report.completed;
    out.shed += s.report.shed_queue_full + s.report.shed_predicted_wait;
    out.retries += s.report.retries;
    out.hedges += s.report.hedges;
  }
  return out;
}

// --- one run ------------------------------------------------------------------

Outcome run(const Workload& workload, const Options& opt) {
  Outcome out;
  SpanRecorder spans;
  spans.set_enabled(opt.trace);
  const Inputs in = make_inputs(workload, opt);
  const std::size_t draws = in.trains.size();

  // The first load of the inputs feeds the warm-ups and is checked, untimed.
  std::vector<svmdata::Dataset> trains;
  for (std::size_t k = 0; k < draws; ++k) {
    trains.push_back(svmdata::read_libsvm_file(in.train_paths[k]));
    if (!same_dataset(trains[k], in.trains[k]))
      out.fail("parsed training file " + std::to_string(k) + " differs from the generated draw");
  }
  const svmdata::Dataset heldout = svmdata::read_libsvm_file(in.heldout_path);
  if (!same_dataset(heldout, in.heldout))
    out.fail("parsed held-out file differs from the generated draw");

  // One untimed warm-up solve per draw: a process's first solve runs slow,
  // and it is the reference every timed solve of the draw must reproduce
  // bit for bit.
  std::vector<svmcore::TrainResult> refs(draws);
  double gap = 0.0;
  for (std::size_t k = 0; k < draws; ++k) {
    {
      SpanRecorder::Scope span(spans, "core.train", "core");
      refs[k] = svmcore::train(trains[k], in.params, in.train_options);
    }
    const double g = svmcore::kkt_report(trains[k], refs[k].alpha, in.params).gap;
    gap = std::max(gap, g);
    if (!refs[k].converged || !(g <= 2.0 * in.params.eps))
      out.fail("warm-up solve of draw " + std::to_string(k) + ": converged=" +
               std::to_string(refs[k].converged) + " kkt gap=" + number_text(g) + " > 2*eps");
  }
  refs[0].model.save_file(in.model_path);
  const svmcore::SvmModel model = svmcore::SvmModel::load_file(in.model_path);
  if (!same_model(model, refs[0].model)) out.fail("loaded model differs from the trained model");

  // --- measured section ---------------------------------------------------
  const double steal0 = host_steal_s();
  const Usage usage0 = process_usage();
  const std::size_t spans0 = spans.spans().size();
  const double start = now_s();

  // One set-up repetition (single-threaded loading of every input file and
  // of the model file) runs before every timed operation, so the set-up
  // median spans the whole section: the host's speed drifts over seconds.
  std::vector<Timed> setups;
  std::vector<double> parse_s;
  std::vector<double> load_s;
  std::vector<svmdata::Dataset> parsed(draws + 1);
  const auto setup_rep = [&] {
    for (svmdata::Dataset& d : parsed) d = {};  // freed outside the clock
    svmcore::SvmModel loaded;
    setups.push_back(timed([&] {
      const double t0 = now_s();
      for (std::size_t k = 0; k <= draws; ++k) {
        SpanRecorder::Scope span(spans, "data.read_libsvm_file", "data");
        parsed[k] = svmdata::read_libsvm_file(k < draws ? in.train_paths[k] : in.heldout_path);
      }
      const double t1 = now_s();
      {
        SpanRecorder::Scope span(spans, "core.SvmModel::load_file", "core");
        loaded = svmcore::SvmModel::load_file(in.model_path);
      }
      parse_s.push_back(t1 - t0);
      load_s.push_back(now_s() - t1);
    }));
  };

  // Timed solves cycle through the draws; serve sessions are interleaved
  // with them.
  Phase solve_phase{workload.train_share, kMinSolveCycles * draws, kCleanStealRate, {}};
  Phase serve_phase{1.0 - workload.train_share, kMinSessions, 0.0, {}};
  std::vector<double> overhead_s;
  std::vector<Session> sessions;
  const auto timed_solve = [&] {
    setup_rep();
    const std::size_t i = overhead_s.size();
    const std::size_t k = i % draws;
    svmcore::TrainResult result;
    const Timed t = timed([&] {
      SpanRecorder::Scope span(spans, "core.train", "core");
      result = svmcore::train(trains[k], in.params, in.train_options);
    });
    overhead_s.push_back(t.seconds - result.solve_seconds);
    ++out.attempted;
    // Bit-identical to the warm-up implies the same converged KKT gap.
    if (!result.converged || !same_solve(result, refs[k])) {
      ++out.failed;
      out.fail("timed solve " + std::to_string(i) + " is not bit-identical to its warm-up");
    }
    return t;
  };
  const auto timed_session = [&] {
    setup_rep();
    Session session;
    const Timed t = timed([&] {
      session = serve_session(model, heldout, opt, static_cast<int>(sessions.size()), spans);
    });
    sessions.push_back(std::move(session));
    return t;
  };
  run_interleaved(opt.seconds, solve_phase, timed_solve, serve_phase, timed_session);
  const std::vector<Timed>& solves = solve_phase.ops;
  const std::vector<Timed>& session_times = serve_phase.ops;
  const double measured_s = now_s() - start;
  const std::size_t measured_spans = spans.spans().size() - spans0;
  const double steal_s = host_steal_s() - steal0;
  const Usage usage1 = process_usage();

  // --- checks, after the clock --------------------------------------------
  std::uint64_t mismatched = 0;
  std::uint64_t shed = 0, expired = 0, failed = 0;
  for (const Session& s : sessions) {
    out.attempted += s.latency_ms.size();
    out.failed += s.unanswered;
    shed += s.report.shed_queue_full + s.report.shed_predicted_wait;
    expired += s.report.expired;
    failed += s.report.failed;
    for (const auto& [row, decision] : s.answers)
      if (!same_bits(decision, model.decision_value(heldout.X.row(row)))) ++mismatched;
  }
  if (mismatched > 0) {
    out.failed += mismatched;
    out.fail(std::to_string(mismatched) + " served decisions differ from decision_value");
  }

  // --- metrics from the low-steal operations ------------------------------
  const std::vector<std::size_t> setup_pick = select_clean(setups, kMinSetups, kCleanStealRate);
  std::vector<double> pick_parse_s, pick_load_s;
  for (const std::size_t i : setup_pick) {
    pick_parse_s.push_back(parse_s[i]);
    pick_load_s.push_back(load_s[i]);
  }
  const SolveSummary train = summarize_solves(solves, overhead_s, draws);
  const ServeSummary serve = summarize_sessions(sessions, session_times);
  const double deadline_ms = serve_options().deadline_s * 1e3;

  // serve-open scores the service's answers to the first kMinSessions
  // sessions, which every run serves with the same requests; the training
  // workloads score the model on the whole held-out draw (serial, so no
  // thread pool outlives the call).
  double accuracy = 0.0;
  if (workload.scores_service) {
    std::uint64_t correct = 0, asked = 0;
    for (std::size_t i = 0; i < kMinSessions; ++i) {
      correct += sessions[i].correct_sign;
      asked += sessions[i].latency_ms.size();
    }
    accuracy = static_cast<double>(correct) / static_cast<double>(asked);
  } else {
    accuracy = heldout_accuracy(model, heldout);
  }
  if (!opt.trace) {
    out.add("setup_s", "s", median(pick_parse_s) + median(pick_load_s) + median(serve.startup_s));
    out.add("train_s", "s", train.train_s);
    out.add("accuracy", "fraction", accuracy);
    out.add("peak_rss_mb", "MB", process_usage().peak_rss_mb);
    out.add("serve_p50_ms", "ms", latency_percentile(serve.latency_ms, 50.0, deadline_ms));
    out.add("serve_p90_ms", "ms", latency_percentile(serve.latency_ms, 90.0, deadline_ms));
  } else {
    out.add("data.parse_s", "s", median(pick_parse_s));
    out.add("core.model_load_s", "s", median(pick_load_s));
    out.add("serve.startup_s", "s", median(serve.startup_s));
    out.add("core.trainer_overhead_s", "s", median(train.overhead_s));
    replay_layers({&in, &refs[0], &model, train.first_draw_s, opt.tiny}, spans, out);
    const double batch_total = std::accumulate(serve.batches.begin(), serve.batches.end(), 0.0);
    out.add("serve.p99_ms", "ms", latency_percentile(serve.latency_ms, 99.0, deadline_ms));
    out.add("serve.batches", "count", median(serve.batches));
    out.add("serve.batch_fill", "fraction",
            static_cast<double>(serve.completed) /
                (batch_total * static_cast<double>(serve_options().batch_max)));
    out.add("serve.retries", "count", static_cast<double>(serve.retries));
    out.add("serve.hedges", "count", static_cast<double>(serve.hedges));
    out.add("serve.shed", "count", static_cast<double>(serve.shed));
    // Share of the measured section the recorder itself took: spans
    // recorded there times the measured cost of recording one.
    out.add("bench.trace_overhead", "fraction",
            static_cast<double>(measured_spans) * span_cost_s() / measured_s);
    const std::string trace_path = opt.work_dir + "/trace-" + workload.name + "-s" +
                                   std::to_string(opt.seed) + ".json";
    spans.write_chrome(trace_path);
    out.info.emplace_back("trace_file", trace_path);
  }

  const auto used = [](std::size_t picked, std::size_t total) {
    return std::to_string(picked) + " of " + std::to_string(total);
  };
  std::string iterations;
  for (const svmcore::TrainResult& r : refs)
    iterations += (iterations.empty() ? "" : " ") + std::to_string(r.iterations);
  std::vector<std::string> files = in.train_paths;
  files.push_back(in.heldout_path);
  out.info.emplace_back("train_samples", used(train.used, solves.size()));
  out.info.emplace_back("serve_sessions", used(serve.used, sessions.size()));
  out.info.emplace_back("setup_samples", used(setup_pick.size(), setups.size()));
  out.info.emplace_back("serve_requests", std::to_string(serve.latency_ms.size()));
  out.info.emplace_back("unanswered_requests", std::to_string(shed) + " shed, " +
                                                   std::to_string(expired) + " expired, " +
                                                   std::to_string(failed) + " failed");
  out.info.emplace_back("steal_limited", train.steal_limited || serve.steal_limited ? "yes" : "no");
  out.info.emplace_back("generator_lag_p50_ms",
                        number_text(latency_percentile(serve.lag_ms, 50.0, deadline_ms)));
  out.info.emplace_back("generator_lag_p99_ms",
                        number_text(latency_percentile(serve.lag_ms, 99.0, deadline_ms)));
  out.info.emplace_back("kkt_gap_max", number_text(gap));
  out.info.emplace_back("iterations", iterations);
  out.info.emplace_back("support_vectors", std::to_string(model.num_support_vectors()));
  out.info.emplace_back("inputs_digest", std::to_string(file_digest(files)));
  out.info.emplace_back("measured_s", number_text(measured_s));
  out.info.emplace_back("host_steal_s", number_text(steal_s));
  out.info.emplace_back("cpu_s", number_text(usage1.cpu_s - usage0.cpu_s));
  out.info.emplace_back("involuntary_switches",
                        std::to_string(usage1.involuntary_switches - usage0.involuntary_switches));
  out.info.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  out.info.emplace_back("compiler", PERFBENCH_COMPILER);
  out.info.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  out.info.emplace_back("commit", PERFBENCH_COMMIT);

  std::filesystem::remove_all(in.dir);
  return out;
}

void print(const Outcome& out) {
  for (const Metric& m : out.metrics)
    std::printf("%-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& check : out.checks) std::printf("CHECK FAILED: %s\n", check.c_str());

  svmobs::JsonWriter info;
  info.begin_object();
  for (const auto& [key, value] : out.info) {
    info.key(key);
    info.value(value);
  }
  info.end_object();
  std::printf("info %s\n", info.str().c_str());

  svmobs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(out.checks.empty());
  w.key("attempted");
  w.value(out.attempted);
  w.key("failed");
  w.value(out.failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : out.metrics) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    if (!parse_cli(argc, argv, opt)) {
      std::fputs(kUsage, stdout);
      return 0;
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n%s", e.what(), kUsage);
    return 2;
  }
  try {
    const Outcome out = run(*find_workload(opt.workload), opt);
    print(out);
    return out.checks.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
