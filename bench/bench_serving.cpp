// Serving bench: drives svmserve's fault-tolerant prediction service over a
// freshly trained model and reports the saturation curve (latency percentiles
// vs offered QPS, open-loop Poisson clients) plus three deterministic fault
// regimes — none, low (one worker rank dies mid-run) and high (a death, a
// dropped reply and an injected-slow rank together). Emits
// BENCH_serving.json for the bench_diff gate.
//
// The contract (exit status, strict under --assert):
//   - at 0.7x the measured saturation throughput, p99 stays under the
//     deadline and nothing is shed;
//   - at 2x saturation the service sheds at admission — the queue's
//     high-water mark respects its bound, and the p99 of ACCEPTED requests
//     stays under the deadline (graceful, never unbounded, degradation);
//   - the low-fault regime answers every request (zero failed) with decision
//     values bit-identical to the fault-free run — replica failover changes
//     who answered, never the answer;
//   - with degrade_enabled, the same 2x overload engages precision shedding
//     (degraded batches answered from the f32 store) and each query class
//     keeps >= 99% sign agreement with the exact model.
//
// Usage: bench_serving [--quick] [--assert] [--requests=N] [--scale=S]
//                      [--trace-out=T] [--metrics-out=M]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "data/synthetic.hpp"
#include "serve/serving.hpp"

namespace {

struct CurveRow {
  double fraction = 0.0;
  double offered_qps = 0.0;
  svmserve::ServeReport report;
};

struct RegimeRow {
  std::string name;
  std::size_t fault_events = 0;
  bool bit_identical = true;
  svmserve::ServeReport report;
};

/// Precision-shedding regime: the 2x-overload run with degrade_enabled plus
/// the per-query-class sign-agreement measurement against the exact model.
struct DegradedRow {
  svmserve::ServeReport report;
  std::uint64_t degraded_requests = 0;
  double agreement_pos = 0.0;  ///< +1-class sign agreement vs exact f64
  double agreement_neg = 0.0;  ///< -1-class sign agreement vs exact f64
};

void write_json(const std::vector<CurveRow>& curve, const std::vector<RegimeRow>& regimes,
                const DegradedRow& degraded, double saturation_qps,
                const svmserve::ServeOptions& opt, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serving\",\n  \"shards\": %d,\n  \"replicas\": %d,\n"
               "  \"queue_capacity\": %zu,\n  \"deadline_s\": %.3f,\n"
               "  \"saturation_per_s\": %.1f,\n",
               opt.shards, opt.replicas, opt.queue_capacity, opt.deadline_s, saturation_qps);
  std::fprintf(f, "  \"curve\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const svmserve::ServeReport& r = curve[i].report;
    std::fprintf(f,
                 "    {\n"
                 "      \"saturation_fraction\": %.2f,\n"
                 "      \"offered_per_s\": %.1f,\n"
                 "      \"accepted_per_s\": %.1f,\n"
                 "      \"completed_per_s\": %.1f,\n"
                 "      \"latency_p50_s\": %.6f,\n"
                 "      \"latency_p99_s\": %.6f,\n"
                 "      \"latency_p999_s\": %.6f,\n"
                 "      \"shed\": %llu,\n"
                 "      \"expired\": %llu,\n"
                 "      \"requests_lost\": %llu,\n"
                 "      \"max_queue_depth\": %zu\n"
                 "    }%s\n",
                 curve[i].fraction, curve[i].offered_qps, r.accepted_qps, r.completed_qps,
                 r.latency_p50_s, r.latency_p99_s, r.latency_p999_s,
                 static_cast<unsigned long long>(r.shed_queue_full + r.shed_predicted_wait),
                 static_cast<unsigned long long>(r.expired),
                 static_cast<unsigned long long>(r.failed), r.max_queue_depth,
                 i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"regimes\": [\n");
  for (std::size_t i = 0; i < regimes.size(); ++i) {
    const svmserve::ServeReport& r = regimes[i].report;
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"fault_events\": %zu,\n"
                 "      \"completed\": %llu,\n"
                 "      \"requests_lost\": %llu,\n"
                 "      \"retries\": %llu,\n"
                 "      \"hedges\": %llu,\n"
                 "      \"failovers\": %llu,\n"
                 "      \"quarantines\": %llu,\n"
                 "      \"ranks_lost\": %zu,\n"
                 "      \"latency_p99_s\": %.6f,\n"
                 "      \"bit_identical\": %d\n"
                 "    }%s\n",
                 regimes[i].name.c_str(), regimes[i].fault_events,
                 static_cast<unsigned long long>(r.completed),
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.retries),
                 static_cast<unsigned long long>(r.hedges),
                 static_cast<unsigned long long>(r.failovers),
                 static_cast<unsigned long long>(r.quarantines), r.ranks_lost.size(),
                 r.latency_p99_s, regimes[i].bit_identical ? 1 : 0,
                 i + 1 < regimes.size() ? "," : "");
  }
  const svmserve::ServeReport& d = degraded.report;
  std::fprintf(f,
               "  ],\n  \"degraded\": {\n"
               "    \"saturation_fraction\": 2.0,\n"
               "    \"degraded_batches\": %llu,\n"
               "    \"degraded_requests\": %llu,\n"
               "    \"completed\": %llu,\n"
               "    \"requests_lost\": %llu,\n"
               "    \"max_queue_depth\": %zu,\n"
               "    \"latency_p99_s\": %.6f,\n"
               "    \"agreement_pos\": %.6f,\n"
               "    \"agreement_neg\": %.6f\n"
               "  }\n}\n",
               static_cast<unsigned long long>(d.degraded_batches),
               static_cast<unsigned long long>(degraded.degraded_requests),
               static_cast<unsigned long long>(d.completed),
               static_cast<unsigned long long>(d.failed), d.max_queue_depth, d.latency_p99_s,
               degraded.agreement_pos, degraded.agreement_neg);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

bool all_terminal(const svmserve::ServeReport& report) {
  for (const svmserve::RequestRecord& rec : report.requests)
    if (rec.status == svmserve::RequestStatus::pending) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [flags, args] = svmbench::parse_args_with(argc, argv, {"requests", "assert!"});
  const svmutil::ObsPaths obs{args.trace_out, args.metrics_out};
  const bool quick = args.quick;
  const bool strict = flags.get_bool("assert");
  const double scale = flags.get_double("scale", quick ? 0.5 : 1.0);
  const std::size_t requests = static_cast<std::size_t>(
      flags.get_int("requests", quick ? 2048 : 4096));

  svmbench::print_banner(
      "serving - fault-tolerant prediction service under load and faults",
      "sharded+replicated svmserve workers; saturation curve, overload shedding "
      "and replica failover with bit-identical answers");

  // --- model + queries -------------------------------------------------------
  const svmdata::Dataset train_data =
      svmdata::synthetic::gaussian_blobs({.n = static_cast<std::size_t>(240 * scale),
                                          .d = 8,
                                          .separation = 2.0,
                                          .label_noise = 0.02,
                                          .seed = 41});
  svmcore::TrainOptions train_options;
  train_options.num_ranks = 2;
  const svmcore::TrainResult trained =
      svmcore::train(train_data, svmcore::SolverParams{}, train_options);
  const svmcore::SvmModel& model = trained.model;
  const svmdata::Dataset query_data =
      svmdata::synthetic::gaussian_blobs({.n = static_cast<std::size_t>(160 * scale),
                                          .d = 8,
                                          .separation = 2.0,
                                          .label_noise = 0.02,
                                          .seed = 41,
                                          .draw = 1});
  const svmdata::CsrMatrix& queries = query_data.X;
  std::printf("model: %zu support vectors; %zu query rows\n\n",
              model.num_support_vectors(), queries.rows());

  svmserve::ServeOptions opt;
  opt.shards = 2;
  opt.replicas = 2;
  opt.queue_capacity = 512;
  opt.batch_max = 8;
  opt.deadline_s = 0.2;
  opt.dispatch_timeout_s = 0.5;
  // A 50us modeled per-message latency makes the per-batch service time
  // mostly deterministic, so the measured saturation point (and the curve
  // shape around it) is stable against host scheduling jitter; the 512-deep
  // queue rides out multi-millisecond hiccups below saturation while still
  // filling (and shedding) within a fraction of a run at 2x.
  opt.net_model = svmmpi::NetModel{50e-6, 0.0, 5.0};

  bool ok = true;
  const auto gate = [&](bool pass, const char* what) {
    if (!pass) {
      std::printf("GATE %s: %s\n", strict ? "FAILED" : "failed (advisory)", what);
      ok = false;
    }
  };

  // --- saturation measurement ------------------------------------------------
  // An open-loop burst probe: offer far beyond any plausible capacity so the
  // queue fills immediately and admission sheds the excess — the completion
  // rate of what WAS admitted is the service's queue-limited drain rate,
  // i.e. the saturation throughput under exactly the client configuration
  // (one open-loop thread) the curve below uses. Closed-loop clients would
  // need enough threads to keep the batcher full, and on a small host the
  // client threads themselves then depress the measurement.
  svmserve::LoadSpec sat_load;
  sat_load.mode = svmserve::ArrivalMode::open_poisson;
  sat_load.requests = requests;
  sat_load.offered_qps = 5e6;
  sat_load.seed = 21;
  const svmserve::ServeReport sat = svmserve::run_serving(model, queries, sat_load, opt);
  const double saturation_qps = sat.completed_qps;
  std::printf("saturation (open-loop burst probe): %.0f req/s\n\n", saturation_qps);
  gate(sat.completed > 0 && sat.failed == 0, "saturation probe answered its admitted load");

  // --- open-loop saturation curve -------------------------------------------
  const std::vector<double> fractions =
      quick ? std::vector<double>{0.7, 2.0} : std::vector<double>{0.3, 0.5, 0.7, 1.0, 1.5, 2.0};
  svmutil::TextTable curve_table({"x sat", "offered/s", "accepted/s", "done/s", "p50 ms",
                                  "p99 ms", "p99.9 ms", "shed", "lost", "max q"});
  std::vector<CurveRow> curve;
  for (const double f : fractions) {
    svmserve::LoadSpec load;
    load.mode = svmserve::ArrivalMode::open_poisson;
    load.requests = requests;
    load.offered_qps = f * saturation_qps;
    load.seed = 22;
    const svmserve::ServeReport r = svmserve::run_serving(model, queries, load, opt);
    const std::uint64_t shed = r.shed_queue_full + r.shed_predicted_wait;
    gate(all_terminal(r), "open-loop run left no request pending");
    gate(r.max_queue_depth <= opt.queue_capacity, "queue high-water mark within bound");
    if (f <= 0.7) {
      gate(shed == 0, "no shedding below saturation");
      gate(r.latency_p99_s < opt.deadline_s, "p99 under deadline below saturation");
    }
    if (f >= 2.0) {
      gate(shed > 0, "overload sheds at admission");
      gate(r.latency_p99_s < opt.deadline_s, "accepted-p99 bounded at 2x overload");
    }
    curve_table.add_row(
        {svmutil::TextTable::num(f, 2), svmutil::TextTable::num(load.offered_qps, 0),
         svmutil::TextTable::num(r.accepted_qps, 0), svmutil::TextTable::num(r.completed_qps, 0),
         svmutil::TextTable::num(r.latency_p50_s * 1e3, 2),
         svmutil::TextTable::num(r.latency_p99_s * 1e3, 2),
         svmutil::TextTable::num(r.latency_p999_s * 1e3, 2),
         svmutil::TextTable::integer(static_cast<long long>(shed)),
         svmutil::TextTable::integer(static_cast<long long>(r.failed)),
         svmutil::TextTable::integer(static_cast<long long>(r.max_queue_depth))});
    curve.push_back({f, load.offered_qps, std::move(r)});
  }
  curve_table.print();
  std::printf("\n");

  // --- fault regimes ---------------------------------------------------------
  // Closed loop: the completion set is deterministic, so the low regime can
  // be compared request-by-request against the fault-free run.
  svmserve::LoadSpec fault_load;
  fault_load.mode = svmserve::ArrivalMode::closed_loop;
  fault_load.requests = quick ? 96 : 192;
  fault_load.clients = 2;
  fault_load.seed = 23;
  svmserve::ServeOptions fault_opt = opt;
  fault_opt.deadline_s = 5.0;           // faults cost retries, not expiries
  fault_opt.dispatch_timeout_s = 0.05;  // detect drops/delays quickly

  struct Regime {
    const char* name;
    svmmpi::FaultPlan plan;
  };
  // Worker op horizon: 1 ready send, then 2 ops (recv, send) per served
  // batch. Op 3 is a worker's FIRST reply send — guaranteed to fire, since
  // the dispatcher always probes an unsampled replica before settling on the
  // EWMA winner — so die(rank, 3) kills the rank mid-batch with requests in
  // flight. Rank 1 = replica 0 of shard 0, rank 2 = replica 0 of shard 1,
  // rank 4 = replica 1 of shard 1.
  std::vector<Regime> regimes;
  regimes.push_back({"none", svmmpi::FaultPlan{}});
  regimes.push_back({"low", svmmpi::FaultPlan{}.die(1, 3)});
  regimes.push_back({"high", svmmpi::FaultPlan{}
                                 .die(1, 3)
                                 .drop(2, 3)
                                 .delay(4, 2, 0.2)});

  svmutil::TextTable fault_table({"regime", "faults", "done", "lost", "retries", "hedges",
                                  "failovers", "quarantined", "ranks lost", "p99 ms",
                                  "bit-identical"});
  std::vector<RegimeRow> rows;
  for (Regime& regime : regimes) {
    svmserve::ServeOptions run_opt = fault_opt;
    run_opt.fault_plan = &regime.plan;
    if (std::string(regime.name) == "low") {
      // The low regime carries the observability artifacts.
      run_opt.trace_path = obs.trace_out;
      run_opt.metrics_path = obs.metrics_out;
    }
    const svmserve::ServeReport r = svmserve::run_serving(model, queries, fault_load, run_opt);

    bool identical = true;
    if (!rows.empty()) {
      const svmserve::ServeReport& clean = rows[0].report;
      for (std::size_t i = 0; i < fault_load.requests; ++i) {
        if (r.requests[i].status != svmserve::RequestStatus::completed ||
            r.requests[i].decision != clean.requests[i].decision) {
          identical = false;
          break;
        }
      }
    }
    gate(all_terminal(r), "fault regime left no request pending");
    if (std::string(regime.name) == "none")
      gate(r.completed == fault_load.requests && r.failed == 0,
           "fault-free regime completed everything");
    if (std::string(regime.name) == "low") {
      gate(r.failed == 0, "low-fault regime: zero failed responses");
      gate(r.ranks_lost.size() == 1, "low-fault regime: exactly one rank died");
      gate(identical, "low-fault regime: answers bit-identical to fault-free run");
    }
    fault_table.add_row(
        {regime.name,
         svmutil::TextTable::integer(static_cast<long long>(regime.plan.events().size())),
         svmutil::TextTable::integer(static_cast<long long>(r.completed)),
         svmutil::TextTable::integer(static_cast<long long>(r.failed)),
         svmutil::TextTable::integer(static_cast<long long>(r.retries)),
         svmutil::TextTable::integer(static_cast<long long>(r.hedges)),
         svmutil::TextTable::integer(static_cast<long long>(r.failovers)),
         svmutil::TextTable::integer(static_cast<long long>(r.quarantines)),
         svmutil::TextTable::integer(static_cast<long long>(r.ranks_lost.size())),
         svmutil::TextTable::num(r.latency_p99_s * 1e3, 2), identical ? "yes" : "NO"});
    rows.push_back({regime.name, regime.plan.events().size(), identical, std::move(r)});
  }
  fault_table.print();

  const RegimeRow& low = rows[1];
  std::printf("\nlow-fault regime: %llu failed response(s), answers %s\n",
              static_cast<unsigned long long>(low.report.failed),
              low.bit_identical ? "bit-identical to the fault-free run" : "DIVERGED");

  // --- degraded regime (precision shedding) ---------------------------------
  // The same 2x-overload open-loop offer with degrade_enabled: batches formed
  // while the queue sits past half its capacity (kDegradeQueueFrac) are scored by
  // the reduced-precision (f32) engine instead of being shed outright. The
  // regime must actually exercise the dark path, keep the overload latency
  // contract, and hold per-query-class sign agreement with the exact model:
  // shedding precision may dither near-zero margins, never flip a class's
  // answers wholesale.
  svmserve::ServeOptions degrade_opt = opt;
  degrade_opt.degrade_enabled = true;
  svmserve::LoadSpec degrade_load;
  degrade_load.mode = svmserve::ArrivalMode::open_poisson;
  degrade_load.requests = requests;
  degrade_load.offered_qps = 2.0 * saturation_qps;
  degrade_load.seed = 24;
  const svmserve::ServeReport deg =
      svmserve::run_serving(model, queries, degrade_load, degrade_opt);

  DegradedRow degraded;
  std::size_t class_total[2] = {0, 0};
  std::size_t class_match[2] = {0, 0};
  for (const svmserve::RequestRecord& rec : deg.requests) {
    if (rec.status != svmserve::RequestStatus::completed) continue;
    if (rec.degraded) ++degraded.degraded_requests;
    const std::size_t cls = query_data.y[rec.query_row] > 0 ? 0 : 1;
    const double exact = model.decision_value(queries.row(rec.query_row));
    ++class_total[cls];
    if ((rec.decision >= 0.0) == (exact >= 0.0)) ++class_match[cls];
  }
  degraded.agreement_pos =
      class_total[0] > 0 ? static_cast<double>(class_match[0]) / class_total[0] : 0.0;
  degraded.agreement_neg =
      class_total[1] > 0 ? static_cast<double>(class_match[1]) / class_total[1] : 0.0;

  gate(all_terminal(deg), "degraded regime left no request pending");
  gate(deg.max_queue_depth <= degrade_opt.queue_capacity,
       "degraded regime: queue high-water mark within bound");
  gate(deg.degraded_batches > 0, "precision shedding engaged at 2x overload");
  gate(deg.latency_p99_s < degrade_opt.deadline_s, "degraded regime: accepted-p99 under deadline");
  gate(class_total[0] > 0 && class_total[1] > 0,
       "degraded regime measured both query classes");
  gate(degraded.agreement_pos >= 0.99,
       "degraded regime: +1-class sign agreement >= 99% vs exact model");
  gate(degraded.agreement_neg >= 0.99,
       "degraded regime: -1-class sign agreement >= 99% vs exact model");

  svmutil::TextTable degrade_table({"x sat", "done", "degraded batches", "degraded reqs",
                                    "p99 ms", "+1 agree %", "-1 agree %"});
  degrade_table.add_row(
      {svmutil::TextTable::num(2.0, 1),
       svmutil::TextTable::integer(static_cast<long long>(deg.completed)),
       svmutil::TextTable::integer(static_cast<long long>(deg.degraded_batches)),
       svmutil::TextTable::integer(static_cast<long long>(degraded.degraded_requests)),
       svmutil::TextTable::num(deg.latency_p99_s * 1e3, 2),
       svmutil::TextTable::num(degraded.agreement_pos * 100.0, 2),
       svmutil::TextTable::num(degraded.agreement_neg * 100.0, 2)});
  std::printf("\ndegraded regime (precision shedding at 2x saturation):\n");
  degrade_table.print();
  degraded.report = deg;

  write_json(curve, rows, degraded, saturation_qps, opt, "BENCH_serving.json");
  if (!strict && !ok) std::printf("(advisory gates failed; rerun with --assert to enforce)\n");
  return strict && !ok ? 1 : 0;
}
