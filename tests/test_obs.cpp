// The svmobs observability subsystem: trace-recorder semantics (disabled
// no-op, bounded drop-oldest rings, concurrent emission, span repair),
// metrics-registry semantics (canonical keys, aggregate merge rules), and
// the end-to-end contract — a traced p=4 training run must export a valid
// Chrome trace covering all four instrumentation layers plus counter
// tracks, a crash mid-solve must still flush a well-formed partial trace,
// and tracing must not change the trained model by a single bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "mpisim/fault.hpp"
#include "obs/analyze.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/validate.hpp"

namespace {

using svmcore::Heuristic;
using svmcore::RecoveryOptions;
using svmcore::SolverParams;
using svmcore::TrainOptions;
using svmcore::TrainResult;
using svmobs::MetricsRegistry;
using svmobs::ValidationResult;

/// Every test that records must leave the global recorder disabled+empty.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    svmobs::trace_disable();
    svmobs::trace_reset();
  }
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- trace recorder --------------------------------------------------------

TEST_F(ObsTest, DisabledRecorderEmitsNothing) {
  ASSERT_FALSE(svmobs::trace_enabled());
  svmobs::trace_begin("never", "test");
  svmobs::trace_counter("never", 1.0);
  svmobs::trace_end("never", "test");
  const ValidationResult result = svmobs::validate_trace(svmobs::trace_json());
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.events, 0u);
  EXPECT_EQ(svmobs::trace_dropped_events(), 0u);
}

TEST_F(ObsTest, RecordsBalancedSpansAndCounters) {
  svmobs::trace_enable();
  {
    svmobs::TraceSpan outer("outer", "test");
    svmobs::trace_counter("gauge", 42.0);
    svmobs::TraceSpan inner("inner", "test");
  }
  svmobs::trace_instant("marker", "test");
  svmobs::trace_disable();

  const ValidationResult result =
      svmobs::validate_trace(svmobs::trace_json(), {"outer", "inner"}, 1);
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors.front());
  EXPECT_EQ(result.spans, 2u);
  EXPECT_EQ(result.counter_tracks, 1u);
}

TEST_F(ObsTest, OverflowDropsOldestKeepsNewestAndStaysWellFormed) {
  constexpr std::size_t kCapacity = 64;
  constexpr std::uint64_t kEmitted = 1000;
  svmobs::trace_enable(kCapacity);
  for (std::uint64_t i = 0; i < kEmitted; ++i)
    svmobs::trace_counter("seq", static_cast<double>(i));
  svmobs::trace_disable();

  EXPECT_GE(svmobs::trace_dropped_events(), kEmitted - kCapacity);
  const std::string json = svmobs::trace_json();
  const ValidationResult result = svmobs::validate_trace(json, {}, 1);
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors.front());
  EXPECT_LE(result.events, kCapacity);
  EXPECT_GT(result.events, 0u);

  // Drop-oldest: the newest sample (kEmitted - 1) must have survived, and
  // every surviving value must come from the tail of the emission sequence.
  const svmobs::JsonValue doc = svmobs::parse_json(json);
  const svmobs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  double max_value = -1.0;
  double min_value = 1e300;
  for (const svmobs::JsonValue& event : events->array) {
    const svmobs::JsonValue* ph = event.find("ph");
    if (ph == nullptr || ph->string != "C") continue;  // skip metadata events
    const svmobs::JsonValue* args = event.find("args");
    ASSERT_NE(args, nullptr);
    const svmobs::JsonValue* value = args->find("value");
    ASSERT_NE(value, nullptr);
    max_value = std::max(max_value, value->number);
    min_value = std::min(min_value, value->number);
  }
  EXPECT_EQ(max_value, static_cast<double>(kEmitted - 1));
  EXPECT_GE(min_value, static_cast<double>(kEmitted - kCapacity));
}

TEST_F(ObsTest, SpanRepairBalancesTruncatedSpans) {
  svmobs::trace_enable();
  // An unclosed begin (crash shape) and an orphan end (eviction shape).
  svmobs::trace_begin("unclosed", "test");
  svmobs::trace_counter("tick", 1.0);
  svmobs::trace_end("orphan", "test");
  svmobs::trace_disable();

  const ValidationResult result = svmobs::validate_trace(svmobs::trace_json());
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors.front());
  EXPECT_EQ(result.spans, 2u);  // both repaired into balanced pairs
}

TEST_F(ObsTest, ConcurrentEmissionFromEightRanksExportsValidTrace) {
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 2000;
  svmobs::trace_enable();

  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int rank = 0; rank < kThreads; ++rank) {
    threads.emplace_back([rank, &ready] {
      svmobs::trace_set_thread_rank(rank);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();  // maximise overlap
      for (int i = 0; i < kEventsPerThread; ++i) {
        svmobs::TraceSpan span("work", "test");
        svmobs::trace_counter("progress", static_cast<double>(i));
        if (i % 100 == 0) svmobs::trace_instant("milestone", "test");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  svmobs::trace_disable();

  const ValidationResult result = svmobs::validate_trace(svmobs::trace_json(), {"work"}, 1);
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors.front());
  EXPECT_EQ(result.tracks, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(result.spans, static_cast<std::size_t>(kThreads) * kEventsPerThread);
}

// --- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, CanonicalKeysAndStableHandles) {
  MetricsRegistry registry;
  svmobs::Counter& a = registry.counter("ops", {{"kind", "send"}});
  svmobs::Counter& b = registry.counter("ops", {{"kind", "send"}});
  EXPECT_EQ(&a, &b);  // same labelled series -> same handle
  a.add(3);
  b.add(2);
  EXPECT_EQ(a.value(), 5u);

  registry.gauge("depth").set(7.0);
  registry.histogram("lat_s", {0.1, 1.0}).observe(0.5);
  EXPECT_EQ(MetricsRegistry::canonical_key("ops", {{"b", "2"}, {"a", "1"}}),
            "ops{a=1,b=2}");  // labels sorted
  EXPECT_EQ(registry.counters().size(), 1u);
  EXPECT_EQ(registry.gauges().size(), 1u);
  EXPECT_EQ(registry.histograms().size(), 1u);
}

TEST(MetricsRegistry, ValueReadsCountersAndGaugesAndZeroWhenAbsent) {
  MetricsRegistry registry;
  registry.counter("recon.ring_steps").add(6);
  registry.gauge("recon.comm_s").set(0.25);
  registry.counter("ops", {{"kind", "send"}}).add(2);
  const MetricsRegistry& view = registry;
  EXPECT_EQ(view.value("recon.ring_steps"), 6.0);
  EXPECT_EQ(view.value("recon.comm_s"), 0.25);
  EXPECT_EQ(view.value("ops{kind=send}"), 2.0);
  EXPECT_EQ(view.value("recon.absent"), 0.0);
  EXPECT_EQ(view.counters().size(), 2u);  // a lookup registers nothing
  EXPECT_EQ(view.gauges().size(), 1u);
}

TEST(MetricsRegistry, AggregateSumsCountersMaxesGaugesMergesHistograms) {
  MetricsRegistry rank0;
  rank0.counter("iters").add(10);
  rank0.gauge("wall_s").set(1.5);
  rank0.histogram("lat", {1.0}).observe(0.5);

  MetricsRegistry rank1;
  rank1.counter("iters").add(32);
  rank1.gauge("wall_s").set(2.5);
  rank1.histogram("lat", {1.0}).observe(3.0);

  MetricsRegistry aggregate;
  aggregate.aggregate_from(rank0);
  aggregate.aggregate_from(rank1);
  EXPECT_EQ(aggregate.counter("iters").value(), 42u);
  EXPECT_EQ(aggregate.gauge("wall_s").value(), 2.5);
  const svmobs::Histogram& lat = aggregate.histogram("lat", {1.0});
  EXPECT_EQ(lat.count(), 2u);
}

TEST(MetricsRegistry, RunReportJsonValidates) {
  svmobs::RunReport report;
  report.name = "unit";
  report.info.emplace_back("ranks", "2");
  for (int rank = 0; rank < 2; ++rank) {
    MetricsRegistry registry;
    registry.counter("iters").add(10 * (rank + 1));
    registry.gauge("wall_s").set(0.25 * (rank + 1));
    registry.histogram("lat", {0.1, 1.0}).observe(0.2);
    report.ranks.push_back(std::move(registry));
  }
  report.finalize_aggregate();
  EXPECT_EQ(report.aggregate.counter("iters").value(), 30u);

  const ValidationResult result = svmobs::validate_metrics(svmobs::reports_json({report}));
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors.front());
  EXPECT_EQ(result.runs, 1u);
}

// --- end-to-end through the trainer ----------------------------------------

svmdata::Dataset obs_dataset() {
  return svmdata::synthetic::gaussian_blobs(
      {.n = 240, .d = 8, .separation = 1.7, .label_noise = 0.05, .seed = 7});
}

SolverParams obs_params() {
  SolverParams p;
  p.C = 4.0;
  p.eps = 1e-3;
  p.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(4.0);
  return p;
}

TEST_F(ObsTest, TracedTrainingCoversAllFourLayersAndWritesReport) {
  const std::string trace_path = temp_path("svmobs_test_trace.json");
  const std::string metrics_path = temp_path("svmobs_test_metrics.json");
  TrainOptions options;
  options.num_ranks = 4;
  options.heuristic = Heuristic::parse("Multi5pc");  // shrinks -> ring runs
  options.trace_active_interval = 25;
  options.trace_path = trace_path;
  options.metrics_path = metrics_path;

  const TrainResult result = svmcore::train(obs_dataset(), obs_params(), options);
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.active_trace.empty());  // field still populated
  ASSERT_EQ(result.rank_metrics.size(), 4u);
  EXPECT_EQ(result.metrics.counters().at("solver.iterations").value(),
            4 * result.iterations);  // aggregate sums the rank-invariant count

  // Layer coverage: mpisim collective, kernel-engine batch, solver phase,
  // reconstruction ring step — plus the active-set and gap counter tracks.
  const ValidationResult trace = svmobs::validate_trace(
      svmobs::read_file(trace_path),
      {"allreduce", "engine_pair_batch", "solve", "phase", "smo_batch", "ring_step",
       "reconstruction"},
      2);
  EXPECT_TRUE(trace.ok()) << (trace.errors.empty() ? "" : trace.errors.front());
  EXPECT_GE(trace.tracks, 4u);  // one track per rank (+ driver if it emitted)

  const ValidationResult metrics = svmobs::validate_metrics(svmobs::read_file(metrics_path));
  EXPECT_TRUE(metrics.ok()) << (metrics.errors.empty() ? "" : metrics.errors.front());
  EXPECT_EQ(metrics.runs, 1u);

  std::filesystem::remove(trace_path);
  std::filesystem::remove(metrics_path);
}

TEST_F(ObsTest, CrashMidSolveStillFlushesWellFormedPartialTrace) {
  const std::string trace_path = temp_path("svmobs_test_crash_trace.json");
  TrainOptions options;
  options.num_ranks = 4;
  options.heuristic = Heuristic::parse("Multi5pc");
  options.trace_path = trace_path;

  // Crash rank 1 mid-solve with recovery disabled: train_with_recovery
  // rethrows, but the trace session must still flush a balanced trace of
  // everything up to the failure.
  RecoveryOptions recovery;
  recovery.fault_plan = svmmpi::FaultPlan{}.crash(1, 400);
  recovery.max_restarts = 0;
  EXPECT_ANY_THROW(
      (void)svmcore::train_with_recovery(obs_dataset(), obs_params(), options, recovery));

  const ValidationResult result =
      svmobs::validate_trace(svmobs::read_file(trace_path), {"rank_main", "solve"});
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors.front());
  EXPECT_GT(result.events, 0u);
  std::filesystem::remove(trace_path);
}

// --- flow correlation & causal analysis ------------------------------------

TEST(MetricsRegistry, HistogramPercentilesInterpolateAndSerialize) {
  svmobs::Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 8; ++i) h.observe(0.5);   // bucket (0,1]
  for (int i = 0; i < 2; ++i) h.observe(3.0);   // bucket (2,4]
  // p50 rank = 5 of 10, 5/8 through the first bucket -> 0.625.
  EXPECT_NEAR(h.percentile(50.0), 0.625, 1e-12);
  // p95 rank = 9.5 of 10, 1.5/2 through (2,4] -> 3.5.
  EXPECT_NEAR(h.percentile(95.0), 3.5, 1e-12);
  h.observe(100.0);  // overflow bucket reports the last finite bound
  EXPECT_EQ(h.percentile(100.0), 4.0);

  MetricsRegistry registry;
  registry.histogram("lat", {1.0}).observe(0.5);
  const std::string json = registry.json();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(TraceAnalyze, SyntheticTraceAttributesRoundExactly) {
  // Two ranks, one round of 100ms (rank 0) / 60ms (rank 1). Rank 1 computes
  // 50ms then sends (flow 7); rank 0 computes 20ms then blocks in a recv
  // until 52ms, with the message ready at 50ms. Expected per-rank split:
  //   rank 0: wait 32ms = 30ms blocked (on rank 1) + 2ms comm; compute 68ms
  //   rank 1: compute 60ms, imbalance 40ms (round wall is 100ms)
  const std::string trace = R"({
    "otherData": {"schema": "svmobs.trace.v1"},
    "traceEvents": [
      {"name":"round","cat":"pbm","ph":"B","pid":0,"tid":0,"ts":0},
      {"name":"round_seq","ph":"C","pid":0,"tid":0,"ts":0,"args":{"value":0}},
      {"name":"recv","cat":"net","ph":"B","pid":0,"tid":0,"ts":20000},
      {"name":"msg","cat":"flow","ph":"f","bp":"e","pid":0,"tid":0,"ts":51000,"id":7},
      {"name":"recv","cat":"net","ph":"E","pid":0,"tid":0,"ts":52000},
      {"name":"round","cat":"pbm","ph":"E","pid":0,"tid":0,"ts":100000},
      {"name":"round","cat":"pbm","ph":"B","pid":1,"tid":1,"ts":0},
      {"name":"round_seq","ph":"C","pid":1,"tid":1,"ts":0,"args":{"value":0}},
      {"name":"msg","cat":"flow","ph":"s","pid":1,"tid":1,"ts":50000,"id":7},
      {"name":"round","cat":"pbm","ph":"E","pid":1,"tid":1,"ts":60000}
    ]})";

  const svmobs::TraceAnalysis analysis = svmobs::analyze_trace(trace);
  ASSERT_TRUE(analysis.ok()) << (analysis.errors.empty() ? "" : analysis.errors.front());
  ASSERT_EQ(analysis.rounds.size(), 1u);
  const svmobs::RoundAnalysis& round = analysis.rounds.front();
  EXPECT_EQ(round.seq, 0u);
  EXPECT_EQ(round.category, "pbm");
  EXPECT_NEAR(round.wall_s, 0.100, 1e-9);
  EXPECT_NEAR(round.compute_s, 0.064, 1e-9);    // mean(68ms, 60ms)
  EXPECT_NEAR(round.comm_s, 0.001, 1e-9);       // mean(2ms, 0)
  EXPECT_NEAR(round.blocked_s, 0.015, 1e-9);    // mean(30ms, 0)
  EXPECT_NEAR(round.imbalance_s, 0.020, 1e-9);  // mean(0, 40ms)
  EXPECT_NEAR(round.closure, 1.0, 1e-9);        // exact closure by construction
  EXPECT_EQ(round.straggler, 1);

  ASSERT_EQ(round.ranks.size(), 2u);
  EXPECT_NEAR(round.ranks[0].blocked_s, 0.030, 1e-9);
  EXPECT_EQ(round.ranks[0].blocked_on, 1);
  EXPECT_NEAR(round.ranks[1].imbalance_s, 0.040, 1e-9);

  // Critical path: rank 1 computes [0,50ms], hands off to rank 0 [50,100ms].
  ASSERT_EQ(round.critical_path.size(), 2u);
  EXPECT_EQ(round.critical_path[0].rank, 1);
  EXPECT_NEAR(round.critical_path[0].to_s, 0.050, 1e-9);
  EXPECT_EQ(round.critical_path[1].rank, 0);
  EXPECT_NEAR(round.critical_path[1].from_s, 0.050, 1e-9);

  ASSERT_EQ(analysis.stragglers.size(), 1u);
  EXPECT_EQ(analysis.stragglers.front().rank, 1);
  EXPECT_NEAR(analysis.stragglers.front().blocked_on_s, 0.030, 1e-9);
  EXPECT_EQ(analysis.flow_edges, 1u);
}

TEST_F(ObsTest, FlowIdsStayUniqueAcrossShrinkRecovery) {
  const std::string trace_path = temp_path("svmobs_test_flow_trace.json");
  SolverParams params = obs_params();
  params.algo = svmcore::SolverAlgo::pbm;
  TrainOptions options;
  options.num_ranks = 4;
  options.net_model.timeout_s = 5.0;
  options.trace_path = trace_path;

  // Kill rank 2 between outer rounds: the shrunk world re-runs collectives
  // and re-sends messages, so flow ids must keep advancing, never repeat.
  svmcore::RecoveryOptions recovery;
  recovery.policy = svmcore::RecoveryPolicy::shrink_world;
  recovery.checkpoint_interval = 1;
  recovery.fault_plan = svmmpi::FaultPlan{}.die(2, 9);
  svmcore::RecoveryReport report;
  const TrainResult result =
      svmcore::train_with_recovery(obs_dataset(), params, options, recovery, &report);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(report.shrinks, 1);

  // Lenient validation still enforces flow-id uniqueness (duplicate starts
  // are an error regardless of strictness); the killed rank legitimately
  // leaves dangling flows, so strict is NOT expected to pass here.
  const ValidationResult lenient = svmobs::validate_trace(svmobs::read_file(trace_path));
  EXPECT_TRUE(lenient.ok()) << (lenient.errors.empty() ? "" : lenient.errors.front());
  EXPECT_GT(lenient.flows, 0u);
  std::filesystem::remove(trace_path);
}

TEST_F(ObsTest, InjectedDelayRankIsTopStragglerAtEightRanks) {
  const std::string trace_path = temp_path("svmobs_test_straggler_trace.json");
  SolverParams params = obs_params();
  params.algo = svmcore::SolverAlgo::pbm;
  TrainOptions options;
  options.num_ranks = 8;
  options.trace_path = trace_path;

  // 5ms delay on every collective rank 3 enters (one consumable event per
  // op): rank 3 always arrives last, so everyone else blocks on it.
  svmcore::RecoveryOptions recovery;
  for (std::uint64_t op = 1; op <= 400; ++op)
    recovery.fault_plan.delay(3, op, 0.005, svmmpi::FaultSite::collective);
  const TrainResult result =
      svmcore::train_with_recovery(obs_dataset(), params, options, recovery);
  EXPECT_TRUE(result.converged);

  const svmobs::TraceAnalysis analysis =
      svmobs::analyze_trace(svmobs::read_file(trace_path));
  ASSERT_TRUE(analysis.ok()) << (analysis.errors.empty() ? "" : analysis.errors.front());
  EXPECT_FALSE(analysis.rounds.empty());
  EXPECT_GT(analysis.flow_edges, 0u);
  ASSERT_FALSE(analysis.stragglers.empty());
  EXPECT_EQ(analysis.stragglers.front().rank, 3);
  EXPECT_GT(analysis.stragglers.front().blocked_on_s, 0.0);

  // Attribution closes on every round: compute+comm+blocked+imbalance must
  // account for the full round wall within 2%.
  for (const svmobs::RoundAnalysis& round : analysis.rounds)
    EXPECT_NEAR(round.closure, 1.0, 0.02) << "round " << round.seq;
  std::filesystem::remove(trace_path);
}

TEST_F(ObsTest, TracingProducesBitIdenticalModels) {
  const std::string trace_path = temp_path("svmobs_test_parity_trace.json");
  const svmdata::Dataset train = obs_dataset();
  TrainOptions plain;
  plain.num_ranks = 4;
  plain.heuristic = Heuristic::parse("Multi5pc");
  TrainOptions traced = plain;
  traced.trace_path = trace_path;

  const TrainResult a = svmcore::train(train, obs_params(), plain);
  const TrainResult b = svmcore::train(train, obs_params(), traced);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.beta, b.beta);
  ASSERT_EQ(a.model.num_support_vectors(), b.model.num_support_vectors());
  for (std::size_t j = 0; j < a.model.num_support_vectors(); ++j)
    EXPECT_EQ(a.model.coefficients()[j], b.model.coefficients()[j]) << "sv " << j;
  std::filesystem::remove(trace_path);
}

}  // namespace
