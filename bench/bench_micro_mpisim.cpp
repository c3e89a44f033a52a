// The message-passing substrate at paper scale: the alpha-beta model's
// predictions for the operations analysed in §III (p=4096, InfiniBand FDR).
// The in-process transport's measured per-operation latencies come from
// perfbench's persistent-world replays instead: mpisim.allreduce_us,
// mpisim.bcast_us, mpisim.allgatherv_us and mpisim.roundtrip_us
// (perfbench/METRICS.md).
//
// With --assert-obs-overhead the binary instead runs the tracing-overhead
// guard: an SMO-shaped gamma-update hot loop with the solver's per-iteration
// trace calls compiled in but the recorder DISABLED must run within 2% of
// the same loop with no trace calls at all (each disabled call is one
// relaxed atomic load), judged by the median of interleaved pair ratios.
// Exits non-zero on violation; used by check.sh --obs.
//
// Usage: bench_micro_mpisim [--assert-obs-overhead] [--help]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpisim/netmodel.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

constexpr const char* kUsage = "usage: bench_micro_mpisim [--assert-obs-overhead] [--help]\n";

/// One SMO-iteration-shaped gamma update over the active block. noinline so
/// the plain and traced guard loops call the identical code: without it the
/// out-of-line emit() branch acts as a compiler barrier in the traced loop
/// and the comparison measures codegen differences, not the trace calls.
__attribute__((noinline)) void smo_gamma_update(std::vector<double>& gamma,
                                                const std::vector<double>& k_up,
                                                const std::vector<double>& k_low,
                                                std::uint64_t it) {
  const double du = 1e-4 * static_cast<double>(it % 7);
  const double dl = -1e-4 * static_cast<double>(it % 5);
  for (std::size_t i = 0; i < gamma.size(); ++i) gamma[i] += du * k_up[i] + dl * k_low[i];
  // Empty memory barrier: the stores above stay observable, so the
  // compiler cannot drop or hoist the loop out of the timed region.
  asm volatile("" : : "r"(gamma.data()) : "memory");
}

int run_obs_overhead_guard() {
  // The shape of DistributedSolver::run_phase's inner loop: one gamma update
  // over the active block per iteration, plus the solver's trace call sites
  // (batch-boundary check, gap counter, span begin/end) — all no-ops here
  // because the recorder stays disabled.
  constexpr std::size_t kBlock = 2048;
  constexpr int kIters = 30000;  // ~30 ms per loop on a 4-vCPU x86 host
  constexpr int kPairs = 31;
  std::vector<double> gamma(kBlock, 0.1);
  std::vector<double> k_up(kBlock);
  std::vector<double> k_low(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    k_up[i] = 1.0 / static_cast<double>(i + 1);
    k_low[i] = 1.0 / static_cast<double>(kBlock - i);
  }
  const auto plain = [&] {
    svmutil::Timer timer;
    for (std::uint64_t it = 0; it < kIters; ++it) smo_gamma_update(gamma, k_up, k_low, it);
    return timer.seconds();
  };
  const auto traced = [&] {
    svmutil::Timer timer;
    for (std::uint64_t it = 0; it < kIters; ++it) {
      if (svmobs::trace_enabled() && it % 256 == 0) svmobs::trace_begin("smo_batch", "solver");
      smo_gamma_update(gamma, k_up, k_low, it);
      svmobs::trace_counter("gap", k_up[it % kBlock]);
      svmobs::trace_counter("active_local", static_cast<double>(kBlock));
    }
    return timer.seconds();
  };

  // The verdict is the median of kPairs traced/plain ratios, each pair timed
  // back to back (alternating which loop runs first), so host noise and
  // frequency drift hit both sides of a ratio alike and a few disturbed
  // pairs cannot move the median.
  svmobs::trace_disable();
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double plain_s = 0.0;
    double traced_s = 0.0;
    if (pair % 2 == 0) {
      plain_s = plain();
      traced_s = traced();
    } else {
      traced_s = traced();
      plain_s = plain();
    }
    ratios.push_back(traced_s / plain_s);
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead = ratios[ratios.size() / 2] - 1.0;
  std::printf("obs overhead guard: median of %d traced-disabled/plain pairs %+.2f%% "
              "(pairs %+.2f%% .. %+.2f%%, budget 2%%): %s\n",
              kPairs, 100.0 * overhead, 100.0 * (ratios.front() - 1.0),
              100.0 * (ratios.back() - 1.0), overhead < 0.02 ? "OK" : "VIOLATED");
  return overhead < 0.02 ? 0 : 1;
}

void print_paper_scale_table() {
  const svmmpi::NetModel model;
  svmutil::TextTable table({"operation", "payload", "p", "modeled time"});
  const auto row = [&](const char* op, const char* payload, int p, double seconds) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.2f us", seconds * 1e6);
    table.add_row({op, payload, svmutil::TextTable::integer(p), buffer});
  };
  row("pair allreduce (MINLOC/MAXLOC + x_up/x_low)", "2 samples ~ 2KB", 4096,
      model.tree(2048, 4096));
  row("allreduce (beta)", "16 B", 4096, model.tree(16, 4096));
  row("ring step (Algorithm 3)", "N/p samples ~ 5MB", 4096, model.ring_step(5 << 20));
  std::printf("alpha-beta model predictions at paper scale (l=%.1e s, G=%.1e s/B):\n\n",
              model.latency_s, model.seconds_per_byte);
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  bool assert_overhead = false;
  try {
    const svmutil::CliFlags flags(argc, argv, {"assert-obs-overhead!", "help!"});
    if (flags.get_bool("help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (!flags.positional().empty())
      throw std::invalid_argument("unexpected argument '" + flags.positional()[0] + "'");
    assert_overhead = flags.get_bool("assert-obs-overhead");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_micro_mpisim: %s\n%s", e.what(), kUsage);
    return 2;
  }
  if (assert_overhead) return run_obs_overhead_guard();
  print_paper_scale_table();
  return 0;
}
