// Layer replays of the traced run. Each replay calls one layer's public
// functions directly, with the workload's own inputs and rank count, and
// times the calls from here; counts come from the TrainResult the program
// already returns. Nothing inside the program is instrumented.
#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <stdexcept>

#include "core/distributed_solver.hpp"
#include "core/sample_block.hpp"
#include "kernel/kernel_engine.hpp"
#include "mpisim/spmd.hpp"
#include "perfbench.hpp"
#include "solver/pbm_solver.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

/// Median over `batches` of the mean seconds per call of `op`, after a
/// warm-up batch. Batching keeps the clock reads out of sub-microsecond ops.
double seconds_per_op(int batches, int ops, const std::function<void()>& op) {
  for (int k = 0; k < ops; ++k) op();
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    const double t0 = now_s();
    for (int k = 0; k < ops; ++k) op();
    per_op.push_back((now_s() - t0) / ops);
  }
  return median(per_op);
}

std::uint64_t counter_of(const svmobs::MetricsRegistry& metrics, const std::string& name) {
  const auto it = metrics.counters().find(name);
  return it == metrics.counters().end() ? 0 : it->second.value();
}

struct TransportTimes {
  double allreduce_us = 0.0;
  double bcast_us = 0.0;
  double allgatherv_us = 0.0;
  double roundtrip_us = 0.0;
};

/// The SMO pair broadcast's payload: two packed training samples.
std::vector<std::byte> pair_payload(const svmdata::Dataset& train) {
  svmcore::PackedSamples pair;
  for (std::size_t i = 0; i < 2; ++i)
    pair.add(static_cast<std::int64_t>(i), train.y[i], 0.0,
             svmdata::CsrMatrix::squared_norm(train.X.row(i)), train.X.row(i));
  return pair.pack();
}

/// Bytes of one full serve batch on the wire: a 16-byte batch header, then
/// per query a 16-byte header and its features (serve/serving.cpp).
std::size_t serve_batch_bytes(const svmdata::CsrMatrix& queries, std::size_t batch) {
  std::size_t bytes = 16;
  for (std::size_t q = 0; q < batch; ++q)
    bytes += 16 + queries.row(q).size_bytes();
  return bytes;
}

/// All four transport replays in ONE persistent world, so thread start-up
/// is paid once and never timed.
TransportTimes replay_transport(const Inputs& in, bool tiny) {
  const int batches = tiny ? 5 : 25;
  const int ops = tiny ? 50 : 400;
  const std::vector<std::byte> pair = pair_payload(in.trains[0]);
  const std::vector<double> slice(in.trains[0].size() / kRanks, 0.5);
  const std::size_t batch_max = serve_options().batch_max;
  const std::vector<std::byte> batch(serve_batch_bytes(in.heldout.X, batch_max), std::byte{1});
  const std::vector<double> reply(batch_max, 0.25);

  TransportTimes t;
  svmmpi::run_spmd(kRanks, [&](svmmpi::Comm& comm) {
    const bool root = comm.rank() == 0;
    const auto timed = [&](double& slot, const std::function<void()>& op) {
      comm.barrier();
      const double s = seconds_per_op(batches, ops, op);
      if (root) slot = s * 1e6;
    };
    timed(t.allreduce_us, [&] {
      (void)comm.allreduce_minloc({static_cast<double>(comm.rank()), comm.rank()});
    });
    std::vector<std::byte> data;
    timed(t.bcast_us, [&] {
      if (root) data = pair;
      comm.bcast(data, 0);
    });
    timed(t.allgatherv_us, [&] { (void)comm.allgatherv(std::span<const double>(slice)); });
    // Round trip: rank 0 sends the batch to rank 1 and waits for its reply
    // with the serving frontend's deadline receive.
    constexpr int kWork = 7;
    constexpr int kReply = 8;
    if (root) {
      std::vector<double> got;
      timed(t.roundtrip_us, [&] {
        comm.send(std::span<const std::byte>(batch), 1, kWork);
        if (!comm.recv_deadline(got, 1, kReply, 5.0))
          throw std::runtime_error("perfbench: round-trip reply missed its deadline");
      });
    } else {
      double unused = 0.0;
      timed(unused, [&] {
        (void)comm.recv<std::byte>(0, kWork);
        comm.send(std::span<const double>(reply), 0, kReply);
      });
    }
  });
  return t;
}

struct KernelTimes {
  double pair_ns = 0.0;
  double block_ns = 0.0;
  double predict_ns = 0.0;
};

KernelTimes replay_kernel(const Inputs& in, const svmcore::SvmModel& model, bool tiny) {
  const int batches = tiny ? 3 : 15;
  const svmdata::CsrMatrix& X = in.trains[0].X;
  const std::size_t n = in.trains[0].size();
  const std::size_t block = n / kRanks;  // rank 0's rows [0, block)
  const svmkernel::Kernel kernel(in.params.kernel);
  const std::vector<double> norms = X.row_squared_norms();
  KernelTimes t;

  // Pair rows: the SMO gamma update of rank 0 for a remote (x_up, x_low).
  svmkernel::KernelEngine engine(kernel, X, in.params.engine_backend, 0, block);
  std::vector<double> out_up(block), out_low(block);
  t.pair_ns = 1e9 / static_cast<double>(block) *
              seconds_per_op(batches, tiny ? 10 : 100, [&] {
                engine.eval_pair_range(X.row(block), norms[block], X.row(block + 1),
                                       norms[block + 1], 0, block, out_up, out_low);
              });

  // Block rows: rank 1's block against every row of rank 0's (the PBM
  // cross-block refresh and reconstruction ring-step shape).
  std::vector<std::span<const svmdata::Feature>> remote;
  std::vector<double> remote_sq;
  for (std::size_t j = block; j < n; ++j) {
    remote.push_back(X.row(j));
    remote_sq.push_back(norms[j]);
  }
  const std::vector<double> coeffs(remote.size(), 1.0);
  std::vector<std::uint32_t> rows(block);
  for (std::size_t i = 0; i < block; ++i) rows[i] = static_cast<std::uint32_t>(i);
  std::vector<double> accum(block, 0.0);
  t.block_ns = 1e9 / static_cast<double>(remote.size() * block) *
               seconds_per_op(batches, 2, [&] {
                 engine.eval_block_rows(remote, remote_sq, coeffs, rows, 0, accum);
               });

  // Batch predict: one full serve batch of held-out rows against every
  // support vector (the 1-shard serving worker's call).
  const std::size_t batch_max = serve_options().batch_max;
  std::vector<std::span<const svmdata::Feature>> queries;
  std::vector<double> query_sq;
  for (std::size_t q = 0; q < batch_max; ++q) {
    queries.push_back(in.heldout.X.row(q));
    query_sq.push_back(svmdata::CsrMatrix::squared_norm(in.heldout.X.row(q)));
  }
  svmkernel::KernelEngine model_engine = model.make_engine();
  std::vector<double> scores(batch_max);
  t.predict_ns = 1e9 / static_cast<double>(batch_max * model.num_support_vectors()) *
                 seconds_per_op(batches, tiny ? 10 : 50, [&] {
                   model_engine.eval_block_rows(queries, query_sq, model.coefficients(), scores);
                 });
  return t;
}

/// One solver replay in the benchmark's own world: the solve() wall time
/// of the slowest rank (construction excluded) plus the rank results.
template <typename Solver>
double replay_solve(const Inputs& in, const svmcore::DistributedConfig& config,
                    std::vector<svmcore::RankResult>& results) {
  results.assign(kRanks, {});
  std::vector<double> seconds(kRanks, 0.0);
  svmmpi::run_spmd(kRanks, [&](svmmpi::Comm& comm) {
    Solver solver(comm, in.trains[0], config);
    const double t0 = now_s();
    results[comm.rank()] = solver.solve();
    seconds[comm.rank()] = now_s() - t0;
  });
  return *std::max_element(seconds.begin(), seconds.end());
}

}  // namespace

void replay_layers(const TracedContext& ctx, SpanRecorder& spans, Outcome& out) {
  const Inputs& in = *ctx.inputs;
  const svmcore::TrainResult& ref = *ctx.reference;
  const bool tiny = ctx.tiny;

  TransportTimes transport;
  {
    SpanRecorder::Scope span(spans, "mpisim.replay", "mpisim");
    transport = replay_transport(in, tiny);
  }
  KernelTimes kernel;
  {
    SpanRecorder::Scope span(spans, "kernel.replay", "kernel");
    kernel = replay_kernel(in, *ctx.model, tiny);
  }

  // Both solvers replay on every workload's inputs: the workload's own
  // solver is the one train() runs, the other shows what it would cost.
  svmcore::DistributedConfig smo{.params = in.params, .heuristic = in.train_options.heuristic};
  smo.params.algo = svmcore::SolverAlgo::smo;
  svmcore::DistributedConfig pbm = smo;
  pbm.params.algo = svmcore::SolverAlgo::pbm;
  pbm.params.pbm_blocks = kRanks;

  std::vector<svmcore::RankResult> smo_ranks;
  std::vector<double> smo_solve_s;
  for (int k = 0; k < 2; ++k) {
    SpanRecorder::Scope span(spans, "core.DistributedSolver::solve", "core");
    smo_solve_s.push_back(replay_solve<svmcore::DistributedSolver>(in, smo, smo_ranks));
  }
  std::vector<svmcore::RankResult> pbm_ranks;
  double pbm_solve_s = 0.0;
  {
    SpanRecorder::Scope span(spans, "solver.PbmSolver::solve", "solver");
    pbm_solve_s = replay_solve<svmcore::PbmSolver>(in, pbm, pbm_ranks);
  }
  double train_1rank_s = 0.0;
  {
    SpanRecorder::Scope span(spans, "core.train_1rank", "core");
    svmcore::TrainOptions one = in.train_options;
    one.num_ranks = 1;
    const double t0 = now_s();
    const svmcore::TrainResult r = svmcore::train(in.trains[0], in.params, one);
    train_1rank_s = now_s() - t0;
    if (!r.converged) out.fail("1-rank train() did not converge");
  }
  svmserve::ServeReport burst;
  {
    // Overload burst: arrivals 20x the workload rate, so the service runs
    // flat out and sheds the excess; capacity is its completion rate.
    SpanRecorder::Scope span(spans, "serve.capacity_burst", "serve");
    svmserve::LoadSpec load;
    load.requests = tiny ? 400 : 4000;
    load.offered_qps = 20.0 * kServeQps;
    load.seed = 7;
    burst = svmserve::run_serving(*ctx.model, in.heldout.X, load, serve_options());
  }
  double first_arrival = std::numeric_limits<double>::infinity();
  double last_done = 0.0;
  for (const svmserve::RequestRecord& r : burst.requests)
    if (r.status == svmserve::RequestStatus::completed) {
      first_arrival = std::min(first_arrival, r.arrival_s);
      last_done = std::max(last_done, r.done_s);
    }
  const double capacity_qps =
      last_done > first_arrival ? static_cast<double>(burst.completed) / (last_done - first_arrival)
                                : 0.0;

  // Transport wait estimate per solve: each rank's collective and message
  // counts times the replayed latency of that operation. SMO broadcasts its
  // pair once per iteration, PBM allgathers once per round; every other
  // collective is a small allreduce, every message a one-way trip.
  const double p = static_cast<double>(kRanks);
  const double collectives = static_cast<double>(ref.traffic.collectives) / p;
  const double messages = static_cast<double>(ref.traffic.sends) / p;
  const bool is_pbm = in.params.algo == svmcore::SolverAlgo::pbm;
  const double bcasts = is_pbm ? 0.0 : static_cast<double>(ref.iterations);
  const double allgathervs = is_pbm ? static_cast<double>(ref.iterations) : 0.0;
  const double others = std::max(0.0, collectives - bcasts - allgathervs);
  const double wait_s = 1e-6 * (bcasts * transport.bcast_us +
                                allgathervs * transport.allgatherv_us +
                                others * transport.allreduce_us +
                                messages * 0.5 * transport.roundtrip_us);

  const svmcore::SolverStats& smo0 = smo_ranks[0].stats;
  std::uint64_t smo_shrunk = 0;
  for (const svmcore::RankResult& r : smo_ranks) smo_shrunk += r.stats.samples_shrunk;
  std::uint64_t pbm_inner = 0;
  std::uint64_t pbm_evals = 0;
  for (const svmcore::RankResult& r : pbm_ranks) {
    pbm_inner += counter_of(r.metrics, "pbm.inner_iterations");
    pbm_evals += r.stats.kernel_evaluations;
  }
  const std::uint64_t pbm_rounds = counter_of(pbm_ranks[0].metrics, "pbm.rounds");

  out.add("mpisim.collectives", "count", static_cast<double>(ref.traffic.collectives));
  out.add("mpisim.messages", "count", static_cast<double>(ref.traffic.sends));
  out.add("mpisim.bytes", "bytes",
          static_cast<double>(ref.traffic.bytes_sent + ref.traffic.bytes_collective));
  out.add("mpisim.allreduce_us", "us", transport.allreduce_us);
  out.add("mpisim.bcast_us", "us", transport.bcast_us);
  out.add("mpisim.allgatherv_us", "us", transport.allgatherv_us);
  out.add("mpisim.roundtrip_us", "us", transport.roundtrip_us);
  out.add("mpisim.wait_share", "fraction", ctx.train_s > 0.0 ? wait_s / ctx.train_s : 0.0);
  out.add("kernel.evals", "count", static_cast<double>(ref.total_kernel_evaluations));
  out.add("kernel.bytes_streamed", "bytes", static_cast<double>(ref.engine_bytes_streamed));
  out.add("kernel.pair_ns", "ns", kernel.pair_ns);
  out.add("kernel.block_ns", "ns", kernel.block_ns);
  out.add("kernel.predict_ns", "ns", kernel.predict_ns);
  out.add("core.iterations", "count", static_cast<double>(smo0.iterations));
  out.add("core.samples_shrunk", "count", static_cast<double>(smo_shrunk));
  out.add("core.reconstructions", "count", static_cast<double>(smo0.reconstructions));
  out.add("core.solve_s", "s", median(smo_solve_s));
  out.add("core.train_1rank_s", "s", train_1rank_s);
  out.add("solver.rounds", "count", static_cast<double>(pbm_rounds));
  out.add("solver.inner_iterations", "count", static_cast<double>(pbm_inner));
  out.add("solver.evals_per_round", "count",
          pbm_rounds > 0 ? static_cast<double>(pbm_evals) / static_cast<double>(pbm_rounds) : 0.0);
  out.add("solver.solve_s", "s", pbm_solve_s);
  out.add("serve.capacity_qps", "1/s", capacity_qps);
}

}  // namespace perfbench
