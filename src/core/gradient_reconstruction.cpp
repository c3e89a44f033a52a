// Algorithm 3: distributed gradient reconstruction. Every rank's samples
// with alpha > 0 circulate the ring (MPI_Isend/Irecv/Waitall of CSR data in
// the paper); each rank accumulates the kernel contributions into the gamma
// of its previously shrunk samples. The paper cannot use MPI_Allgatherv
// because the collective would need a buffer holding the whole dataset — the
// ring keeps the footprint at one block.
//
// The ring is double-buffered: step k posts the Isend of the current block
// and the Irecv of block k+1 BEFORE computing on block k, then Waitalls at
// the step boundary. The exchange rides behind the compute, so the overlap
// accounting charges the step max(compute, comm) modeled seconds instead of
// their sum (Comm::credit_overlap moves the hidden min(compute, comm) into
// TrafficStats::overlapped_seconds). The compute itself is one
// KernelEngine::eval_block_rows call per step — min(|omega|, |block|) query
// scatters via the adaptive orientation — and every backend reproduces the
// reference backend's per-stale-sample loop bit for bit (ascending j, one
// fresh +0.0 partial per stale sample, added once).
//
// Crash safety: gamma_ is only written after the full ring completes;
// gamma_accum and the circulating buffers are locals. A rank failure at any
// point of the pipeline (post, compute, wait) unwinds without touching
// solver state, so checkpoint replay re-enters reconstruction from the last
// run_phase boundary and reproduces it deterministically.
#include <algorithm>

#include "core/distributed_solver.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace svmcore {

namespace {
constexpr int kTagRing = 13;  ///< reconstruction ring exchanges
}  // namespace

void DistributedSolver::reconstruct_gradients() {
  svmobs::TraceSpan reconstruction_span("reconstruction", "recon");
  svmutil::Timer timer;
  const std::uint64_t kernel_evals_before = kernel_.evaluations();
  const std::uint64_t scatter_before = engine_.stats().scatter_builds;
  const std::uint64_t bytes_before = engine_.stats().bytes_streamed;
  reconstructions_.add();
  svmobs::Gauge& comm_s_gauge = metrics_.gauge("recon.comm_s");
  svmobs::Gauge& overlapped_s_gauge = metrics_.gauge("recon.overlapped_s");

  // omega_q: local samples whose gamma went stale when they were shrunk.
  std::vector<std::uint32_t> omega;
  for (std::size_t i = 0; i < range_.size(); ++i)
    if (shrunk_[i]) omega.push_back(static_cast<std::uint32_t>(i));

  // Globally skip the ring when no rank shrank anything (e.g. the heuristic
  // threshold exceeded the iteration count, the paper's MNIST Single50pc
  // case); the bounds refresh below is still required.
  const auto local_stale = static_cast<std::int64_t>(omega.size());
  const std::int64_t global_stale = comm_.allreduce(local_stale, svmmpi::ReduceOp::sum);

  if (global_stale > 0) {
    // Contribution block: every local sample with alpha > 0 — including
    // shrunk ones at the upper bound, whose alpha still shapes the gradient.
    PackedSamples mine;
    for (std::size_t i = 0; i < range_.size(); ++i) {
      if (alpha_[i] > 0.0) {
        const std::size_t g = range_.begin + i;
        mine.add(static_cast<std::int64_t>(g), data_.y[g], alpha_[i], engine_.sq_norm(g),
                 data_.X.row(g));
      }
    }

    std::vector<double> gamma_accum(omega.size(), 0.0);
    const int p = comm_.size();
    const int to = (comm_.rank() + 1) % p;
    const int from = (comm_.rank() - 1 + p) % p;

    // Double buffers + one unpacked block, reused across every ring step:
    // once payload sizes stabilize, the steady state allocates nothing.
    std::vector<std::byte> circulating;
    std::vector<std::byte> incoming;
    mine.pack_into(circulating);
    PackedSamples block;

    // eval_block_rows argument scratch, reused across steps.
    std::vector<std::span<const svmdata::Feature>> rows;
    std::vector<double> sq_norms;
    std::vector<double> coeffs;

    for (int step = 0; step < p; ++step) {
      svmobs::TraceRound round_marker("recon");
      svmobs::TraceSpan step_span("ring_step", "recon");
      recon_ring_steps_.add();
      // Post block k+1's exchange before computing on block k. isend is
      // buffered-eager (it snapshots `circulating`), and the Irecv defers
      // its blocking pop to the wait, so posting order is deadlock-free.
      const bool exchanging = step + 1 < p;
      svmmpi::Request recv_req;
      svmmpi::Request send_req;
      double comm_before = 0.0;
      if (exchanging) {
        svmobs::TraceSpan post_span("ring_post", "recon");
        comm_before = comm_.traffic().modeled_seconds;
        recv_req = comm_.irecv_into(incoming, from, kTagRing);
        send_req = comm_.isend(std::span<const std::byte>(circulating), to, kTagRing);
      }

      if (step > 0) PackedSamples::unpack_into(circulating, block);
      const PackedSamples& b = step == 0 ? mine : block;
      svmutil::Timer compute_timer;
      rows.clear();
      sq_norms.clear();
      coeffs.clear();
      rows.reserve(b.size());
      sq_norms.reserve(b.size());
      coeffs.reserve(b.size());
      for (std::size_t j = 0; j < b.size(); ++j) {
        rows.push_back(b.row(j));
        sq_norms.push_back(b.sq_norm(j));
        coeffs.push_back(b.alpha(j) * b.y(j));
      }
      engine_.eval_block_rows(rows, sq_norms, coeffs, omega, range_.begin, gamma_accum);
      if (engine_.backend() != svmkernel::EngineBackend::reference)
        metrics_.counter("recon.scatter_builds_saved")
            .add(omega.size() - std::min(omega.size(), b.size()));
      const double compute_s = compute_timer.seconds();

      if (exchanging) {
        // Waitall at the step boundary, then swap the double buffers. The
        // wait span is what the overlap looks like on the timeline: the
        // posted Isend/Irecv rode behind the engine_block_batch span above,
        // so a short ring_wait means the exchange was fully hidden.
        svmobs::TraceSpan wait_span("ring_wait", "recon");
        recv_req.wait();
        send_req.wait();
        const double comm_s = comm_.traffic().modeled_seconds - comm_before;
        comm_s_gauge.add(comm_s);
        overlapped_s_gauge.add(comm_.credit_overlap(compute_s, comm_s));
        recon_overlapped_steps_.add();
        circulating.swap(incoming);
      }
    }

    for (std::size_t w = 0; w < omega.size(); ++w) {
      const std::uint32_t i = omega[w];
      gamma_[i] = gamma_accum[w] - data_.y[range_.begin + i];  // line 6
    }
  }

  // Re-introduce every sample (shrunk ones now carry exact gradients).
  std::fill(shrunk_.begin(), shrunk_.end(), 0);
  active_.resize(range_.size());
  for (std::size_t i = 0; i < range_.size(); ++i) active_[i] = static_cast<std::uint32_t>(i);

  // Lines 7-12: recompute the global bounds over the full sample set (the
  // active set now lists every local sample in ascending order).
  select_violators();

  metrics_.gauge("recon.total_s").add(timer.seconds());
  metrics_.counter("recon.kernel_evaluations").add(kernel_.evaluations() - kernel_evals_before);
  metrics_.counter("recon.scatter_builds").add(engine_.stats().scatter_builds - scatter_before);
  metrics_.counter("recon.bytes_streamed").add(engine_.stats().bytes_streamed - bytes_before);
}

}  // namespace svmcore
