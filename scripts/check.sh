#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes over the layers that need them.
# Run from the repo root:
#
#   scripts/check.sh            # full: tier-1 build+ctest, contention, ASan kernel tests, TSan chaos/obs/mpisim tests, werror, obs, perfbench
#   scripts/check.sh --tier1    # only the tier-1 build + full ctest suite
#   scripts/check.sh --contention  # only the full ctest suite, twice, on an oversubscribed host
#   scripts/check.sh --asan     # only the ASan kernel/engine/cache + collective tests
#   scripts/check.sh --tsan     # only the TSan chaos/fault-tolerance + obs + mpisim tests
#   scripts/check.sh --werror   # only the warnings-as-errors build of every target
#   scripts/check.sh --obs      # only the observability end-to-end checks
#   scripts/check.sh --sched    # only the multi-tenant scheduler checks
#   scripts/check.sh --simd     # only the SIMD/precision flavor checks
#   scripts/check.sh --serve    # only the prediction-serving checks
#   scripts/check.sh --pbm      # only the PBM-solver checks
#   scripts/check.sh --perfbench  # only the end-to-end benchmark self-test
#
# The contention pass runs the full ctest suite twice at -j$((2*nproc)).
# Every test reserves 2 ctest processors and runs a 2-thread OpenMP team, so
# about nproc tests run at once: twice the threads the host has cores. A
# test whose verdict depends on wall-clock time (a deadline a fault-free
# run can overrun under load) fails here first; both passes must be green.
#
# The ASan pass rebuilds the kernel-layer tests under -DSVM_SANITIZE=address
# in a separate build tree (build-asan/) and runs the binaries directly; it
# exists to catch span-lifetime bugs in KernelRowCache pinning and the
# KernelEngine scatter buffers that a plain run cannot see. It also runs the
# collective tests, whose malformed-contribution cases must be rejected
# before the combine reads past a buffer.
#
# The TSan pass rebuilds under -DSVM_SANITIZE=thread (build-tsan/) and runs
# the `chaos`-, `obs`- and `mpisim`-labelled ctest suites: the
# fault-injection, checkpoint/restart, elastic shrink-world, scheduler and
# serving tests, the trace-recorder concurrency tests, and the runtime's own
# pt2pt, collective and stress suites (the mailbox and rendezvous code).
# Failure detection, World::mark_failed poking, Comm::agree, ElasticAttempt's
# generation hand-off and the lock-free per-thread trace rings are all
# cross-thread rendezvous under the simulated MPI world — exactly the code a
# data-race would corrupt silently in a plain run. It builds the
# `labelled_tests` target, every binary a label filter can select, so no
# selected test is skipped for want of its binary.
#
# The werror pass configures a separate tree (build-werror/) with
# -DSHRINKSVM_WERROR=ON and builds every target: a warning is a bug (a
# -Wformat-truncation once hid a model-file header cut short), so none may
# survive in any library, test, bench, example or tool.
#
# The sched pass rebuilds the scheduler chaos suite under TSan and runs it
# (the dispatcher, watchdog, gang hand-off and pool-exit paths are all
# cross-thread rendezvous), then runs bench_scheduler --quick with tracing
# on, validates the per-job spans and the run report, and gates the emitted
# BENCH_scheduler.json against itself with tools/bench_diff (a self-diff
# must report zero regressions; a perturbed copy must be caught).
#
# The serve pass rebuilds the serving suite under TSan and runs the
# `serve`-labelled tests (frontend batcher, client threads and the worker
# ranks all rendezvous on the request queue, the mailbox deadline waits and
# the failure registry — the exact cross-thread surface a race would corrupt
# silently), then runs bench_serving --quick --assert (admission shedding
# bounded at 2x saturation, zero failed responses and bit-identical answers
# across a mid-run rank death) with tracing on, validates the serve spans and
# the run report, and gates the committed BENCH_serving.json with
# tools/bench_diff (self-diff quiet, perturbed copy caught).
#
# The pbm pass rebuilds the PBM solver suites under TSan and runs them (the
# block solves, the per-round alpha allgatherv and the shrink-world recovery
# replay are all cross-thread rendezvous under the simulated world), then runs
# bench_pbm --quick --assert (both solvers converge to the same KKT gap,
# SV-set agreement holds, and PBM moves >= 2x fewer bytes than SMO at
# p >= 8) with tracing on, validates the pbm spans and the run report, and
# gates the committed BENCH_pbm.json with tools/bench_diff (self-diff
# quiet, perturbed copy caught).
#
# The simd pass rebuilds the RowStore/engine-parity suites under UBSan with
# float-cast-overflow checking (build-ubsan/) — the f16 codec and the int8
# quantizer are exactly the code where a narrowing cast silently saturates —
# then runs bench_precision --assert (simd f64 bitwise vs scalar, reduced
# flavors within their disagreement gates, simd f32 >= 1.5x scalar double)
# and gates the committed BENCH_engine.json / BENCH_precision.json artifacts
# with tools/bench_diff (self-diff quiet, perturbed copy caught).
#
# The obs pass trains a small synthetic problem at p=4 with tracing and
# metrics enabled, validates the artifacts with tools/trace_validate
# (well-formed Chrome JSON, monotonic per-rank timestamps, balanced spans,
# all four instrumentation layers present, >= 2 counter tracks), validates
# the run report a bench emits, and runs the tracing-disabled overhead guard
# (< 2% on an SMO-shaped hot loop).
#
# The perfbench pass runs `python3 perfbench/run.py --self-test`: it builds
# the benchmark program and the libraries it measures from source into
# .bench_build/, then runs every workload at a tiny size (same seed, same
# counts; bad flags refused). Nothing else builds perfbench, and it compiles
# against the engine, solver and trainer signatures.
set -euo pipefail
cd "$(dirname "$0")/.."

run_tier1=true
run_contention=true
run_asan=true
run_tsan=true
run_werror=true
run_obs=true
run_sched=true
run_simd=true
run_serve=true
run_pbm=true
run_perfbench=true
only() {  # only <step>: disable every step except the named one
  run_tier1=false; run_contention=false; run_asan=false; run_tsan=false
  run_werror=false; run_obs=false; run_sched=false; run_simd=false
  run_serve=false; run_pbm=false; run_perfbench=false
  eval "run_$1=true"
}
case "${1:-}" in
  --tier1) only tier1 ;;
  --contention) only contention ;;
  --asan) only asan ;;
  --tsan) only tsan ;;
  --werror) only werror ;;
  --obs) only obs ;;
  --sched) only sched ;;
  --simd) only simd ;;
  --serve) only serve ;;
  --pbm) only pbm ;;
  --perfbench) only perfbench ;;
  "") ;;
  *) echo "usage: scripts/check.sh [--tier1|--contention|--asan|--tsan|--werror|--obs|--sched|--simd|--serve|--pbm|--perfbench]" >&2; exit 2 ;;
esac

if $run_tier1; then
  echo "=== tier-1: configure + build + ctest ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j
  (cd build && ctest --output-on-failure -j "$(nproc)")
fi

if $run_contention; then
  jobs=$((2 * $(nproc)))
  echo "=== contention: full ctest twice at -j$jobs ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j
  for pass in 1 2; do
    echo "--- contention pass $pass of 2 ---"
    (cd build && ctest --output-on-failure -j "$jobs")
  done
fi

if $run_asan; then
  echo "=== asan: kernel/engine/cache + collective tests under -fsanitize=address ==="
  cmake -B build-asan -S . -DSVM_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target \
    test_kernel test_kernel_cache test_kernel_engine test_engine_parity test_mpisim_collectives
  for t in test_kernel test_kernel_cache test_kernel_engine test_engine_parity \
      test_mpisim_collectives; do
    echo "--- $t (asan) ---"
    ./build-asan/tests/"$t"
  done
fi

if $run_tsan; then
  echo "=== tsan: chaos/fault-tolerance, obs and mpisim tests under -fsanitize=thread ==="
  cmake -B build-tsan -S . -DSVM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target labelled_tests
  (cd build-tsan && ctest -L 'chaos|obs|mpisim' --output-on-failure -j "$(nproc)")
fi

if $run_werror; then
  echo "=== werror: every target with -DSHRINKSVM_WERROR=ON ==="
  cmake -B build-werror -S . -DSHRINKSVM_WERROR=ON >/dev/null
  cmake --build build-werror -j
fi

if $run_obs; then
  echo "=== obs: traced training run + artifact validation + overhead guard ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target \
    parallel_training trace_validate trace_analyze bench_pbm bench_trace_active \
    bench_micro_mpisim
  obs_dir=$(mktemp -d)
  trap 'rm -rf "$obs_dir"' EXIT
  # A p=4 traced run must produce a Chrome trace with spans from all four
  # layers (mpisim collective, kernel-engine batch, solver phase,
  # reconstruction ring step) and at least two counter tracks. The SMO
  # iteration's one collective is the pair allreduce (allreduce_minmaxloc).
  ./build/examples/parallel_training --ranks 4 --n 800 \
    --trace-out "$obs_dir/trace.json" --metrics-out "$obs_dir/metrics.json"
  ./build/tools/trace_validate "$obs_dir/trace.json" \
    --require-span solve,phase,smo_batch,allreduce,allreduce_minmaxloc,engine_pair_batch,ring_step,reconstruction \
    --min-counter-tracks 2
  ./build/tools/trace_validate --metrics "$obs_dir/metrics.json"
  # A bench's run report must validate too (active-set trajectory bench).
  ./build/bench/bench_trace_active --quick --metrics-out "$obs_dir/bench_metrics.json" >/dev/null
  ./build/tools/trace_validate --metrics "$obs_dir/bench_metrics.json"
  # Causal flow analysis on a p=8 PBM traced run: every flow start must be
  # finished on another rank (strict default), the compute/comm/blocked/
  # imbalance attribution must close to 100% +-2% on every round, and at
  # least one round must show nonzero comm on every rank — proof the flow
  # edges really bind senders to receivers.
  (cd "$obs_dir" && "$OLDPWD"/build/bench/bench_pbm --quick --datasets=higgs --ranks=8 \
    --trace-out "$obs_dir/pbm_trace.json" --metrics-out "$obs_dir/pbm_metrics.json" >/dev/null)
  ./build/tools/trace_validate "$obs_dir/pbm_trace.json" --require-span round,pbm_round
  ./build/tools/trace_analyze "$obs_dir/pbm_trace.json" --assert \
    --out "$obs_dir/pbm_analysis.json"
  # Tracing disabled must cost < 2% on an SMO-shaped hot loop.
  ./build/bench/bench_micro_mpisim --assert-obs-overhead
fi

if $run_sched; then
  echo "=== sched: TSan scheduler chaos suite + bench artifact gate ==="
  cmake -B build-tsan -S . -DSVM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target test_scheduler
  # ctest names are gtest's Suite.Test names, not binary names.
  (cd build-tsan && ctest -R '^(Scheduler|SchedulerPrimitives|Workload)\.' \
    --output-on-failure -j "$(nproc)")
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_scheduler bench_diff trace_validate
  sched_dir=$(mktemp -d)
  # Re-arm rather than replace the obs step's cleanup (full runs set both).
  trap 'rm -rf "${obs_dir:-}" "${sched_dir:-}"' EXIT
  # bench_scheduler exits nonzero if any regime loses accepted work; the
  # low-fault regime carries the trace/metrics artifacts.
  (cd "$sched_dir" && "$OLDPWD"/build/bench/bench_scheduler --quick     --trace-out "$sched_dir/trace.json" --metrics-out "$sched_dir/metrics.json")
  # --allow-dangling-flows: the chaos regimes kill ranks mid-flight, so some
  # flow starts legitimately never find their receiver.
  ./build/tools/trace_validate "$sched_dir/trace.json" --require-span job,solve \
    --allow-dangling-flows
  ./build/tools/trace_validate --metrics "$sched_dir/metrics.json"
  # The regression gate must be quiet on a self-diff and loud on a
  # perturbed candidate.
  ./build/tools/bench_diff "$sched_dir/BENCH_scheduler.json" "$sched_dir/BENCH_scheduler.json"
  sed 's/"jobs_lost": 0/"jobs_lost": 9/' "$sched_dir/BENCH_scheduler.json"     > "$sched_dir/BENCH_regressed.json"
  if ./build/tools/bench_diff "$sched_dir/BENCH_scheduler.json"       "$sched_dir/BENCH_regressed.json" > /dev/null; then
    echo "bench_diff failed to flag an injected regression" >&2
    exit 1
  fi
fi

if $run_serve; then
  echo "=== serve: TSan serving suite + bench artifact gate ==="
  cmake -B build-tsan -S . -DSVM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target test_serving
  (cd build-tsan && ctest -L serve --output-on-failure -j "$(nproc)")
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_serving bench_diff trace_validate
  serve_dir=$(mktemp -d)
  trap 'rm -rf "${obs_dir:-}" "${sched_dir:-}" "${simd_dir:-}" "${serve_dir:-}"' EXIT
  # --assert enforces the degradation contract: p99 under deadline with zero
  # shedding at 0.7x saturation, bounded-queue shedding with bounded
  # accepted-p99 at 2x, and a mid-run rank death answered with zero failures
  # and decisions bit-identical to the fault-free run. The low-fault regime
  # carries the trace/metrics artifacts. Runs in a scratch dir so the
  # committed BENCH_serving.json is not overwritten.
  (cd "$serve_dir" && "$OLDPWD"/build/bench/bench_serving --quick --assert \
    --trace-out "$serve_dir/trace.json" --metrics-out "$serve_dir/metrics.json")
  # --allow-dangling-flows: the serving bench injects a mid-run rank death,
  # so flows into the dead worker legitimately dangle.
  ./build/tools/trace_validate "$serve_dir/trace.json" \
    --require-span serve_batch,serve_eval --allow-dangling-flows
  ./build/tools/trace_validate --metrics "$serve_dir/metrics.json"
  # The committed artifact must be gate-clean against itself and the gate
  # must still be loud on a perturbed copy (requests_lost is lower-better).
  ./build/tools/bench_diff BENCH_serving.json BENCH_serving.json
  sed 's/"requests_lost": 0/"requests_lost": 9/' BENCH_serving.json \
    > "$serve_dir/BENCH_regressed.json"
  if ./build/tools/bench_diff BENCH_serving.json \
      "$serve_dir/BENCH_regressed.json" > /dev/null; then
    echo "bench_diff failed to flag an injected regression in BENCH_serving.json" >&2
    exit 1
  fi
fi

if $run_simd; then
  echo "=== simd: precision/parity suites under UBSan + flavor gates ==="
  cmake -B build-ubsan -S . -DSVM_SANITIZE=undefined,float-cast-overflow >/dev/null
  cmake --build build-ubsan -j --target test_row_store test_engine_parity
  for t in test_row_store test_engine_parity; do
    echo "--- $t (ubsan) ---"
    UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/"$t"
  done
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_precision bench_engine_backends bench_diff
  simd_dir=$(mktemp -d)
  trap 'rm -rf "${obs_dir:-}" "${sched_dir:-}" "${serve_dir:-}" "${simd_dir:-}"' EXIT
  # --assert: simd f64 must stay bitwise-equal to the scalar engines, the
  # reduced flavors must hold their disagreement gates, and simd f32 must
  # clear 1.5x single-core kernel-eval throughput over scalar double. Runs
  # in a scratch dir so the committed artifact is not overwritten.
  (cd "$simd_dir" && "$OLDPWD"/build/bench/bench_precision --quick --assert)
  # The committed artifacts must be gate-clean against themselves and the
  # gate must still be loud: perturb one throughput leaf in each and demand
  # bench_diff flags it.
  for artifact in BENCH_engine.json BENCH_precision.json; do
    ./build/tools/bench_diff "$artifact" "$artifact"
    sed 's/"\([a-z_]*per_s[a-z_]*\)": [0-9.eE+-]*/"\1": 1.0/' "$artifact" \
      > "$simd_dir/regressed.json"
    if ./build/tools/bench_diff "$artifact" "$simd_dir/regressed.json" > /dev/null; then
      echo "bench_diff failed to flag an injected regression in $artifact" >&2
      exit 1
    fi
  done
fi

if $run_pbm; then
  echo "=== pbm: TSan solver suites + bench artifact gate ==="
  cmake -B build-tsan -S . -DSVM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target test_pbm test_pbm_chaos
  (cd build-tsan && ctest -R '(^|/)Pbm' --output-on-failure -j "$(nproc)")
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_pbm bench_diff trace_validate
  pbm_dir=$(mktemp -d)
  trap 'rm -rf "${obs_dir:-}" "${sched_dir:-}" "${serve_dir:-}" "${simd_dir:-}" "${pbm_dir:-}"' EXIT
  # --assert enforces: both solvers converge to the same KKT gap, the SV-set
  # Jaccard agreement holds, and PBM moves >= 2x fewer bytes than SMO at
  # p >= 8 on >= 2 datasets. The first p>=4 PBM run carries the trace and
  # metrics artifacts. Runs in a scratch dir so the committed BENCH_pbm.json
  # is not overwritten.
  (cd "$pbm_dir" && "$OLDPWD"/build/bench/bench_pbm --quick --assert \
    --trace-out "$pbm_dir/trace.json" --metrics-out "$pbm_dir/metrics.json")
  ./build/tools/trace_validate "$pbm_dir/trace.json" \
    --require-span solve,pbm_round,pbm_block_solve,pbm_sync
  ./build/tools/trace_validate --metrics "$pbm_dir/metrics.json"
  # The committed artifact must be gate-clean against itself and the gate
  # must still be loud on a perturbed copy (sv_agreement is higher-better).
  ./build/tools/bench_diff BENCH_pbm.json BENCH_pbm.json
  sed 's/"sv_agreement": [0-9.]*/"sv_agreement": 0.1/' BENCH_pbm.json \
    > "$pbm_dir/BENCH_regressed.json"
  if ./build/tools/bench_diff BENCH_pbm.json \
      "$pbm_dir/BENCH_regressed.json" > /dev/null; then
    echo "bench_diff failed to flag an injected regression in BENCH_pbm.json" >&2
    exit 1
  fi
fi

if $run_perfbench; then
  echo "=== perfbench: benchmark self-test at tiny sizes ==="
  python3 perfbench/run.py --self-test
fi

echo "ALL CHECKS PASSED"
