#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark (BENCHMARK.json).

Run from the repository root:

  python3 perfbench/run.py --workload smo-dense --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --help
  python3 perfbench/run.py --self-test

The benchmark program (perfbench/*.cpp) and the libraries it measures
(src/) are built from source with CMake into .bench_build/ on first use;
later runs rebuild only what changed. Build output goes to standard error,
so the last line of standard output stays the program's JSON result. All
arguments except --self-test are passed to the program, which prints usage
for --help and rejects unknown flags.

--self-test runs every workload at a tiny size and checks that the same
seed repeats its counts and accuracy exactly, that another seed changes
the inputs, that every metric of BENCHMARK.json is printed with its unit,
and that bad flags are refused.
"""
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")


class Terminated(Exception):
    pass


def _on_term(signum, frame):
    raise Terminated()


def run_child(cmd, **kwargs):
    """Runs cmd to completion; a terminated wrapper stops the child first."""
    child = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        out, err = child.communicate()
    except BaseException:
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    return child.returncode, out, err


def build():
    """Configures (once) and builds the program; False on any failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ next to perfbench/; nothing to build", file=sys.stderr)
        return False
    steps = []
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        code, _, _ = run_child(cmd, stdout=sys.stderr)
        if code != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def program(args):
    return [BINARY, "--work-dir", WORK_DIR] + list(args)


# --- self-test ----------------------------------------------------------------

def load_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return [w["name"] for w in spec["workloads"]], end_to_end, per_layer


def tiny_run(workload, seed, trace):
    code, out, err = run_child(
        program(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--tiny"]),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if code != 0:
        raise RuntimeError("%s seed %d trace %d exited %d: %s" % (workload, seed, trace, code, err))
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith("info "):
            info = json.loads(line[len("info "):])
    return result, info


def self_test():
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    names, end_to_end, per_layer = load_catalog()
    code, out, _ = run_child(program(["--help"]), stdout=subprocess.PIPE, text=True)
    check(code == 0 and "usage:" in out, "--help prints usage and exits 0")
    code, out, err = run_child(program(["--workload", names[0], "--bogus"]),
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    check(code != 0 and "usage:" in err and out.strip() == "",
          "an unknown flag prints usage, no result, and exits non-zero")

    repeat_layer = ["core.iterations", "kernel.evals", "mpisim.collectives", "solver.rounds"]
    for w in names:
        runs = {}
        for trace in (0, 1):
            for seed in (1, 1, 2):
                runs.setdefault((trace, seed), []).append(tiny_run(w, seed, trace))
        for trace, catalog in ((0, end_to_end), (1, per_layer)):
            for result, _ in runs[(trace, 1)] + runs[(trace, 2)]:
                check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                      and result["correct"] is True and result["failed"] == 0
                      and result["attempted"] >= 1,
                      "%s trace %d: result keys, correct, zero failed" % (w, trace))
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                check(printed == catalog,
                      "%s trace %d: every metric printed with its unit" % (w, trace))
        (e1, i1), (e2, i2) = runs[(0, 1)]
        check(e1["metrics"]["accuracy"]["value"] == e2["metrics"]["accuracy"]["value"],
              "%s: same seed repeats accuracy" % w)
        (l1, _), (l2, _) = runs[(1, 1)]
        for m in repeat_layer:
            check(l1["metrics"][m]["value"] == l2["metrics"][m]["value"],
                  "%s: same seed repeats %s" % (w, m))
        check(i1["inputs_digest"] == i2["inputs_digest"], "%s: same seed, same inputs" % w)
        _, i3 = runs[(0, 2)][0]
        check(i3["inputs_digest"] != i1["inputs_digest"], "%s: another seed, other inputs" % w)

    print("self-test: %s" % ("ok" if not failures else "%d FAILED" % len(failures)))
    return 0 if not failures else 1


def main(argv):
    signal.signal(signal.SIGTERM, _on_term)
    try:
        if not build():
            return 2
        if argv == ["--self-test"]:
            return self_test()
        code, _, _ = run_child(program(argv))
        return code
    except RuntimeError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1
    except Terminated:
        return 143


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
