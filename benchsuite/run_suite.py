#!/usr/bin/env python3
"""Build and run the exo2 benchmark suite (benchsuite/README.md).

One workload, the form a benchmark harness calls:

    python3 benchsuite/run_suite.py --workload sched_lib --seed 1 \
        --seconds 15 --trace 0

builds bench_suite (Release, in .bench_build/), runs the workload in a
fresh process, checks its metrics against BENCHMARK.json, and prints
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end ones, with --trace 1 the
per_layer ones.

Every workload, with a table per workload:

    python3 benchsuite/run_suite.py [--seed N] [--trace] [--smoke]
                                    [--out results.json]

--smoke runs each workload at a tenth of run_seconds, --out saves the
results with a machine fingerprint for compare_suite.py, and
--selftest runs bench_suite's own checks.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
# Short and relative: it holds the serving daemon's unix socket and the
# engine's redirected scratch files (whose path must fit a /tmp template).
WORK_DIR = os.path.join(BUILD_DIR, "w")
BINARY = os.path.join(BUILD_DIR, "bench_suite")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", "benchsuite", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_suite",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def run_binary(args):
    """Run bench_suite in its own process group with a private scratch
    directory; returns its stdout. The group is killed on timeout."""
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    env = dict(os.environ, TMPDIR=os.path.abspath(WORK_DIR))
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("bench_suite timed out")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("bench_suite exited with %d" % proc.returncode)
    return out


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=30).stdout
        return out.splitlines()[0].strip() if out else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint(isa, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cc": first_line([os.environ.get("CC") or "cc", "--version"]),
        "isa": isa,
        "build_type": "Release",
        "git": first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]),
        "seed": seed,
    }


def run_workload(spec, workload, seed, seconds, trace):
    """One workload in a fresh process: its result object and the
    fingerprint. Raises on a missing, undeclared or mis-unit metric."""
    out = run_binary(["--workload", workload, "--seed", str(seed),
                      "--seconds", repr(seconds), "--trace", str(int(trace)),
                      "--work-dir", WORK_DIR])
    raw = json.loads(out.strip().splitlines()[-1])
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(raw["metrics"]) - known)
    if unknown:
        raise RuntimeError("undeclared metrics: %s" % ", ".join(unknown))
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError("metric %s (%s) missing or in another unit: %r"
                               % (m["name"], m["unit"], got))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {
        "correct": bool(raw["correct"]) and raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    return result, fingerprint(raw["isa"], seed)


def print_table(workload, result):
    print("== %s: attempted %d, failed %d, correct %s"
          % (workload, result["attempted"], result["failed"],
             result["correct"]))
    for name, m in result["metrics"].items():
        print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    os.chdir(ROOT)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error("unknown workload %r (one of %s)" % (args.workload, names))
    seconds = args.seconds or spec["run_seconds"] / (10 if args.smoke else 1)

    try:
        build()
        if args.selftest:
            run_binary(["--selftest"])
            log("selftest passed")
            return 0
        results = {}
        fp = None
        for w in [args.workload] if args.workload else names:
            t0 = time.monotonic()
            results[w], fp = run_workload(spec, w, args.seed, seconds,
                                          args.trace)
            log("%s: %.1f s" % (w, time.monotonic() - t0))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("run_suite: %s" % e)
        return 1

    log("fingerprint: %s" % json.dumps(fp))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"fingerprint": fp, "trace": args.trace,
                       "workloads": results}, f, indent=1)
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        for w, r in results.items():
            print_table(w, r)
    return 0


if __name__ == "__main__":
    sys.exit(main())
