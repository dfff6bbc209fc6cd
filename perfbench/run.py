#!/usr/bin/env python3
"""Builds the fork-isolated benchmark harness and runs one workload.

    python3 perfbench/run.py --workload registry-half --seed 1 --seconds 20 --trace 0

Builds ../src and the harness with CMake into .bench_build/ (or
$CARGO_TARGET_DIR when set), runs the harness, checks every outcome, prints
a readable report, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (README.md defines each). Per-problem records are left in
.bench_build/perfbench-out/ for compare.py.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import records as rec  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["registry-half", "registry-cold", "registry-warm", "warm-sample",
             "gen-fixed", "gen-small", "unreal-chc"]
# Runs of the workloads in BENCHMARK.json must end within 180 s; the other
# three are run by hand and may take longer.
HARNESS_TIMEOUT_S = 170
BY_HAND = {"registry-cold": 300, "registry-warm": 900, "gen-small": 600}
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns its exit code, or -1
    after stopping the whole group when it overstays timeout seconds (a
    build's compilers or a harness's solve go with it)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1
    except BaseException:
        # Interrupted (SIGINT, or SIGTERM via main's handler): take the
        # group down too rather than leave a solve running.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        return run_group(cmd, timeout, stdout=log, stderr=subprocess.STDOUT)


def build(out):
    """Configures and builds the harness; returns its path or None."""
    bdir = os.path.join(out, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    open(log, "w").close()
    start = time.monotonic()
    if run_logged(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"], log, 300) != 0:
        return None, log
    jobs = str(min(4, os.cpu_count() or 1))
    left = BUILD_TIMEOUT_S - (time.monotonic() - start)
    if run_logged(["cmake", "--build", bdir, "--target", "se2gis_perfbench",
                   "-j", jobs], log, left) != 0:
        return None, log
    exe = os.path.join(bdir, "se2gis_perfbench")
    return (exe if os.path.exists(exe) else None), log


def run_harness(exe, workload, seed, seconds, records, trace_out):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--records", records]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    return run_group(cmd, BY_HAND.get(workload, HARNESS_TIMEOUT_S),
                     cwd=os.path.dirname(records))


def report(workload, seed, trace, run, rows, metrics, problems, out):
    print(f"workload {workload}  seed {seed}  algorithm {run['algorithm']}  "
        f"cache {run['cache']}  budget {run['budget_ms']} ms  "
        f"inputs {run['inputs']}  passes {len(run['pass_wall_s'])}")
    probe = run["host_probe_s"]
    print(f"host probe (fixed CPU loop): {probe[0]:.3f} s before, "
        f"{probe[1]:.3f} s after")
    print(f"parent threads at fork: {run['parent_threads']}, pinned to CPU "
          f"{run['cpu']}")
    print(f"speed probe median {rec.median_probe_ms(rows):.3f} ms: each "
          f"attempt's times are scaled by {rec.REF_PROBE_MS} ms over its own "
          f"probe")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    times = rec.verdict_times(rows)
    p90 = rec.hd_quantile(times, 0.9)
    print(f"  verdict_ms_p90 (not bounded) {p90:14.4f} ms, "
          f"{sum(t > p90 for t in times)} samples beyond")
    raw = rec.verdict_times(rows, scaled=False)
    print(f"unscaled wall time: verdict_ms_p50 {rec.hd_quantile(raw, 0.5):.4f} ms, "
          f"verdict_ms_p75 {rec.hd_quantile(raw, 0.75):.4f} ms")
    print(f"samples: {problems['samples']} attempts; verdicts "
        + ", ".join(f"{k} {v}" for k, v in sorted(problems['verdicts'].items())))
    for line in problems["failures"]:
        print("FAILED " + line)
    for line in problems["unstable"]:
        print("unstable across passes: " + line)
    if trace:
        print(overhead_line(workload, seed, run, out))


def mean_pass_s(run):
    return sum(run["pass_wall_s"]) / len(run["pass_wall_s"])


def overhead_line(workload, seed, run, out):
    """Compares this traced run's wall time per pass with the last untraced
    run of the same workload and seed in this build directory (the two may
    fit different numbers of passes)."""
    traced = mean_pass_s(run)
    msg = (f"tracing overhead: span bookkeeping {run['span_bookkeeping_ms']:.1f} ms"
           f" in {sum(run['pass_wall_s']):.2f} s of solving")
    path = os.path.join(out, f"{workload}-seed{seed}.untraced.json")
    if os.path.exists(path):
        with open(path) as f:
            base = json.load(f)["pass_wall_s"]
        msg += (f"; {traced:.2f} s per pass traced vs {base:.2f} s untraced "
                f"({(traced / base - 1) * 100:+.1f} %)")
    else:
        msg += "; no untraced run of this workload and seed to compare with"
    return msg


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of " + ", ".join(WORKLOADS) + ", or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in WORKLOADS:
            ap.error(f"unknown workload {w}")

    base = build_dir()
    exe, log = build(base)
    if not exe:
        sys.stderr.write(f"perfbench: build failed, see {log}\n")
        try:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-20:]))
        except OSError:
            pass
        return 1

    out = os.path.join(base, "perfbench-out")
    os.makedirs(out, exist_ok=True)
    for w in workloads:
        tag = f"{w}-seed{args.seed}" + (".traced" if args.trace else "")
        records = os.path.join(out, tag + ".jsonl")
        trace_out = os.path.join(out, tag + ".trace.json") if args.trace else None
        code = run_harness(exe, w, args.seed, args.seconds, records, trace_out)
        if code != 0:
            sys.stderr.write(f"perfbench: harness exited with {code} on {w}\n")
            return 1
        run, rows = rec.load(records)
        problems = rec.check(rows)
        if args.trace:
            metrics = rec.layer_metrics(run, rows)
        else:
            metrics = rec.end_to_end_metrics(run, rows)
            with open(os.path.join(out, f"{w}-seed{args.seed}.untraced.json"),
                      "w") as f:
                json.dump({"pass_wall_s": mean_pass_s(run)}, f)
        report(w, args.seed, args.trace, run, rows, metrics, problems, out)
        if args.trace:
            print(f"trace: {trace_out}")
        print(f"records: {records}")
        result = {
            "correct": not problems["failures"],
            "attempted": problems["samples"],
            "failed": len(problems["failures"]),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
