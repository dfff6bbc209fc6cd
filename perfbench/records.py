"""Per-problem records written by the harness, and the metrics, checks and
comparisons computed from them (README.md defines every metric)."""

import json
import math
import statistics

HIST_BUCKETS = 64

# The speed probe's time, in ms, on the host the benchmark's times are
# scaled to (about its median on a quiet shared 4-vCPU Xeon host).
REF_PROBE_MS = 13.0


def load(path):
    """Returns (run summary, list of per-problem rows)."""
    run, rows = None, []
    with open(path) as f:
        for line in f:
            obj = json.loads(line)
            if obj.get("run"):
                run = obj
            else:
                rows.append(obj)
    if run is None:
        raise ValueError(f"{path}: no run summary line")
    return run, rows


def _beta_cf(a, b, x):
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted average of
    all order statistics. Unlike a single order statistic it does not jump
    when two problems near the quantile swap places from run to run."""
    xs = sorted(xs)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else 0.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def verdict_ms(row):
    """Time to verdict; a timeout counts at its budget. On a warm workload
    the median of the child's timed warm solves."""
    c = row["child"]
    if c["verdict"] == "timeout":
        return max(c["solve_ms"], row["budget_ms"])
    return statistics.median([c["solve_ms"]] + c["repeat_ms"])


def host_scale(probe_ms):
    """Factor that scales a time measured next to a speed probe of
    `probe_ms` to the reference host."""
    return REF_PROBE_MS / probe_ms


def median_probe_ms(rows):
    return statistics.median(r["child"]["probe_ms"] for r in rows if r.get("child"))


def scaled_verdict_ms(row):
    """verdict_ms scaled to the reference host by the attempt's own probe;
    a timeout stays at its budget, which is wall time on any host."""
    if row["child"]["verdict"] == "timeout":
        return verdict_ms(row)
    return verdict_ms(row) * host_scale(row["child"]["probe_ms"])


def failure(row):
    """Why this attempt is a failed operation, or None."""
    c = row.get("child")
    if row.get("killed"):
        return "child killed at the hard limit"
    if "signal" in row:
        return f"child died on signal {row['signal']}"
    if row.get("exit_code", 0) != 0:
        return f"child exited with {row['exit_code']}"
    if c is None:
        return "child sent no record"
    v, expect = c["verdict"], row["expect"]
    if v == "realizable" and expect == 0:
        return "realizable, expected unrealizable"
    if v == "unrealizable" and expect == 1:
        return "unrealizable, expected realizable"
    if v == "realizable" and c["verify"] not in ("inductive", "bounded"):
        return f"solution not re-verified ({c['verify']})"
    if v == "unrealizable" and c["evidence"] == "none":
        return "unrealizable verdict without evidence"
    return None


def solved(row):
    """A correct, conclusive verdict (timeouts and `failed` are unsolved)."""
    c = row.get("child")
    return (failure(row) is None and c is not None
            and c["verdict"] in ("realizable", "unrealizable"))


def counts(row):
    """The exact per-problem counts that must not depend on order or host."""
    c = row["child"]["counters"]
    return (c["smt_queries"], c["enum_candidates"], c["chc_queries"],
            row["child"]["refinements"], row["child"]["coarsenings"])


def check(rows):
    """Failed operations and cross-pass instability within one run."""
    failures, verdicts, first = [], {}, {}
    unstable = []
    for r in rows:
        why = failure(r)
        if why:
            failures.append(f"{r['name']}: {why}")
        c = r.get("child")
        v = c["verdict"] if c else "crash"
        verdicts[v] = verdicts.get(v, 0) + 1
        if c is None or v == "timeout":
            continue
        if any(x != v for x in c["repeat_verdicts"]):
            unstable.append(f"{r['name']}: warm solves returned {v} then "
                            + ", ".join(c["repeat_verdicts"]))
        key = (v, counts(r))
        prev = first.setdefault(r["name"], key)
        if prev != key:
            unstable.append(f"{r['name']}: {prev} then {key}")
    return {"samples": len(rows), "verdicts": verdicts, "failures": failures,
            "unstable": unstable}


def setup_samples_ms(run, scaled=True):
    """The set-up samples: each the mean time per load of a few fresh
    children, every child's time scaled by its own probe."""
    k = run["setup_children"]
    per_child = [ms * (host_scale(p) if scaled else 1.0)
                 for ms, p in zip(run["setup_ms"], run["setup_probe_ms"])]
    return [statistics.fmean(per_child[i:i + k])
            for i in range(0, len(per_child), k)]


def setup_s(run, rows):
    """Median set-up sample, scaled; on a warm workload plus the
    cache-filling solves of the first pass, each scaled by its child's
    probe."""
    fills = sum(r["child"]["fill_ms"] * host_scale(r["child"]["probe_ms"])
                for r in rows if r.get("child") and r["pass"] == 0) / 1000
    return statistics.median(setup_samples_ms(run)) / 1000 + fills


def verdict_times(rows, scaled=True):
    """Every attempt's time to verdict, scaled to the reference host unless
    `scaled` is false."""
    return [scaled_verdict_ms(r) if scaled else verdict_ms(r)
            for r in rows if r.get("child")]


def end_to_end_metrics(run, rows):
    times = verdict_times(rows)
    ok = [r for r in rows if solved(r)]
    rss = [r["child"]["solve_rss_kb"] for r in ok]
    return {
        "solved_frac": (len(ok) / len(rows), "fraction"),
        "verdict_ms_p50": (hd_quantile(times, 0.5), "ms"),
        "verdict_ms_p75": (hd_quantile(times, 0.75), "ms"),
        "solves_per_s": (len(ok) / (sum(times) / 1000), "1/s"),
        "setup_s": (setup_s(run, rows), "s"),
        "peak_rss_mb": (max(rss) / 1024 if rss else 0.0, "MB"),
    }


def merge_hist(rows, name):
    buckets = [0] * HIST_BUCKETS
    count = max_ns = 0
    for r in rows:
        h = r["child"]["hists"][name]
        count += h["count"]
        max_ns = max(max_ns, h["max_ns"])
        for b, n in h["buckets"].items():
            buckets[int(b)] += n
    return buckets, count, max_ns


def hist_quantile_ms(rows, name, q):
    """Quantile of a merged log2 histogram, interpolated inside the bucket
    the same way support/Histogram.h does."""
    buckets, count, max_ns = merge_hist(rows, name)
    if not count:
        return 0.0
    target = max(1.0, q * count)
    cum = 0
    for b, n in enumerate(buckets):
        if not n:
            continue
        if cum + n >= target:
            lo = 0 if b == 0 else 1 << (b - 1)
            hi = max_ns if b >= HIST_BUCKETS - 1 else 1 << b
            v = lo + (target - cum) / n * (hi - lo)
            return min(v, max_ns) / 1e6 if max_ns else v / 1e6
        cum += n
    return max_ns / 1e6


def frac(num, den):
    return num / den if den else 0.0


def layer_metrics(run, rows):
    """Sums are per pass over the workload (a run repeats whole passes until
    its time is up), so counts do not depend on how many passes fit."""
    rows_c = [r for r in rows if r.get("child")]
    passes = len(run["pass_wall_s"])

    def per_pass(values):
        return sum(values) / passes

    def total(key):
        return per_pass(r["child"]["counters"][key] for r in rows_c)

    def phase(name):
        return per_pass(r["child"]["phase_ms"][name] for r in rows_c)

    queries = total("smt_queries")
    smt_ms = phase("smt")
    z3_ms = per_pass(r["child"]["z3_ms"] for r in rows_c)
    solve_ms = per_pass(r["child"]["solve_ms"] for r in rows_c)
    phases_ms = sum(phase(p) for p in ("eval", "smt", "enum", "induction"))
    candidates = total("enum_candidates")
    chc_queries = total("chc_queries")
    chc_ms = per_pass(r["child"]["solve_ms"] for r in rows_c
                      if r["child"]["counters"]["chc_queries"])
    child_ms = [r["child"]["t_us"]["end"] / 1000 - r["child"]["t_us"]["start"] / 1000
                for r in rows_c]
    isolate = [r["parent_ms"] - c for r, c in zip(rows_c, child_ms)]
    attempts = run["gen_cases"] + run["gen_rejected"]
    return {
        "frontend.load_ms": (sum(run["load_ms"]), "ms"),
        "gen.case_ms": (hd_quantile([g + l for g, l in zip(run["gen_ms"], run["load_ms"])],
                                    0.5) if run["gen_cases"] else 0.0, "ms"),
        "gen.accept_frac": (frac(run["gen_cases"], attempts), "fraction"),
        "smt.queries": (queries, "count"),
        "smt.ms": (smt_ms, "ms"),
        "smt.z3_ms": (z3_ms, "ms"),
        "smt.wrapper_ms_per_query": (frac(smt_ms - z3_ms, queries), "ms"),
        "smt.check_ms_p50": (hist_quantile_ms(rows_c, "smt_check", 0.5), "ms"),
        "smt.check_ms_p90": (hist_quantile_ms(rows_c, "smt_check", 0.9), "ms"),
        "smt.translate_ms_p50": (hist_quantile_ms(rows_c, "smt_translate", 0.5), "ms"),
        "smt.session_reuse_frac": (frac(total("smt_session_reuse"), queries), "fraction"),
        "synth.enum_ms": (phase("enum"), "ms"),
        "synth.candidates": (candidates, "count"),
        "synth.pruned_frac": (frac(total("enum_pruned"), candidates), "fraction"),
        "synth.round_ms_p50": (hist_quantile_ms(rows_c, "enum_round", 0.5), "ms"),
        "synth.round_ms_p90": (hist_quantile_ms(rows_c, "enum_round", 0.9), "ms"),
        "eval.ms": (phase("eval"), "ms"),
        "core.induction_ms": (phase("induction"), "ms"),
        "core.other_ms": (solve_ms - phases_ms, "ms"),
        "core.refinements": (per_pass(r["child"]["refinements"] for r in rows_c), "count"),
        "core.coarsenings": (per_pass(r["child"]["coarsenings"] for r in rows_c), "count"),
        "cache.smt_hit_frac": (frac(total("cache_smt_hits"),
                                    total("cache_smt_hits") + total("cache_smt_misses")),
                               "fraction"),
        "cache.pbe_hit_frac": (frac(total("cache_pbe_hits"),
                                    total("cache_pbe_hits") + total("cache_pbe_misses")),
                               "fraction"),
        "cache.sge_hit_frac": (frac(total("cache_sge_hits"),
                                    total("cache_sge_hits") + total("cache_sge_misses")),
                               "fraction"),
        "cache.probe_ms_p50": (hist_quantile_ms(rows_c, "cache_probe", 0.5), "ms"),
        "cache.fill_ms": (per_pass(r["child"]["fill_ms"] for r in rows_c), "ms"),
        "chc.queries": (chc_queries, "count"),
        "chc.unsat": (total("chc_unsat"), "count"),
        "chc.clauses": (total("chc_clauses"), "count"),
        "chc.ms_per_query": (frac(chc_ms, chc_queries), "ms"),
        "bench.isolate_ms": (hd_quantile(isolate, 0.5), "ms"),
        "bench.speed_probe_ms": (median_probe_ms(rows_c), "ms"),
    }
