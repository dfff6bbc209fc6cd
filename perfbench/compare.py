#!/usr/bin/env python3
"""Diffs two benchmark runs problem by problem.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Reads the per-problem records run.py leaves in .bench_build/perfbench-out/
and prints, in this order:
  1. verdict changes, by problem name;
  2. differences in the exact counts (SMT queries, enumerator candidates,
     CHC queries, refinements, coarsenings) on problems both runs answer
     before the budget;
  3. time-to-verdict ratios NEW/BASE over the problems both runs solve,
     each time scaled by its attempt's speed probe (README.md).
A change between two verdicts reached before the budget, or a count
difference, makes the exit status 1. A change to or from a timeout is
listed but does not, since a verdict at the budget depends on host speed.
When a run has several passes, only its first pass is compared.
"""

import argparse
import math
import statistics
import sys

sys.dont_write_bytecode = True
import records as rec  # noqa: E402

# How many of the largest and of the smallest time ratios are listed.
TOP = 10
COUNT_NAMES = ("smt.queries", "synth.candidates", "chc.queries",
               "core.refinements", "core.coarsenings")


def by_name(path):
    _, rows = rec.load(path)
    return {r["name"]: r for r in rows if r["pass"] == 0}


def verdict(row):
    c = row.get("child")
    if rec.failure(row) and (c is None or row.get("killed")):
        return "crash"
    return c["verdict"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    a, b = by_name(args.base), by_name(args.new)
    shared = sorted(set(a) & set(b))
    bad = 0

    print(f"problems: {len(a)} in base, {len(b)} in new, {len(shared)} shared")
    for name in sorted(set(a) ^ set(b)):
        print(f"  only in {'base' if name in a else 'new'}: {name}")

    print("1. verdict changes")
    changes = 0
    for name in shared:
        va, vb = verdict(a[name]), verdict(b[name])
        if va == vb:
            continue
        changes += 1
        at_budget = "timeout" in (va, vb)
        bad += not at_budget
        print(f"  {name}: {va} -> {vb}" + ("  (at the budget)" if at_budget else ""))
    if not changes:
        print("  none")

    print("2. exact-count differences (both answered before the budget)")
    diffs = 0
    for name in shared:
        ra, rb = a[name], b[name]
        if "timeout" in (verdict(ra), verdict(rb)) or "crash" in (verdict(ra), verdict(rb)):
            continue
        ca, cb = rec.counts(ra), rec.counts(rb)
        for label, x, y in zip(COUNT_NAMES, ca, cb):
            if x != y:
                diffs += 1
                print(f"  {name}: {label} {x} -> {y}")
    bad += diffs
    if not diffs:
        print("  none")

    print("3. time to verdict, new/base, over problems both solve (scaled)")
    both = [n for n in shared if rec.solved(a[n]) and rec.solved(b[n])]

    def ms_a(n):
        return rec.scaled_verdict_ms(a[n])

    def ms_b(n):
        return rec.scaled_verdict_ms(b[n])

    if both:
        ratios = sorted(((ms_b(n) / ms_a(n), n) for n in both), reverse=True)
        sa = sum(ms_a(n) for n in both)
        sb = sum(ms_b(n) for n in both)
        geo = math.exp(statistics.fmean(math.log(r) for r, _ in ratios))
        print(f"  {len(both)} problems; sum {sa:.0f} ms -> {sb:.0f} ms "
              f"(x{sb / sa:.3f}); median ratio "
              f"x{statistics.median(r for r, _ in ratios):.3f}; "
              f"geometric mean x{geo:.3f}")
        shown = ratios[:TOP] + ratios[-TOP:] if len(ratios) > 2 * TOP else ratios
        for r, n in shown:
            print(f"  {n}: {ms_a(n):.1f} ms -> {ms_b(n):.1f} ms (x{r:.3f})")
    else:
        print("  no problem solved by both runs")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
