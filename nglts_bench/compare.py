#!/usr/bin/env python3
"""Compare two sets of nglts_bench result files under the BENCHMARK.json bounds.

    python3 nglts_bench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the result files `run.py --out DIR` writes, ideally ten or
more runs per workload with different seeds. For every (workload, end-to-end
metric) it prints each side's median and quartiles over the runs and the
spread, (q3 - q1) / median. With two directories it also gives a verdict:

  unresolved   a side's spread exceeds the bound, and not every NEW run beats
               every BASE run
  regression   NEW's median is worse than BASE's by more than the bound
  ok           otherwise

failed_frac (failed runs over runs attempted, from every untraced file) must not
grow. Counts the program computes exactly (cluster sizes, updates and flops per
cycle, messages and bytes per cycle) are taken from the traced files and must be
identical across every run of both sides. With one directory it prints the
spreads and flags those above a third of the bound, the benchmark's steadiness
target. Exit status 1 on a regression, a grown failed_frac or a count mismatch.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ("lts.cluster_size.", "solver.updates_per_cycle", "solver.flops_per_cycle",
         "parallel.messages_per_cycle", "parallel.bytes_per_cycle")


def load(directory):
    """{workload: [result dict, ...]} of every result file in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            with open(path) as f:
                r = json.load(f)
        except (OSError, ValueError):
            continue
        if isinstance(r, dict) and "workload" in r and "metrics" in r:
            runs.setdefault(r["workload"], []).append(r)
    return runs


def stats(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def column(results, metric, traced=False):
    return [r["metrics"][metric]["value"] for r in results
            if r.get("trace", False) == traced and metric in r["metrics"]]


def failed_frac(results):
    untraced = [r for r in results if not r.get("trace")]
    attempted = sum(r["attempted"] for r in untraced)
    return sum(r["failed"] for r in untraced) / attempted if attempted else None


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = [load(d) for d in sys.argv[1:]]
    bad = False
    for wl in [w["name"] for w in spec["workloads"]]:
        per_side = [s.get(wl, []) for s in sides]
        if not any(per_side):
            continue
        print("== %s" % wl)
        for m in spec["end_to_end"]:
            cols = [column(rs, m["name"]) for rs in per_side]
            if not all(cols):
                print("  %-20s no data" % m["name"])
                continue
            line, spreads = [], []
            for c in cols:
                q1, med, q3 = stats(c)
                spreads.append((q3 - q1) / med)
                line.append("%.5g [%.5g, %.5g] n=%d spread %.1f%%" % (med, q1, q3, len(c),
                                                                     100 * spreads[-1]))
            bound = m["bound"]
            if len(cols) == 1:
                flag = "steady" if spreads[0] < bound / 3 else "NOISY (target < %.1f%%)" % (
                    100 * bound / 3)
                print("  %-20s %-6s %s  %s" % (m["name"], m["unit"], line[0], flag))
                continue
            base, new = (stats(c)[1] for c in cols)
            lower = m["better"] == "lower"
            worse = (new - base) / base if lower else (base - new) / base
            all_better = (max(cols[1]) < min(cols[0])) if lower else (min(cols[1]) > max(cols[0]))
            if max(spreads) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict, bad = "REGRESSION", True
            else:
                verdict = "ok"
            print("  %-20s %-6s base %s | new %s | worse by %+.1f%% (bound %.0f%%): %s" % (
                m["name"], m["unit"], line[0], line[1], 100 * worse, 100 * bound, verdict))
        fracs = [failed_frac(rs) for rs in per_side]
        print("  %-20s %s" % ("failed_frac", " | ".join(
            "n/a" if f is None else "%.3g" % f for f in fracs)))
        if len(fracs) == 2 and None not in fracs and fracs[1] > fracs[0]:
            print("    failed_frac grew: REGRESSION")
            bad = True
        traced = [r for rs in per_side for r in rs if r.get("trace")]
        for name in sorted({k for r in traced for k in r["metrics"] if k.startswith(EXACT)}):
            values = sorted(set(column(traced, name, traced=True)))
            verdict = "exact" if len(values) == 1 else "DIFFERS"
            bad = bad or len(values) != 1
            print("  %-34s %s  %s" % (name, " ".join("%.17g" % v for v in values), verdict))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
