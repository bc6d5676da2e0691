#!/usr/bin/env python3
"""End-to-end benchmark of nglts: one workload, one seed, one measuring window.

    python3 nglts_bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

On first use in a checkout it builds the executable (nglts_bench.cpp) together with
the library from the checkout's sources into .bench_build/. The load is a closed
loop of one client: one simulation per process, the next process starting when
the previous one has exited, for as many runs as fit in S seconds. Every process
pays its own setup and first cycle, as a user does.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over the
runs); --trace 1 runs the machine probe once and the traced executable in the
window, and reports the per-layer metrics. Every run's receiver traces are
checked against the committed reference (reference/<workload>.trace) scaled by
the seed's amplitudes, and all runs of one seed must agree bitwise.

Prints every metric by name with its unit; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. --out DIR also
writes a result file with every run and the run metadata (for compare.py).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "nglts_bench")
RUN_TIMEOUT_S = 100  # one process; keeps a whole run under three minutes


def fail_setup(msg):
    print("nglts_bench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail_setup("cannot read %s: %s" % (path, e))


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail_setup("the library sources (CMakeLists.txt, src/) are not in %s" % ROOT)
    tmp = os.path.join(BUILD_DIR, "tmp")  # keeps the compiler's temporaries in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, env=env)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "2", "--target", "nglts_bench"],
                       stdout=sys.stderr, check=True, env=env)
    except (OSError, subprocess.CalledProcessError) as e:
        fail_setup("build failed: %s" % e)
    return os.path.join(BUILD_DIR, "nglts_bench")


def run_once(exe, args):
    """One nglts_bench process; its last stdout line is its JSON record."""
    try:
        p = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "detail": "timed out after %d s" % RUN_TIMEOUT_S}
    lines = p.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = {"ok": False, "detail": "no result (exit %d): %s" % (p.returncode, p.stderr[-400:])}
    if p.returncode != 0:
        rec["ok"] = False
    return rec


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def roofline(layers, probe):
    """Achieved GFLOP/s over min(FMA peak, triad bandwidth x computed intensity)."""
    peak = probe["machine.fma_peak_gflops_" + layers["precision"]]
    out = {}
    for side in ("local", "neighbor"):
        roof = min(peak, probe["machine.triad_gbs"] * layers["kernels.%s_flops_per_byte" % side])
        out["kernels.%s_roofline_frac" % side] = layers["kernels.%s_gflops" % side] / roof
    return out


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for the result file and span traces")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail_setup("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    out_dir = os.path.abspath(args.out or os.path.join(ROOT, ".bench_out"))
    os.makedirs(out_dir, exist_ok=True)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--reference", os.path.join(HERE, "reference", args.workload + ".trace")]
    if args.trace:
        cmd += ["--trace", os.path.join(out_dir, args.workload + ".trace.json")]

    start = time.monotonic()
    probe = run_once(exe, ["--probe"]) if args.trace else {}
    records = []
    while True:
        t0 = time.monotonic()
        records.append(run_once(exe, cmd))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > args.seconds:
            break  # the next run would not end inside the window

    # A run fails when it errs or misses the reference; runs of one seed must
    # also agree bitwise, so runs off the majority digest fail too.
    good = [r for r in records if r.get("ok")]
    digests = [r["digest"] for r in good]
    if digests:
        majority = max(set(digests), key=digests.count)
        good = [r for r in good if r["digest"] == majority]
    failed = len(records) - len(good)
    if args.trace and not probe.get("machine.triad_gbs"):
        failed += 1
    base = good or [r for r in records if "setup_s" in r]

    values = {}
    if args.trace:
        for r in base:
            layers = dict(r["layers"], precision=r["meta"]["precision"])
            if probe.get("machine.triad_gbs"):
                layers.update(probe)
                layers.update(roofline(layers, probe))
            for k, v in layers.items():
                values.setdefault(k, []).append(v)
        wanted = spec["per_layer"]
    else:
        for r in base:
            for m in spec["end_to_end"]:
                values.setdefault(m["name"], []).append(r[m["name"]])
        wanted = spec["end_to_end"]

    metrics, summary = {}, {}
    for m in wanted:
        v = [x for x in values.get(m["name"], []) if x is not None]
        if not v:
            failed = max(failed, 1)
            continue
        q1, med, q3 = quartiles(v)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(v)}

    correct = failed == 0 and len(metrics) == len(wanted)
    mode = "traced" if args.trace else "untraced"
    print("%s seed %d: %d %s runs in %.1f s, %d failed" % (
        args.workload, args.seed, len(records), mode, time.monotonic() - start, failed))
    kept = {id(r) for r in good}
    for r in records:
        if id(r) not in kept:
            print("  failed run: %s" % (r.get("detail") or "traces differ from the other runs"))
    for m in wanted:
        s = summary.get(m["name"])
        if s:
            print("  %-36s %14.6g %-8s (median of %d, q1 %.6g, q3 %.6g)" % (
                m["name"], s["median"], m["unit"], s["n"], s["q1"], s["q3"]))
        else:
            print("  %-36s missing" % m["name"])

    result = {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
    if args.out:
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = os.path.join(out_dir, "%s.%s.seed%d.%s.json" % (args.workload, mode, args.seed, stamp))
        with open(path, "w") as f:
            json.dump(dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                           trace=bool(args.trace), summary=summary, probe=probe,
                           meta=(base[0].get("meta") if base else None), runs=records),
                      f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
