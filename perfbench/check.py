#!/usr/bin/env python3
"""The benchmark's own checks. Run from the root of a checkout.

    python3 perfbench/check.py selftest  [--seconds S]
        The measurement's self-tests (synthetic spans, the exact minor-word
        count, the tail rule), then per workload: two traced runs of one seed
        give identical per-layer counts, two untraced runs of one seed give an
        identical heap_peak_mb, and trace.overhead_ms is not negative beyond
        the bound of ops_per_cpu_s (as a share of the untraced window).

    python3 perfbench/check.py sweep     [--seeds 1,2,...,10] [--workloads a,b]
                                         [--seconds S]
        The seed sweep: each workload once at each of three or more seeds
        (ten by default). Prints each end-to-end metric's median and its
        spread, the quartile distance as a share of the median
        (statistics.quantiles(values, n=4)), against its bound in
        BENCHMARK.json. Fails when a spread exceeds its bound or an op
        fails.

    python3 perfbench/check.py compare OLD NEW
        Compare two saved outputs of run.py (its whole standard output).
        Refuses, exit 2, when their workload parameter digests differ:
        results of different workloads are never compared.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN = ["python3", os.path.join("perfbench", "run.py")]


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return parse(out)


def parse(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def arg(name, default):
    if name in sys.argv:
        return sys.argv[sys.argv.index(name) + 1]
    return default


def selftest(seconds):
    ok = subprocess.run(RUN + ["--self-test"]).returncode == 0
    tolerance = BOUNDS["ops_per_cpu_s"]
    for w in WORKLOADS:
        (da, a), (_, b) = bench(w, 7, seconds, 1), bench(w, 7, seconds, 1)
        va, vb = values(a), values(b)
        counts = [m["name"] for m in SPEC["per_layer"]
                  if a["metrics"][m["name"]]["unit"] in ("count", "bytes")]
        diff = [n for n in counts if va[n] != vb[n]]
        print(("ok  " if not diff else "FAIL"), w, "per-layer counts repeat", diff or "")
        ok &= not diff
        window = float(da["extras"]["window_untraced_ms"])
        over = va["trace.overhead_ms"], vb["trace.overhead_ms"]
        good = min(over) >= -tolerance * window
        print(("ok  " if good else "FAIL"), w, "trace.overhead_ms", over,
              "not below", -tolerance * window)
        ok &= good
        (_, x), (_, y) = bench(w, 7, seconds, 0), bench(w, 7, seconds, 0)
        hx, hy = values(x)["heap_peak_mb"], values(y)["heap_peak_mb"]
        print(("ok  " if hx == hy else "FAIL"), w, "heap_peak_mb repeats", hx, hy)
        ok &= hx == hy and x["correct"] and y["correct"]
    return 0 if ok else 1


def sweep(seeds, workloads, seconds):
    ok = True
    for w in workloads:
        runs = [bench(w, s, seconds, 0) for s in seeds]
        results = [r for _, r in runs]
        failed = sum(r["failed"] for r in results)
        ok &= failed == 0 and all(r["correct"] for r in results)
        print(f"{w}: {len(seeds)} seeds, {failed} failed ops", flush=True)
        print("  calibration_ms: " + " ".join(f"{d['calibration_ms']:.1f}" for d, _ in runs))
        for name, bound in BOUNDS.items():
            xs = [values(r)[name] for r in results]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            s = (q3 - q1) / statistics.median(xs)
            good = s <= bound
            ok &= good
            note = "" if s < bound / 3 else "  (above a third of the bound)"
            print(f"  {'ok  ' if good else 'FAIL'} {name:14} median {statistics.median(xs):.6g}"
                  f"  spread {s:.3f}  bound {bound}{note}")
            print("       runs: " + " ".join(f"{x:.5g}" for x in xs), flush=True)
    return 0 if ok else 1


def compare(old_path, new_path):
    (dold, rold), (dnew, rnew) = parse(open(old_path).read()), parse(open(new_path).read())
    if dold["params_digest"] != dnew["params_digest"] or dold["trace"] != dnew["trace"]:
        print(f"refusing to compare: workload digests differ "
              f"({dold['workload']} {dold['params_digest']} vs "
              f"{dnew['workload']} {dnew['params_digest']})")
        return 2
    print(f"{dold['workload']}: calibration {dold['calibration_ms']:.1f} ms -> "
          f"{dnew['calibration_ms']:.1f} ms")
    for name, m in rnew["metrics"].items():
        a, b = rold["metrics"][name]["value"], m["value"]
        change = (b - a) / a if a else float("nan")
        print(f"  {name:30} {a:14.6g} -> {b:14.6g} {m['unit']:6} {change:+.3f}")
    return 0


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    seconds = int(arg("--seconds", SPEC["run_seconds"]))
    if mode == "selftest":
        return selftest(seconds)
    if mode == "sweep":
        seeds = [int(x) for x in arg("--seeds", "1,2,3,4,5,6,7,8,9,10").split(",")]
        if len(seeds) < 3:
            print("sweep: give three or more seeds")
            return 2
        return sweep(seeds, arg("--workloads", ",".join(WORKLOADS)).split(","), seconds)
    if mode == "compare" and len(sys.argv) == 4:
        return compare(sys.argv[2], sys.argv[3])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
