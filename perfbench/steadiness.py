#!/usr/bin/env python3
"""Steadiness self-check for the CQoS benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--traced] [--inject-servant-us 20]

Runs each workload --runs times with different seeds through run.py and
prints, for every end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json.

--traced also makes the traced runs and prints the same figures for every
per-layer metric (those have no bound).

--inject-servant-us X repeats the runs of the first workload of
BENCHMARK.json with a busy-wait of X us added to every dispatch of the
benchmark's own wrapper servant, and compares medians the way a regression
gate does: a metric whose median is worse than the clean median by more
than its bound is FLAGGED. The check fails unless the slowdown is flagged.

Exit status 0 when every spread is within its bound and the injected
slowdown (if asked for) is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace, inject_us=0.0):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if inject_us:
        cmd += ["--inject-servant-us", str(inject_us)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"run failed ({p.returncode}): {' '.join(cmd)}\n{p.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("run reported failures:\n" + p.stdout)
    return result


def series(workload, seeds, seconds, trace, inject_us=0.0):
    values = {}
    for seed in seeds:
        r = run_once(workload, seed, seconds, trace, inject_us)
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"  seed {seed}: {r['attempted']} calls, {r['failed']} failed",
              flush=True)
    return values


def summary(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def print_table(values, metrics):
    ok = True
    print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for m in metrics:
        med, q1, q3, spread = summary(values[m["name"]])
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            ok = False
        b = f"{bound:6.2f}" if bound is not None else " " * 6
        print(f"  {m['name']:28} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.4f} {b}  {verdict}")
    return ok


def worse_by(m, base, new):
    """Share by which `new` is worse than `base` (negative: better)."""
    if m["better"] == "lower":
        return new / base - 1.0
    return 1.0 - new / base


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--traced", action="store_true")
    p.add_argument("--inject-servant-us", type=float, default=0.0)
    a = p.parse_args()
    seeds = list(range(a.first_seed, a.first_seed + a.runs))
    ok = True
    clean = {}
    for w in a.workloads.split(","):
        print(f"{w}: {a.runs} untraced runs of {a.seconds} s", flush=True)
        clean[w] = series(w, seeds, a.seconds, 0)
        ok &= print_table(clean[w], spec["end_to_end"])
        if a.traced:
            print(f"{w}: {a.runs} traced runs of {a.seconds} s", flush=True)
            print_table(series(w, seeds, a.seconds, 1), spec["per_layer"])
    if a.inject_servant_us > 0:
        w = names[0]
        if w not in clean:
            clean[w] = series(w, seeds, a.seconds, 0)
        print(f"{w}: {a.runs} runs with {a.inject_servant_us} us injected "
              f"into every servant dispatch", flush=True)
        slow = series(w, seeds, a.seconds, 0, a.inject_servant_us)
        flagged = []
        for m in spec["end_to_end"]:
            base = statistics.median(clean[w][m["name"]])
            new = statistics.median(slow[m["name"]])
            share = worse_by(m, base, new)
            hit = share > m["bound"]
            if hit:
                flagged.append(m["name"])
            print(f"  {m['name']:28} clean {base:12.5g} injected {new:12.5g} "
                  f"worse by {share:+8.4f} (bound {m['bound']:.2f})"
                  f"{'  FLAGGED' if hit else ''}")
        if not flagged:
            print("  the injected slowdown was NOT flagged")
            ok = False
    print("steadiness: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
