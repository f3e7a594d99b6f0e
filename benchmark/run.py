#!/usr/bin/env python3
"""Front end of the repository benchmark.

Measure one workload (run from the repository root):

    python3 benchmark/run.py --workload filing --seed 1 --seconds 20 --trace 0

builds the `imax-benchmark` package twice (plain, and with the flight
recorder compiled in), runs the plain binary for `--seconds`, and prints
`workload metric value unit` lines followed by one JSON line with the
end-to-end metrics named in BENCHMARK.json. `--trace 1` instead spends half
the time in the plain binary and half in the traced one, observing every
step, and prints the per-layer metrics; the traced binary also writes the
spans to BENCH_trace.json. Every measurement writes its full record as one
line to BENCH_results.json and exits 1 if any operation failed.

Compare two sets of runs, each a file of BENCH_results.json lines:

    python3 benchmark/run.py --compare A.jsonl B.jsonl

prints better / worse / within / unresolved for every (workload, end-to-end
metric) pair, judged by the bounds in BENCHMARK.json, and exits 1 unless
every pair is within or better.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RESULTS_PATH = "BENCH_results.json"
# A child still running this long after it started is killed and the
# run fails, so that a hang cannot outlive the benchmark's time limit.
CHILD_LIMIT_S = 150


class BenchError(Exception):
    """A run that produced no valid result."""


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build(target, traced):
    """Builds the benchmark binary into `target`; returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    if traced:
        cmd += ["--features", "trace"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own output goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    return os.path.join(target, "release", "imax-benchmark")


def binaries():
    """The plain and the traced binary. Both are built on every call (a
    no-op once built), so that only the first run of a checkout builds."""
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target"))
    return build(target, False), build(os.path.join(target, "traced"), True)


def run_child(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns its JSON record and peak RSS in MiB."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait4 reaps the child and returns its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
    lines = out.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{os.path.basename(binary)} exited {proc.returncode}")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def measure(args, spec):
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(names)}")
    plain, traced = binaries()
    w = args.workload
    if args.trace:
        base, _ = run_child(plain, w, args.seed, args.seconds / 2, False)
        traced_run, _ = run_child(traced, w, args.seed, args.seconds / 2, True)
        runs = [base, traced_run]
        plain_m, traced_m = base["metrics"], traced_run["metrics"]
        # Host times the plain run also measured come from it, untraced.
        metrics = {**traced_m, **plain_m}
        metrics["bench.trace_overhead_frac"] = {
            "value": 1.0 - traced_m["ops_per_s"]["value"] / plain_m["ops_per_s"]["value"],
            "unit": "fraction",
        }
        problems = base["problems"] + traced_run["problems"]
        plain_cycles = plain_m["sim_cycles_per_op"]["value"]
        traced_cycles = traced_m["sim_cycles_per_op"]["value"]
        if plain_cycles != traced_cycles:
            problems.append(
                f"traced run simulated {traced_cycles} cycles/op, plain {plain_cycles}")
        wanted = spec["per_layer"]
    else:
        base, rss = run_child(plain, w, args.seed, args.seconds, False)
        runs = [base]
        metrics = dict(base["metrics"])
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
        problems = list(base["problems"])
        wanted = spec["end_to_end"]

    selected = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} missing or not in {m['unit']}: {got}")
        selected[m["name"]] = got
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs) and not problems and failed == 0

    record = {
        "workload": w, "seed": args.seed, "trace": int(args.trace),
        "seconds": args.seconds, "host_cores": len(os.sched_getaffinity(0)),
        "episodes": [r["episodes"] for r in runs], "correct": correct,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": selected,
    }
    with open(RESULTS_PATH, "w") as f:
        f.write(json.dumps(record) + "\n")

    for p in problems:
        print(f"{w}: {p}", file=sys.stderr)
    print(f"{w} episodes {'+'.join(str(r['episodes']) for r in runs)} count")
    for name, m in selected.items():
        print(f"{w} {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": selected}))
    return 0 if correct else 1


def load_set(path):
    """Untraced records of one set, grouped by workload."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                if r["trace"] == 0:
                    runs.setdefault(r["workload"], []).append(r)
    return runs


def spread(values):
    """Interquartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def verdict(a, b, bound, lower_better):
    """better / worse / within / unresolved for set `b` against set `a`."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else float(med_b != med_a)
    worse_by = change if lower_better else -change
    if max(spread(a), spread(b)) > bound:
        b_wins = max(b) < min(a) if lower_better else min(b) > max(a)
        return ("better" if b_wins else "unresolved"), change
    if worse_by > bound:
        return "worse", change
    if -worse_by > bound:
        return "better", change
    return "within", change


def compare(path_a, path_b, spec):
    a, b = load_set(path_a), load_set(path_b)
    ok = True
    print(f"{'workload':<10} {'metric':<18} {'median A':>14} {'median B':>14} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a.get(w, [])]
            vb = [r["metrics"][m["name"]]["value"] for r in b.get(w, [])]
            if not va or not vb:
                print(f"{w:<10} {m['name']:<18} missing runs")
                ok = False
                continue
            v, change = verdict(va, vb, m["bound"], m["better"] == "lower")
            ok &= v in ("within", "better")
            print(f"{w:<10} {m['name']:<18} {statistics.median(va):>14.6g} "
                  f"{statistics.median(vb):>14.6g} {change:>+8.2%} "
                  f"{max(spread(va), spread(vb)):>7.2%} {m['bound']:>6.1%}  {v}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if None in (args.workload, args.seed, args.seconds, args.trace) or args.seconds <= 0:
            p.error("--workload, --seed, --seconds (> 0) and --trace are required")
        return measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError, ZeroDivisionError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
