#!/usr/bin/env python3
"""Simulator benchmark: sweep wall time and source-op throughput.

Run from the repository root:

    python3 perfbench/run.py --workload fig14 --seed 0 --seconds 10 --trace 0

Builds perfbench/ (which compiles the simulator from ../src) into
.bench_build/perfbench, then runs the workload's sweep as a fresh
`aosbench` process again and again until --seconds have passed, and
prints one JSON line with the metrics named in BENCHMARK.json:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

A --trace 1 run alternates untraced and traced sweeps, so it can report
the tracing overhead and check that the traced runner's simulated stats
equal AosSystem's.

Every job's simulated stats are reduced to a digest. For the seeds that
perfbench/pins/<workload>.json holds, each digest must equal the pinned
one; for any other seed the run says "unverified" and only checks that
every sweep of the run reproduces the first one. A job that does not
finish ok or whose digest differs counts as failed.

--capture-pins rewrites the pins for the workload instead of measuring.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "aosbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "trace")
PINS_DIR = os.path.join(BENCH_DIR, "pins")

WORKLOADS = ("fig14", "timed_loop", "warmup")
PINNED_SEEDS = (0, 7919)  # The default seed and one held-out seed.
MIN_SWEEPS = 3            # Per mode, whatever --seconds says.
SWEEP_TIMEOUT_S = 170
# A traced job may leave at most this share of its wall time, or this
# many ms if that is more, outside every layer span: the traced
# runner's own glue (block scans, buffers, result assembly).
MAX_UNATTRIBUTED_PCT = 3.0
MAX_UNATTRIBUTED_MS = 0.5


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once and (re)build aosbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found at src/ "
                         "beside perfbench/")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "aosbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def aosbench(mode, workload, seed, window=None, spans_out=None):
    """Run one aosbench process; return its JSON plus host timings."""
    cmd = [BINARY, mode, "--workload", workload, "--seed", str(seed)]
    if window:
        cmd += ["--window", str(window)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    start_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} sweep of {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    out = json.loads(proc.stdout)
    if mode != "count":
        # Both clocks are CLOCK_MONOTONIC, so wall time measures from just
        # before this process spawned the child. Set-up time starts at the
        # child's main(): spawning and dynamic loading cost about as much
        # as the set-up itself, and vary more between runs.
        out["wall_s"] = (out["t_end_ns"] - start_ns) / 1e9
        first_sim = out["t_first_sim_ns"]
        out["setup_s"] = ((first_sim - out["t_main_ns"]) / 1e9
                          if first_sim < out["t_end_ns"] else None)
    return out


def fast_median(values):
    """Median of the faster half of @values.

    Other tenants of a shared host only ever add time, in bursts that
    hit a varying share of a run's sweeps. The faster half's median
    tracks the sweep's own cost and moves less between runs than the
    median of all sweeps.
    """
    ordered = sorted(values)
    return statistics.median(ordered[:(len(ordered) + 1) // 2])


def digests(sweep):
    return {job["name"]: job["digest"] for job in sweep["jobs"]}


def failed_jobs(sweep, expected):
    """Names of jobs that did not finish ok or differ from @expected.

    @expected maps job name to digest; None checks only the status.
    """
    failed = []
    for job in sweep["jobs"]:
        if job["status"] != "ok":
            failed.append(f"{job['name']} ({job['status']})")
        elif expected is not None and expected.get(job["name"]) != \
                job["digest"]:
            failed.append(f"{job['name']} (digest {job['digest']})")
    return failed


def load_pins(workload, seed, window, pins_dir=PINS_DIR):
    """Pinned digests for (workload, seed) at @window, or None."""
    path = os.path.join(pins_dir, f"{workload}.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        pins = json.load(f)
    if pins.get("window") != window:
        return None
    return pins["seeds"].get(str(seed))


def metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(workload, seed, seconds, trace, window=None, pins_dir=PINS_DIR):
    """Run the workload for @seconds; return the result line's dict."""
    e2e_units, layer_units = metric_units()
    counts = aosbench("count", workload, seed, window)
    src_ops = sum(j["src_warm"] + j["src_measured"] for j in counts["jobs"])
    window = counts["window"]

    expected = load_pins(workload, seed, window, pins_dir)
    if expected is None:
        print(f"perfbench: {workload} seed {seed} at window {window} has no "
              "pinned digests: results unverified (checked for "
              "run-to-run repeatability only)")
    else:
        print(f"perfbench: {workload} seed {seed}: verifying against "
              "pinned digests")

    modes = ("plain", "traced") if trace else ("plain",)
    sweeps = {mode: [] for mode in modes}
    spans_out = None
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_out = os.path.join(SPANS_DIR, f"{workload}-seed{seed}.tsv")
    start = time.monotonic()
    while (time.monotonic() - start < seconds or
           len(sweeps["plain"]) < MIN_SWEEPS):
        for mode in modes:
            sweeps[mode].append(aosbench(
                mode, workload, seed, window,
                spans_out if mode == "traced" else None))

    problems = []
    attempted = failed = 0
    reference = expected or digests(sweeps["plain"][0])
    for mode in modes:
        for sweep in sweeps[mode]:
            attempted += len(sweep["jobs"])
            bad = failed_jobs(sweep, reference)
            failed += len(bad)
            problems += [f"{mode}: {name}" for name in bad]

    if trace:
        metrics, layer_problems = layer_metrics(
            sweeps, counts, layer_units)
        problems += layer_problems
    else:
        plain = sweeps["plain"]
        wall = fast_median(s["wall_s"] for s in plain)
        setups = [s["setup_s"] for s in plain if s["setup_s"] is not None]
        cycles = sum(j["cycles"] for j in plain[0]["jobs"])
        values = {
            "wall_s": wall,
            "setup_s": fast_median(setups) if setups else 0.0,
            "src_mops_per_s": src_ops / wall / 1e6,
            "sim_mcycles_per_s": cycles / wall / 1e6,
            "peak_rss_mb": statistics.median(
                s["rss_kb"] for s in plain) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in e2e_units.items()}
        if not setups:
            problems.append("no job started to simulate")

    for problem in problems:
        log(problem)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def uncovered_jobs(traced_sweeps):
    """(name, ms) of jobs with too much time outside the layer spans.

    A worker preempted between two spans adds that wait to the job's
    unattributed time, so a job fails only if it exceeds the tolerance
    in every sweep: time the runner itself leaves uncovered shows up
    each time, a preemption does not.
    """
    excess = {}
    for sweep in traced_sweeps:
        for job in sweep["jobs"]:
            over = job["unattributed_ms"] - max(
                MAX_UNATTRIBUTED_PCT / 100 * job["traced_ms"],
                MAX_UNATTRIBUTED_MS)
            excess[job["name"]] = min(over, excess.get(job["name"], over))
    return [(name, over) for name, over in excess.items() if over > 0]


def layer_metrics(sweeps, counts, units):
    """Per-layer metrics: medians over the traced sweeps, plus checks."""
    traced = sweeps["traced"]
    problems = []
    # The generator's own split at the phase mark, from the count pass.
    values = {
        "workloads.src_ops_warm": sum(j["src_warm"] for j in counts["jobs"]),
        "workloads.src_ops_measured": sum(j["src_measured"]
                                          for j in counts["jobs"]),
    }
    for name in units:
        if name not in values and name != "trace.overhead_pct":
            values[name] = statistics.median(s["layers"][name]
                                             for s in traced)
    plain_wall = fast_median(s["wall_s"] for s in sweeps["plain"])
    traced_wall = fast_median(s["wall_s"] for s in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1)

    problems += [f"traced job {name} left {over:.3f} ms more than the "
                 "tolerance outside every layer span"
                 for name, over in uncovered_jobs(traced)]
    src_ops = (values["workloads.src_ops_warm"] +
               values["workloads.src_ops_measured"])
    if any(s["layers"]["workloads.src_ops"] != src_ops for s in traced):
        problems.append("the traced run pulled a different number of "
                        "source ops than the generator emits")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return metrics, problems


def capture_pins(workload):
    """Pin each PINNED_SEEDS digest after AosSystem and the traced
    runner agree on it."""
    pinned = {}
    for seed in PINNED_SEEDS:
        plain = aosbench("plain", workload, seed)
        traced = aosbench("traced", workload, seed)
        bad = failed_jobs(plain, None) + failed_jobs(traced, digests(plain))
        if bad:
            raise BenchError(f"cannot pin {workload} seed {seed}: {bad}")
        pinned[str(seed)] = digests(plain)
        window = plain["window"]
    os.makedirs(PINS_DIR, exist_ok=True)
    path = os.path.join(PINS_DIR, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": workload, "window": window, "seeds": pinned},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"pinned {len(PINNED_SEEDS)} seeds of {workload} in {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        build()
        if args.capture_pins:
            capture_pins(args.workload)
            return 0
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
