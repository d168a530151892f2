#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny measured windows.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it checks that:
  - a plain and a traced sweep finish every job ok, with equal digests
    (the traced runner simulates exactly what AosSystem does) and with
    no traced job leaving time outside the layer spans;
  - a deliberately altered digest counts as exactly one failed job;
  - run.measure(), given pins for the tiny window, passes with 0 failed
    jobs and reports every end-to-end metric (untraced), and with one
    pinned digest altered reports the run incorrect and that job failed
    in every sweep while still reporting every per-layer metric (traced);
  - the checked-in pins cover every job of both pinned seeds at the
    workload's real window.

Exits 0 when every check passes. Scratch files go to .bench_build/.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY_WINDOW = {"fig14": 2000, "timed_loop": 5000, "warmup": 1000}


def check(ok, what):
    if not ok:
        sys.exit(f"selftest: FAIL: {what}")
    print(f"selftest: ok: {what}", flush=True)


def write_pins(pins_dir, workload, window, digests):
    os.makedirs(pins_dir, exist_ok=True)
    with open(os.path.join(pins_dir, f"{workload}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"workload": workload, "window": window,
                   "seeds": {"0": digests}}, f)


def test_workload(workload, scratch, e2e_units, layer_units):
    window = TINY_WINDOW[workload]
    plain = run.aosbench("plain", workload, 0, window)
    traced = [run.aosbench("traced", workload, 0, window) for _ in range(2)]
    check(not run.failed_jobs(plain, None),
          f"{workload}: every plain job finishes ok")
    digests = run.digests(plain)
    check(not any(run.failed_jobs(sweep, digests) for sweep in traced),
          f"{workload}: traced runner stats equal AosSystem's")
    check(not run.uncovered_jobs(traced),
          f"{workload}: layer spans cover each traced job")

    victim = sorted(digests)[0]
    altered = dict(digests, **{victim: "0" * 16})
    bad = run.failed_jobs(plain, altered)
    check(len(bad) == 1 and bad[0].startswith(victim + " "),
          f"{workload}: a mismatched digest is one failed job")

    pins_dir = os.path.join(scratch, "pins")
    write_pins(pins_dir, workload, window, digests)
    result = run.measure(workload, 0, 0, False, window, pins_dir)
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= len(digests),
          f"{workload}: pinned run passes with 0 failed jobs")
    check(set(result["metrics"]) == set(e2e_units),
          f"{workload}: an untraced run reports every end-to-end metric")

    write_pins(pins_dir, workload, window, altered)
    result = run.measure(workload, 0, 0, True, window, pins_dir)
    sweeps = result["attempted"] // len(digests)
    check(not result["correct"] and result["failed"] == sweeps,
          f"{workload}: an altered pin fails that job in all {sweeps} "
          "sweeps")
    check(set(result["metrics"]) == set(layer_units),
          f"{workload}: a traced run reports every per-layer metric")


def test_pins(workload):
    counts = run.aosbench("count", workload, 0)
    names = {job["name"] for job in counts["jobs"]}
    for seed in run.PINNED_SEEDS:
        pins = run.load_pins(workload, seed, counts["window"])
        check(pins is not None and set(pins) == names,
              f"{workload}: pins cover every job of seed {seed}")


def main():
    run.build()
    scratch = os.path.join(run.ROOT, ".bench_build", "selftest")
    e2e_units, layer_units = run.metric_units()
    for workload in run.WORKLOADS:
        test_workload(workload, scratch, e2e_units, layer_units)
        test_pins(workload)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
