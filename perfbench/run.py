#!/usr/bin/env python3
"""Real-path benchmark of the Slacker simulator.

Builds the program from this checkout's sources (perfbench/CMakeLists.txt
pulls in ../src) into .bench_build/, then runs one workload as a series
of repetitions, each in its own single-threaded process
(perfbench_workload), and prints every metric by name with its unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the checkout root):

    python3 perfbench/run.py --workload fleet_read_cached --seed 1 \
        --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics (spans are written to .bench_build/spans/). The workloads, the
default and held-out seeds and the golden output digests are in
perfbench/spec.json.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_workload")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")

# A run repeats the workload's deterministic timed phase K times, K =
# max(MIN_REPS, round(--seconds / the workload's nominal_timed_s from
# spec.json)); K depends only on the arguments, never on measured time.
MIN_REPS = 2
# Traced runs alternate this many untraced and traced repetitions.
TRACED_PAIRS = 2
# No repetition starts after this much wall time (a safety valve that
# keeps a run inside its time limit on a badly overloaded host).
RUN_BUDGET_S = 140.0
REP_TIMEOUT_S = 150.0

# name, unit, better
END_TO_END = [
    ("sim_wall_ratio", "x", "higher"),
    ("txn_per_s", "1/s", "higher"),
    ("migrated_mib_per_s", "MiB/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_txn_mean_ms", "ms", "lower"),
    ("sim_txn_tail_ms", "ms", "lower"),
    ("sim_migration_s", "s", "lower"),
    ("sim_downtime_p50_ms", "ms", "lower"),
]

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.events_per_txn", "count"),
    ("sim.events_per_s", "1/s"),
    ("workload.txns_completed", "count"),
    ("workload.txns_failed", "count"),
    ("workload.retries", "count"),
    ("workload.max_queue_depth", "count"),
    ("engine.ops", "count"),
    ("engine.ops_per_txn", "count"),
    ("storage.bp_hits", "count"),
    ("storage.bp_misses", "count"),
    ("storage.bp_hit_ratio", "ratio"),
    ("storage.btree_get_ns", "ns"),
    ("storage.btree_put_ns", "ns"),
    ("storage.bp_touch_ns", "ns"),
    ("storage.host_share", "ratio"),
    ("wal.binlog_mib", "MiB"),
    ("wal.append_ns", "ns"),
    ("wal.host_share", "ratio"),
    ("backup.snapshot_mib", "MiB"),
    ("backup.delta_mib", "MiB"),
    ("backup.delta_rounds", "count"),
    ("backup.chunks_retransmitted", "count"),
    ("codec.logical_mib", "MiB"),
    ("codec.wire_mib", "MiB"),
    ("codec.ratio", "ratio"),
    ("codec.chunks_lz", "count"),
    ("codec.lz_mib_per_s", "MiB/s"),
    ("codec.crc_mib_per_s", "MiB/s"),
    ("codec.host_share", "ratio"),
    ("net.messages", "count"),
    ("net.mib_sent", "MiB"),
    ("net.messages_dropped", "count"),
    ("resource.disk_util", "ratio"),
    ("resource.disk_wait_ms_mean", "ms"),
    ("resource.cpu_util", "ratio"),
    ("control.throttle_mean_mbps", "MB/s"),
    ("control.throttle_updates", "count"),
    ("slacker.migrations_ok", "count"),
    ("slacker.migrations_failed", "count"),
    ("slacker.auditor_checks", "count"),
    ("slacker.downtime_max_ms", "ms"),
    ("range.jobs", "count"),
    ("range.directory_version", "count"),
    ("other.host_share", "ratio"),
    ("trace.overhead", "ratio"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, capture_output=True,
                                  text=True, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step {step[:2]} failed: {err}")
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(done.stderr[-4000:])
            log(f"build step {' '.join(step[:2])} exited {done.returncode}")
            return False
    return os.path.exists(BINARY)


def run_rep(workload, seed, traced, rep):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS_DIR, f"{workload}-seed{seed}-rep{rep}.json")]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(done.stderr[-4000:])
        raise RuntimeError(f"perfbench_workload exited {done.returncode}")
    return json.loads(lines[-1])


def median(reps, key):
    return statistics.median(r["values"][key] for r in reps)


def robust_timed_s(reps):
    """Host seconds of the timed phase, interference removed.

    The timed phase runs in RunUntil slices that end at fixed simulated
    times, so slice i is identical work in every repetition of one
    workload and seed (run.py checks the digests agree). Summing, per
    slice, the fastest of the repetitions drops the slices that other
    processes on the host slowed down.
    """
    slices = [r["slice_ns"] for r in reps]
    if len({len(s) for s in slices}) != 1:
        raise RuntimeError("repetitions ran different slice counts")
    return sum(min(column) for column in zip(*slices)) * 1e-9


def end_to_end(reps):
    timed = robust_timed_s(reps)
    first = reps[0]["values"]
    return {
        "sim_wall_ratio": first["sim_seconds"] / timed,
        "txn_per_s": first["txns_window"] / timed,
        "migrated_mib_per_s": first["migrated_mib"] / timed,
        "setup_s": median(reps, "setup_s"),
        "peak_rss_mb": median(reps, "peak_rss_mb"),
        "sim_txn_mean_ms": first["sim_txn_mean_ms"],
        "sim_txn_tail_ms": first["sim_txn_tail_ms"],
        "sim_migration_s": first["sim_migration_s"],
        "sim_downtime_p50_ms": first["sim_downtime_p50_ms"],
    }


def per_layer(untraced, traced):
    out = {name: median(traced, name)
           for name, _ in PER_LAYER if name != "trace.overhead"}
    out["trace.overhead"] = robust_timed_s(traced) / robust_timed_s(
        untraced) - 1.0
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        log(f"unknown workload {args.workload}; "
            f"known: {', '.join(sorted(spec['workloads']))}")
        return 2
    if not build():
        return 1

    nominal = spec["workloads"][args.workload]["nominal_timed_s"]
    reps_wanted = (TRACED_PAIRS if args.trace else
                   max(MIN_REPS, round(args.seconds / nominal)))
    start = time.monotonic()
    untraced, traced = [], []
    for rep in range(reps_wanted):
        elapsed = time.monotonic() - start
        if rep >= 2 and elapsed * (rep + 1) / rep > RUN_BUDGET_S:
            log(f"time budget: stopping after {rep} repetitions")
            break
        untraced.append(run_rep(args.workload, args.seed, False, rep))
        if args.trace:
            traced.append(run_rep(args.workload, args.seed, True, rep))

    reps = untraced + traced
    problems = []
    for r in reps:
        problems += [f"rep (trace {r['trace']}): {f}" for f in r["failures"]]
    digests = sorted({r["digest"] for r in reps})
    if len(digests) != 1:
        problems.append(f"simulated outputs differ between repetitions: "
                        f"{digests}")
    golden = spec["workloads"][args.workload].get("golden_digest")
    if args.seed == spec["default_seed"] and golden and digests != [golden]:
        problems.append(f"digest {digests} != golden {golden} for the "
                        f"default seed")
    correct = not problems

    first = untraced[0]["values"]
    attempted = int(first["txn_attempted"] + first["migrations_attempted"])
    failed = int(first["txn_failed"] + first["migrations_failed"])

    print(f"workload {args.workload}  seed {args.seed}  repetitions "
          f"{len(untraced)}{' + traced ' + str(len(traced)) if traced else ''}"
          f"  digest {digests[0]}")
    if args.trace:
        values = per_layer(untraced, traced)
        table = [(name, unit) for name, unit in PER_LAYER]
    else:
        values = end_to_end(untraced)
        table = [(name, unit) for name, unit, _ in END_TO_END]
    for name, unit in table:
        print(f"  {name:32s} {values[name]:>16.6g} {unit}")
    print(f"  {'(latency samples)':32s} {int(first['txns_window']):>16d} "
          f"txns in the timed phase")
    print(f"  {'(migration jobs / handovers)':32s} "
          f"{int(first['sim_migration_jobs']):>7d} / "
          f"{int(first['sim_handovers']):<7d}")
    print(f"  {'failed_frac':32s} {failed / attempted:>16.6g} "
          f"({failed} failed txns + migrations / {attempted} attempted)")
    print(f"  {'(txn p50 / tail, simulated)':32s} "
          f"{first['sim_txn_p50_ms']:.4f} ms / "
          f"p{first['sim_txn_tail_percentile']:g} "
          f"{first['sim_txn_tail_ms']:.4f} ms")
    cpu_share = (median(untraced, "timed_cpu_s") /
                 median(untraced, "timed_wall_s"))
    print(f"  {'(host cpu / wall, timed phase)':32s} {cpu_share:>16.4f}")
    if args.trace:
        shares = {layer: values[f"{layer}.host_share"]
                  for layer in ("storage", "wal", "codec")}
        largest = max(shares, key=shares.get)
        expected = spec["workloads"][args.workload]["expect_largest_layer"]
        print(f"  replay checksum {traced[0]['replay_checksum']}")
        print(f"  design check: largest layer host share is {largest} "
              f"(expected {expected}): "
              f"{'holds' if largest == expected else 'DOES NOT HOLD'}")
    for p in problems:
        log(f"CHECK FAILED: {p}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
