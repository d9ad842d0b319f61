"""Benchmark for behapprox: CLI-level costs on seeded instance families.

Usage, from the root of a checkout:

    python3 bench/run.py --workload nondet-56k --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --smoke

A run is a closed loop with a single client: every operation starts after
the previous one has finished, with no threads. The run starts the
workload's ``WORKERS`` worker processes one after another, each set up
afresh under its own ``PYTHONHASHSEED`` derived from ``--seed``, so output
that depends on the hash seed shows up as failed operations. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones from a
single traced worker (see ``tracing.py``). Times are scaled to a reference
machine speed (see ``speed.py``). A readable copy of the metrics, the exact
size counters and the unscaled times goes to standard error.
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
SRC = os.path.join(ROOT, "src")
NAMES = ("det-game", "sessions-5x6", "nondet-56k")
#: Worker processes per measured run. All of a run's workers take the
#: same session walks, so a second worker adds a hash seed to compare the
#: walks under, not walks; it costs a set-up and the walks again, which
#: only ``det-game`` has the time for.
WORKERS = {"det-game": 2, "sessions-5x6": 1, "nondet-56k": 1}
#: A run gives up when its workers have taken this long together.
RUN_TIMEOUT = 170

#: End-to-end metric -> unit.
END_TO_END = {
    "approx_s": "s", "check_s": "s", "game_approx_s": "s",
    "game_check_s": "s", "compare_s": "s", "step_p50_us": "us",
    "step_p99_us": "us", "open_ms": "ms", "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the session walks and the hash seeds")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the measured rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small instances of the same shapes, for tests")
    # Set by the run for each of its workers.
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spawn_workers(args):
    """Run the workers of one run; returns their records, or an exit code."""
    workers = 1 if args.trace else WORKERS[args.workload]
    records = []
    started = time.monotonic()
    for index in range(workers):
        hash_seed = (2 * args.seed + index) % 2 ** 32
        argv = [sys.executable, os.path.abspath(__file__),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds / workers),
                "--trace", str(args.trace), "--worker", str(index),
                "--spawned", repr(time.perf_counter())]
        if args.smoke:
            argv.append("--smoke")
        try:
            done = subprocess.run(
                argv, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
                stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, RUN_TIMEOUT - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            print("error: %s worker %d timed out" % (args.workload, index),
                  file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("error: %s worker %d exited with %d"
                  % (args.workload, index, done.returncode), file=sys.stderr)
            return done.returncode or 1
        records.append(json.loads(lines[-1]))
    return records


def end_to_end(records):
    """The end-to-end metrics of a run, pooled over its workers.

    The step metrics take the honored steps after each session's first
    request. ``step_p50_us`` is the median of each request's median over
    the walk replays, and ``step_p99_us`` the 99th percentile of each
    request's fastest replay: requests that are slow every time, not those
    that the machine slowed down in some replays.
    ``open_ms`` is the median, over sessions, of the time to open a
    session and answer its first request.
    """
    metrics = {}
    for name in records[0]["samples"]:
        pooled = [t for r in records for t in r["samples"][name]]
        metrics["%s_s" % name] = statistics.median(pooled)
    latencies = [t for r in records for t in r["walks"]["latencies"]]
    metrics["step_p50_us"] = statistics.median(latencies) * 1e6
    fastest = [t for r in records for t in r["walks"]["fastest"]]
    metrics["step_p99_us"] = statistics.quantiles(fastest, n=100)[98] * 1e6
    opens = [t for r in records for t in r["walks"]["opens"]]
    metrics["open_ms"] = statistics.median(opens) * 1e3
    metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in records)
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in records)
    return metrics


def summarize(args, records):
    """The result object of one run, checks across workers included."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    notes = [note for r in records for note in r["notes"]]
    if args.trace:
        from tracing import PER_LAYER as units
        metrics = records[0]["metrics"]
        counts = {"spans_file": records[0]["spans_file"]}
    else:
        # The same walks under every hash seed must take the same steps.
        attempted += 1
        if len({r["walks"]["trail"] for r in records}) != 1:
            failed += 1
            notes.append("session walks differ between hash seeds")
        walks = records[0]["walks"]
        steps = sum(len(r["walks"]["latencies"]) for r in records)
        if steps < 100:
            print("error: only %d honored steps" % steps, file=sys.stderr)
            return None
        metrics = end_to_end(records)
        units = END_TO_END
        counts = {"workers": len(records), "honored_steps": steps,
                  "requests": walks["requests"],
                  "refusals": walks["refusals"],
                  "sessions": walks["sessions"],
                  "samples": {name: [len(r["samples"][name]) for r in records]
                              for name in records[0]["samples"]},
                  # The same times before scaling to the reference speed.
                  "wall_s": {name: statistics.median(
                      t for r in records for t in r["raw_samples"][name])
                      for name in records[0]["raw_samples"]},
                  "wall_setup_s": statistics.median(
                      r["raw_setup_s"] for r in records),
                  "probes": sum(r["probes"] for r in records)}
    for note in notes[:20]:
        print("FAILED: %s" % note, file=sys.stderr)
    for name, unit in units.items():
        print("%s %s %.6g %s" % (args.workload, name, metrics[name], unit),
              file=sys.stderr)
    print("%s counts %s" % (args.workload, json.dumps(counts)),
          file=sys.stderr)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def run_all(args):
    """Each workload as its own run, one after another; one summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        result = run_workload(
            argparse.Namespace(**dict(vars(args), workload=name)))
        if not isinstance(result, dict):
            return result
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(summary))
    return 0


def run_workload(args):
    """One run; returns its result object, or an exit code."""
    records = spawn_workers(args)
    if isinstance(records, int):
        return records
    result = summarize(args, records)
    return 1 if result is None else result


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "behapprox", "__init__.py")):
        print("error: no behapprox sources at %s; run from a checkout"
              % os.path.relpath(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.worker is not None:
        from speed import Speed
        speed = Speed()
        speed.start()
        import workload
        print(json.dumps(workload.run_worker(args, speed)))
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    if not isinstance(result, dict):
        return result
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
