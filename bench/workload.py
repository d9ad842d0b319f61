"""One worker process: set up one workload, then measure or trace it.

``run.py`` starts the workers and imports this module in each of them, once
the program's sources are on the path and the worker's hash seed is in
place. A worker prints one JSON record of its samples; ``run.py`` pools
the records of a run into its metrics.
"""

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics

from behapprox import (AdversarialResolver, Session, approximate,
                       parse_target, serialize_problem, sim_equivalent)

from instances import EXPECTED, build_instance, instance_params
from ops import (Tally, Walks, cli_commands, compare, controller_rule,
                 run_command)
from tracing import traced_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

#: Replays of the seeded walk set. Each request's latency is taken as its
#: median and as its minimum over the replays, and each session's opening
#: as its median (see ``run.end_to_end``).
PASSES = 5
#: CLI commands and the comparison, in the order each round runs them.
ROUND = ("approx", "check", "game_approx", "game_check", "compare")
#: Each operation in a round repeats until it has run this long, so that
#: cheap operations get more than one sample per round.
BURST_S = 0.5


class Instance:
    """One set-up workload: the instance, its problem file, and the
    approximation the sessions run on."""

    def __init__(self, params, work_dir, clock):
        self.system, self.target = build_instance(params)
        self.problem = os.path.join(work_dir, "problem.yaml")
        with open(self.problem, "w") as handle:
            handle.write(serialize_problem(self.system, self.target))
        start = clock()
        self.result = approximate(self.system, self.target)
        self.approximate = (start, clock())
        Session.from_approx(self.result, AdversarialResolver(),
                            requests="target")
        self.rule = controller_rule(self.system, self.target)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_walks(inst, seed, tally, speed):
    """The seeded session walks, replayed ``PASSES`` times; returns the
    walk record, with the (start, end) intervals of each replay's steps
    and session openings.

    The speed probes run between walks, not from the timer: steps take
    microseconds, and one that a probe interrupted, or that ran right
    after one, would read slow.
    """
    speed.stop()
    replays = []
    for _ in range(PASSES):
        walks = Walks(inst.result, seed, speed.clock, speed.probe)
        walks.run(tally)
        replays.append(walks)
    speed.start()
    trails = [hashlib.sha256(repr(w.trail).encode()).hexdigest()
              for w in replays]
    tally.check(len(set(trails)) == 1,
                "session walks differ between replays of the same seed")
    return {
        "passes": [w.intervals for w in replays],
        "open_passes": [w.opens for w in replays],
        "trail": trails[0],
        "requests": walks.requests, "refusals": walks.refusals,
        "sessions": walks.sessions,
    }


def run_rounds(inst, expected, seconds, tally, work_dir, clock):
    """Rounds of every CLI command and the comparison, while another round
    as long as the last one still fits into ``seconds``; returns the
    (start, end) intervals of each operation, and the peak RSS in MB at
    the end of the first round.

    The first round always runs. A round that would end past ``seconds``
    is not started: a run that started one just before its time was up
    took half again as long as one that did not, and got twice the
    samples of its slowest commands.
    """
    commands = cli_commands(inst.problem, work_dir)
    samples = {name: [] for name in ROUND}
    stdout = {}
    peak = None
    started = clock()
    while True:
        round_started = clock()
        for name in ROUND:
            spent = 0.0
            while not spent or spent < BURST_S:
                if name == "compare":
                    interval, outcome = compare(inst.system, inst.target,
                                                inst.rule, clock)
                else:
                    interval, outcome, stdout[name] = run_command(
                        *commands[name], clock)
                samples[name].append(interval)
                spent += interval[1] - interval[0]
                tally.check(outcome == expected[name],
                            "%s output differs from the recorded digest: %r"
                            % (name, outcome))
        if peak is None:
            # Later rounds repeat the same work, so what they add to the
            # peak is heap fragmentation; and how many of them fit into
            # ``seconds`` depends on the machine's speed.
            peak = peak_rss_mb()
        now = clock()
        if (now - started) + (now - round_started) > seconds:
            break

    # Cross-oracles where the game pipeline answers (deterministic systems
    # only, whose approximations here are small enough to compare).
    if expected["game_approx"]["exit"] == 0:
        tally.check(stdout["game_check"] == stdout["check"],
                    "game-approx --mode universal disagrees with check")
        with open(commands["approx"][1]) as a, \
                open(commands["game_approx"][1]) as g:
            same = sim_equivalent(parse_target(a.read()),
                                  parse_target(g.read()))
        tally.check(same, "game approximation is not simulation-equivalent "
                          "to the pruning approximation")
    return samples, peak


def run_worker(args, speed):
    """Set up, then measure or trace; returns the worker's record.

    ``speed`` is the worker's speed probe, started at the worker's start.
    """
    params = instance_params(args.workload, args.smoke)
    with open(os.path.join(HERE, "digests.json")) as handle:
        expected = json.load(handle)["smoke" if args.smoke else "full"]
    expected = expected[args.workload]
    work_dir = os.path.join(OUT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    tally = Tally()
    record = {}
    try:
        inst = Instance(params, work_dir, speed.clock)
        sizes = [len(inst.result.full.states),
                 len(inst.result.full.transitions)]
        tally.check(sizes == expected["sizes"],
                    "product sizes %r differ from the recorded %r"
                    % (sizes, expected["sizes"]))
        if not args.smoke:
            tally.check(tuple(sizes) == EXPECTED[args.workload],
                        "product sizes %r differ from the frozen %r"
                        % (sizes, EXPECTED[args.workload]))
        if args.trace:
            spans = os.path.join(OUT, "trace-%s-%s-seed%d.json" % (
                args.workload, "smoke" if args.smoke else "full", args.seed))
            record["metrics"] = traced_run(inst, expected, args.seed, tally,
                                           spans, speed)
            record["spans_file"] = os.path.relpath(spans, ROOT)
        else:
            # Set-up ends where the first timed operation starts.
            setup = (args.spawned, speed.clock())
            walks = run_walks(inst, args.seed, tally, speed)
            # The CLI commands run as in a fresh ``behapprox`` process,
            # without the sessions' approximation on the heap.
            inst.result = None
            gc.collect()
            samples, record["peak_rss_mb"] = run_rounds(
                inst, expected, args.seconds, tally, work_dir, speed.clock)
            speed.stop()
            record["setup_s"] = speed.scaled([setup])[0]
            record["raw_setup_s"] = setup[1] - setup[0]
            passes = [speed.scaled(p) for p in walks.pop("passes")]
            walks["latencies"] = [statistics.median(c) for c in zip(*passes)]
            walks["fastest"] = [min(c) for c in zip(*passes)]
            opens = [speed.scaled(p) for p in walks.pop("open_passes")]
            walks["opens"] = [statistics.median(c) for c in zip(*opens)]
            record["walks"] = walks
            record["samples"] = {name: speed.scaled(intervals)
                                 for name, intervals in samples.items()}
            record["raw_samples"] = {
                name: [end - start for start, end in intervals]
                for name, intervals in samples.items()}
            record["probes"] = len(speed.probes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record.update({
        "attempted": tally.attempted, "failed": tally.failed,
        "notes": tally.notes[:20],
    })
    record.setdefault("peak_rss_mb", peak_rss_mb())
    return record
