"""The operations the benchmark times, and the checks on their outputs.

Every operation is driven from outside the library: CLI commands go
through ``behapprox.io.run_cli`` in-process, sessions and controller
comparison through the public functions of ``behapprox.engine``. Outputs
are checked against digests recorded when the benchmark was defined
(``digests.json``), and session steps against the behaviors themselves, so
no check trusts the code under test alone.
"""

import contextlib
import gc
import hashlib
import io
import os
import random
import time

from behapprox import (AdversarialResolver, Session, action_controller,
                       constant_controller, dominates, run_cli)
from behapprox.errors import E_REQUEST_REJECTED, SessionError

#: Requests per session walk; a refusal ends the walk earlier. About ten
#: walks make a walk set where few requests are refused: enough openings
#: for ``open_ms``, few enough that opening sessions (about 50 ms each on
#: ``nondet-56k``) does not dominate the run.
WALK_LENGTH = 1000
#: A walk set stops at this many honored steps after the first request of
#: each session, so that the 99th percentile has 100 samples above it...
MIN_STEPS = 10000
#: ... or at this many sessions, where refusals end the walks early.
MAX_SESSIONS = 100
#: Depth of the bounded trace comparison between the two controllers.
COMPARE_DEPTH = 8


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Tally:
    """Attempted and failed operations, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def cli_commands(problem, out_dir):
    """Name -> (argv, output file or None) for every measured CLI command."""
    approx_file = os.path.join(out_dir, "approx.yaml")
    game_file = os.path.join(out_dir, "game_approx.yaml")
    return {
        "approx": (["approx", "--input", problem, "--output", approx_file],
                   approx_file),
        "check": (["check", "--input", problem], None),
        "game_approx": (["game-approx", "--input", problem,
                         "--output", game_file], game_file),
        "game_check": (["game-approx", "--input", problem,
                        "--mode", "universal"], None),
    }


def run_command(argv, output, clock=time.perf_counter):
    """Run one CLI command in-process.

    Returns ((start, end) on ``clock``, outcome, stdout text). The outcome
    holds the exit code and the sha256 of stdout, stderr and the output
    file, which is what ``digests.json`` records.
    """
    if output and os.path.exists(output):
        os.remove(output)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    interval = (start, clock())
    written = None
    if output and os.path.exists(output):
        with open(output, "rb") as handle:
            written = sha256(handle.read())
    outcome = {"exit": code,
               "stdout": sha256(out.getvalue().encode()),
               "stderr": sha256(err.getvalue().encode()),
               "file": written}
    return interval, outcome, out.getvalue()


def controller_rule(system, target):
    """The fixed controllers compared on an instance.

    The constant controller delegates everything to the behavior whose
    alphabet covers most target actions (lowest index on ties); the
    by-action controller sends each target action to the lowest-indexed
    behavior that has it.
    """
    actions = target.actions
    cover = [sum(a in b.actions for a in actions) for b in system.behaviors]
    constant = cover.index(max(cover)) + 1
    mapping = {}
    for action in actions:
        for k, behavior in enumerate(system.behaviors, start=1):
            if action in behavior.actions:
                mapping[action] = k
                break
    return constant, mapping


def compare(system, target, rule, clock=time.perf_counter):
    """Build both controller tables and compare them.

    Returns ((start, end) on ``clock``, outcome).
    """
    constant, mapping = rule
    gc.collect()
    start = clock()
    fixed = constant_controller(system, target, constant)
    by_action = action_controller(system, target, mapping)
    verdict = dominates(by_action, fixed, system, target, COMPARE_DEPTH)
    interval = (start, clock())
    return interval, {"dominates": list(verdict),
                     "entries": [len(fixed), len(by_action)]}


class Walks:
    """Seeded adversarial walks of the target through imported sessions.

    Each walk opens a session on the approximation in the target
    vocabulary (the ``behapprox run`` path) with the adversarial resolver,
    then sends up to ``WALK_LENGTH`` requests, each a random transition of
    the target from its current state. A refusal ends the walk. The same
    seed gives the same requests, so walk sets can be replayed. ``clock``
    times the steps, and ``probe``, if given, is called before each walk
    and after the last.

    Opening a session and answering its first request is timed as one
    interval in ``opens``: that first step runs with the caches cold from
    ``Session.from_approx`` and takes several times as long as the later
    ones. ``intervals`` holds the later honored steps.
    """

    def __init__(self, result, seed, clock=time.perf_counter, probe=None):
        self.result = result
        self.clock = clock
        self.probe = probe
        self.rng = random.Random(seed)
        target = result.target
        self.moves = {s: target.transitions_from(s) for s in target.states}
        self.moves_of = [frozenset(b.transitions)
                         for b in result.system.behaviors]
        self.opens = []          # (start, end) of open + first request
        self.intervals = []      # (start, end) of later honored steps
        self.candidates = []     # candidate-set size after each honored step
        self.trail = []          # (delegated, sys_after) per request, or None
        self.requests = 0
        self.refusals = 0
        self.sessions = 0

    def run(self, tally, tracer=None):
        # Collections are held off during the walks, as ``timeit`` does. On
        # ``nondet-56k`` a full collection takes longer than opening a
        # session, and whether one lands inside an opening or a step
        # depends on the allocation history.
        gc.disable()
        try:
            while (len(self.intervals) < MIN_STEPS
                   and self.sessions < MAX_SESSIONS):
                self._walk(tally, tracer)
        finally:
            gc.enable()
        if self.probe:
            self.probe()

    def _walk(self, tally, tracer):
        if self.probe:
            self.probe()
        root = tracer.open("request.session") if tracer else None
        opened = self.clock()
        session = Session.from_approx(
            self.result, AdversarialResolver(), requests="target")
        if tracer:
            tracer.add("engine.from_approx", opened, self.clock())
        self.sessions += 1
        cursor = self.result.target.initial
        for index in range(WALK_LENGTH):
            request = self.rng.choice(self.moves[cursor])
            self.requests += 1
            before = session.sys_states
            start = self.clock()
            try:
                record = session.step(request)
            except SessionError as err:
                end = self.clock()
                if tracer:
                    tracer.add("engine.step", start, end)
                if index == 0:
                    self.opens.append((opened, end))
                tally.check(err.code == E_REQUEST_REJECTED,
                            "step raised %s" % err)
                self.refusals += 1
                self.trail.append(None)
                break
            end = self.clock()
            if tracer:
                tracer.add("engine.step", start, end)
            if index == 0:
                self.opens.append((opened, end))
            else:
                self.intervals.append((start, end))
            self.candidates.append(len(session.candidates))
            self.trail.append((record.delegated, record.sys_after))
            tally.check(self._step_ok(request, before, record, session),
                        "inconsistent step %r from %r" % (request, before))
            cursor = request[2]
        if tracer:
            tracer.close(root)

    def _step_ok(self, request, before, record, session):
        """The step moved exactly the delegated behavior along one of its
        own transitions, and the session kept a candidate state."""
        k = record.delegated
        if not (record.honored and record.sys_before == before
                and isinstance(k, int) and 1 <= k <= len(before)):
            return False
        after = record.sys_after
        if len(after) != len(before) or session.sys_states != after:
            return False
        if any(after[j] != before[j]
               for j in range(len(before)) if j != k - 1):
            return False
        return ((before[k - 1], request[1], after[k - 1]) in self.moves_of[k - 1]
                and bool(session.candidates))
