"""The traced run: per-layer times and counts from recomposed pipelines.

Spans are recorded by the benchmark around its calls into each module's
public functions; nothing inside the library is instrumented. A span's
layer is the first dot-separated part of its name, which is the module it
calls into (``io``, ``model``, ``product``, ``approx``, ``simrel``,
``game``, ``engine``). Spans named ``request.*`` are the roots, one per
recomposed command or session, and stand for the benchmark's own glue.

The run rebuilds ``approximate`` from its stages, ``check_exact`` from its
two ``largest_simulation`` calls (keeping the short-circuit) and
``game_approx`` from ``build_game``, ``solve_safety`` and
``extract_approx_from_game``, and checks each result against the
library's own call and the recorded CLI digests.
"""

import contextlib
import gc
import json
import statistics

from behapprox import (GameError, SystemSpec, action_controller, build_game,
                       check_exact, constant_controller,
                       extract_approx_from_game, full_enacted_system,
                       game_approx, largest_simulation, parse_problem_file,
                       quotient, realized_traces_bounded, serialize_target,
                       solve_safety, validate_behavior)
from behapprox.approx import (extract_controller_generator, project_indexes,
                              prune_fixpoint)
from behapprox.simrel import bisim_partition

from ops import COMPARE_DEPTH, Walks, sha256

LAYERS = ("io", "model", "product", "approx", "simrel", "game", "engine")


class Tracer:
    """In-memory spans: [name, parent id, start, end], written out at the end.

    Spans are timed on ``speed.clock``, and their durations are scaled to
    the reference speed, as the end-to-end times are (see ``speed.py``).
    """

    def __init__(self, speed):
        self.speed = speed
        self.spans = []
        self._open = []

    def open(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, self.speed.clock(), None])
        self._open.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][3] = self.speed.clock()
        self._open.remove(sid)

    @contextlib.contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def add(self, name, start, end):
        """A span whose times the caller already took, under the open span."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, start, end])

    def duration(self, span):
        """A span's duration, at the reference speed."""
        return self.speed.scaled([span[2:]])[0]

    def total(self, name):
        return sum(self.duration(s) for s in self.spans if s[0] == name)

    def durations(self, name):
        return [self.duration(s) for s in self.spans if s[0] == name]

    def self_times(self):
        """Layer -> summed span time not covered by child spans."""
        durations = [self.duration(s) for s in self.spans]
        covered = [0.0] * len(self.spans)
        for (_, parent, _, _), took in zip(self.spans, durations):
            if parent is not None:
                covered[parent] += took
        out = {}
        for sid, (name, _, _, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + durations[sid] - covered[sid]
        return out

    def dump(self, path):
        """Write every span with its trace id (the id of its root span)."""
        records = []
        for sid, span in enumerate(self.spans):
            name, parent, start, end = span
            root = sid
            while self.spans[root][1] is not None:
                root = self.spans[root][1]
            records.append({"id": sid, "trace": root, "parent": parent,
                            "name": name, "start": start, "end": end,
                            "scaled_s": self.duration(span)})
        with open(path, "w") as handle:
            json.dump(records, handle)


def _recompose_approx(tracer, problem_path, target_name):
    """``behapprox approx`` rebuilt stage by stage; returns its artifacts."""
    with tracer.span("request.approx"):
        with open(problem_path) as handle:
            text = handle.read()
        with tracer.span("io.parse_problem_file"):
            problem = parse_problem_file(text)
        policy = problem.options.get("terminal", "reject")
        with tracer.span("model.validate_behavior"):
            system = SystemSpec.make(
                [validate_behavior(raw, policy) for raw in problem.behaviors],
                problem.name)
            target = validate_behavior(problem.target, policy)
        with tracer.span("pipeline.approximate"):
            with tracer.span("product.full_enacted_system"):
                full = full_enacted_system(system, target)
            with tracer.span("approx.prune_fixpoint"):
                pruned = prune_fixpoint(full)
            with tracer.span("approx.project_indexes"):
                projection = project_indexes(pruned)
            with tracer.span("simrel.bisim_partition"):
                partition = bisim_partition(projection)
            with tracer.span("simrel.quotient"):
                approx = quotient(projection, partition).renamed(
                    "%s_approx" % target_name)
            if not pruned.is_empty:
                with tracer.span("approx.extract_controller_generator"):
                    extract_controller_generator(pruned)
        with tracer.span("io.serialize_target"):
            output = serialize_target(approx)
    rounds = max((entry.round for entry in pruned.removal_log), default=0)
    counts = {
        "product.states": len(full.states),
        "product.transitions": len(full.transitions),
        "approx.prune_rounds": rounds,
        "approx.kept_share": len(pruned.kept_transitions) / len(full.transitions),
        "simrel.blocks": partition.size,
        "simrel.compression": partition.size / len(projection.states),
        "io.output_bytes": len(output.encode()),
    }
    return system, target, approx, output, counts


def _recompose_check(tracer, approx, target):
    """``check_exact`` from its two simulations; (verdict, related pairs)."""
    with tracer.span("request.check"):
        with tracer.span("simrel.largest_simulation"):
            forward = largest_simulation(approx, target)
        pairs = len(forward.pairs)
        exact = forward.contains(approx.initial, target.initial)
        if exact:
            with tracer.span("simrel.largest_simulation"):
                backward = largest_simulation(target, approx)
            pairs += len(backward.pairs)
            exact = backward.contains(target.initial, approx.initial)
    return exact, pairs


def _recompose_game(tracer, system, target):
    """``game_approx`` and the universal verdict, or None when refused."""
    with tracer.span("request.game"):
        try:
            with tracer.span("game.build_game"):
                game = build_game(system, target)
        except GameError:
            return None
        with tracer.span("game.successor_table"):
            game.successor_table
        with tracer.span("game.solve_existential"):
            winning = solve_safety(game, "existential")
        with tracer.span("game.extract_approx_from_game"):
            approx = extract_approx_from_game(
                game, winning, name="%s_approx" % target.name)
        with tracer.span("game.solve_universal"):
            universal = solve_safety(game, "universal")
    return {"approx": approx,
            "exact": universal.all_initials_winning,
            "game.states": len(game.states),
            "game.winning_share": len(winning.members) / len(game.states)}


def _recompose_compare(tracer, system, target, rule):
    constant, mapping = rule
    with tracer.span("request.compare"):
        with tracer.span("engine.constant_controller"):
            fixed = constant_controller(system, target, constant)
        with tracer.span("engine.action_controller"):
            by_action = action_controller(system, target, mapping)
        with tracer.span("engine.realized_traces_bounded"):
            first = realized_traces_bounded(by_action, system, target,
                                            COMPARE_DEPTH)
        with tracer.span("engine.realized_traces_bounded"):
            second = realized_traces_bounded(fixed, system, target,
                                             COMPARE_DEPTH)
    at_least = second.traces <= first.traces
    verdict = [at_least, at_least and second.traces != first.traces]
    return {"dominates": verdict, "entries": [len(fixed), len(by_action)]}, \
        len(first) + len(second)


#: Per-layer metric -> unit, in the order they are reported.
PER_LAYER = {
    "io.parse_s": "s", "io.serialize_s": "s", "io.output_bytes": "B",
    "model.validate_s": "s",
    "product.build_s": "s", "product.states": "count",
    "product.transitions": "count",
    "approx.prune_s": "s", "approx.prune_rounds": "count",
    "approx.kept_share": "ratio", "approx.project_s": "s",
    "approx.generator_s": "s",
    "simrel.bisim_s": "s", "simrel.blocks": "count",
    "simrel.compression": "ratio", "simrel.quotient_s": "s",
    "simrel.sim_s": "s", "simrel.sim_pairs": "count",
    "game.build_s": "s", "game.states": "count", "game.table_s": "s",
    "game.solve_existential_s": "s", "game.solve_universal_s": "s",
    "game.extract_s": "s", "game.winning_share": "ratio",
    "engine.from_approx_s": "s", "engine.steps": "count",
    "engine.refusals": "count", "engine.refused_share": "ratio",
    "engine.candidates_mean": "count", "engine.table_s": "s",
    "engine.table_entries": "count", "engine.traces_s": "s",
    "engine.traces": "count",
    **{"%s.self_s" % layer: "s" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.spans": "count",
}


def traced_run(inst, expected, seed, tally, spans_path, speed):
    """One traced pass over the workload; returns the per-layer metrics.

    ``inst`` is the set-up instance; its ``result`` (the library's own
    ``approximate`` output) serves the sessions and is the reference the
    recomposed pipeline must equal, and ``approximate`` is the untraced
    interval of that call, against which the tracing overhead is taken.
    ``speed`` is the worker's started speed probe.
    """
    tracer = Tracer(speed)
    speed.stop()
    walks = Walks(inst.result, seed, speed.clock, speed.probe)
    walks.run(tally, tracer=tracer)
    speed.start()
    library_approx = inst.result.approx
    inst.result = None
    gc.collect()

    system, target, approx, output, m = _recompose_approx(
        tracer, inst.problem, inst.target.name)
    tally.check(approx == library_approx,
                "recomposed approximation differs from approximate()")
    tally.check(sha256(output.encode()) == expected["approx"]["file"],
                "recomposed approximation differs from the recorded output")
    del output
    gc.collect()

    exact, m["simrel.sim_pairs"] = _recompose_check(tracer, approx, target)
    tally.check(exact == check_exact(system, target),
                "recomposed check differs from check_exact()")
    verdict = "exact: %s\n" % ("true" if exact else "false")
    tally.check(sha256(verdict.encode()) == expected["check"]["stdout"],
                "recomposed check differs from the recorded verdict")

    game = _recompose_game(tracer, system, target)
    if game is None:
        tally.check(expected["game_approx"]["exit"] == 2,
                    "the game refused an instance the CLI accepted")
        m["game.states"] = 0
        m["game.winning_share"] = 0.0
    else:
        tally.check(game["approx"] == game_approx(system, target),
                    "recomposed game approximation differs from game_approx()")
        tally.check(game["exact"] == exact,
                    "universal game verdict differs from check_exact()")
        m["game.states"] = game["game.states"]
        m["game.winning_share"] = game["game.winning_share"]

    outcome, m["engine.traces"] = _recompose_compare(
        tracer, system, target, inst.rule)
    tally.check(outcome == expected["compare"],
                "recomposed comparison differs from the recorded one")

    speed.stop()
    total = tracer.total
    m.update({
        "io.parse_s": total("io.parse_problem_file"),
        "io.serialize_s": total("io.serialize_target"),
        "model.validate_s": total("model.validate_behavior"),
        "product.build_s": total("product.full_enacted_system"),
        "approx.prune_s": total("approx.prune_fixpoint"),
        "approx.project_s": total("approx.project_indexes"),
        "approx.generator_s": total("approx.extract_controller_generator"),
        "simrel.bisim_s": total("simrel.bisim_partition"),
        "simrel.quotient_s": total("simrel.quotient"),
        "simrel.sim_s": total("simrel.largest_simulation"),
        "game.build_s": total("game.build_game"),
        "game.table_s": total("game.successor_table"),
        "game.solve_existential_s": total("game.solve_existential"),
        "game.solve_universal_s": total("game.solve_universal"),
        "game.extract_s": total("game.extract_approx_from_game"),
        "engine.from_approx_s": statistics.median(
            tracer.durations("engine.from_approx")),
        "engine.steps": walks.requests,
        "engine.refusals": walks.refusals,
        "engine.refused_share": walks.refusals / walks.requests,
        "engine.candidates_mean": statistics.fmean(walks.candidates)
        if walks.candidates else 0.0,
        "engine.table_s": total("engine.constant_controller")
        + total("engine.action_controller"),
        "engine.table_entries": sum(outcome["entries"]),
        "engine.traces_s": total("engine.realized_traces_bounded"),
        "trace.overhead_s": total("pipeline.approximate")
        - speed.scaled([inst.approximate])[0],
        "trace.spans": len(tracer.spans),
    })
    self_times = tracer.self_times()
    for layer in LAYERS:
        m["%s.self_s" % layer] = self_times.get(layer, 0.0)
    tracer.dump(spans_path)
    return m
