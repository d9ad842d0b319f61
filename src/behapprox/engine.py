"""Step-wise controller execution against a nondeterministic system.

Two kinds of controller run here.  A ControllerTable maps a (system
state tuple, requested transition) pair to a delegation index, listed in
a dict or given by a rule on the requested action; it either honors a
request or it does not.  An imported session instead replays the
kept transitions of a computed approximation, tracking the set of all
pruned-product states consistent with the observed history (the
"candidates") and delegating through any of them.

Sessions are single-owner mutable objects.  Everything they reference
(system, target, approximation artifacts) is immutable, so distinct
sessions can run side by side.
"""

import itertools
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import SessionError


def _replace_component(sys_states, k, new_state):
    return sys_states[: k - 1] + (new_state,) + sys_states[k:]


@dataclass(frozen=True, eq=False)
class ControllerTable:
    """Controller table: (system state tuple, target transition) -> index.

    ``entries`` is an explicit dict, or the rule mapping that
    ``constant_controller`` and ``action_controller`` build. Missing keys
    mean the controller does not honor the request.
    """

    entries: Mapping
    name: str = "table"

    def lookup(self, sys_states, request):
        return self.entries.get((tuple(sys_states), tuple(request)))

    def defined_at(self, sys_states, request):
        return self.lookup(sys_states, request) is not None

    def __len__(self):
        return len(self.entries)


class _ActionRule(Mapping):
    """The entries of a delegation by requested action, answered from the rule.

    Keys pair every tuple of declared behavior states with every target
    transition whose action the rule maps; none of them is listed.
    """

    def __init__(self, system, target, mapping):
        self._by_action = dict(mapping)
        self._requests = dict.fromkeys(
            t for t in target.transitions if t[1] in mapping)
        self._declared = tuple(b.state_index for b in system.behaviors)

    def __getitem__(self, key):
        sys_states, request = key
        if (request in self._requests
                and len(sys_states) == len(self._declared)
                and all(s in d for s, d in zip(sys_states, self._declared))):
            return self._by_action[request[1]]
        raise KeyError(key)

    def __len__(self):
        return math.prod(map(len, self._declared)) * len(self._requests)

    def __iter__(self):
        for sys_states in itertools.product(*self._declared):
            for request in self._requests:
                yield sys_states, request


def constant_controller(system, target, index, name=None):
    """Table delegating every request everywhere to one behavior index."""
    if not 1 <= index <= system.size:
        raise ValueError("delegation index %d out of range 1..%d" % (index, system.size))
    return ControllerTable(
        _ActionRule(system, target, dict.fromkeys(target.actions, index)),
        name or ("all-to-%d" % index))


def action_controller(system, target, mapping, name=None):
    """Table delegating by requested action; actions absent from the mapping
    are left undefined (rejected)."""
    for action, index in mapping.items():
        if not 1 <= index <= system.size:
            raise ValueError(
                "delegation index %d for action %r out of range 1..%d"
                % (index, action, system.size)
            )
    return ControllerTable(_ActionRule(system, target, mapping),
                           name or "by-action")


class RandomResolver:
    """Resolves nondeterministic behavior outcomes with a seeded RNG."""

    def __init__(self, seed=0):
        self._rng = random.Random(seed)
        self.tag = "random(seed=%d)" % seed

    def choose(self, outcomes, score):
        return self._rng.choice(list(outcomes))


class AdversarialResolver:
    """Resolves outcomes by minimizing the session's forward options.

    The score callback reports, for each outcome, how many options the
    controller keeps (candidate states in imported mode, honorable next
    requests in table mode); ties fall to the behavior's first-interned
    outcome.
    """

    tag = "adversarial"

    def choose(self, outcomes, score):
        best = None
        for position, outcome in enumerate(outcomes):
            key = (score(outcome), position)
            if best is None or key < best[0]:
                best = (key, outcome)
        return best[1]


@dataclass(frozen=True)
class StepRecord:
    request: tuple
    honored: bool
    delegated: "int | None"
    sys_before: tuple
    sys_after: tuple
    resolver_tag: str
    candidates_after: tuple
    note: str = ""


@dataclass(frozen=True)
class SessionLog:
    steps: tuple

    @property
    def honored_count(self):
        return sum(1 for s in self.steps if s.honored)

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class TraceSet:
    """Prefix-closed set of bounded target traces (tuples of transitions)."""

    traces: frozenset
    depth: int

    def __contains__(self, trace):
        return tuple(trace) in self.traces

    def __len__(self):
        return len(self.traces)

    def __iter__(self):
        return iter(sorted(self.traces))

    def action_sequences(self):
        return {tuple(a for _, a, _ in trace) for trace in self.traces}


class Session:
    """One run of a controller against a system.

    Table mode answers requests drawn from the target's transitions.
    Imported mode replays the kept transitions of an ApproxResult and
    accepts requests in one of two vocabularies, fixed at construction:
    "target" (transitions of the original target) or "approx" (transitions
    of the computed approximation, steering delegation into the requested
    block).
    """

    def __init__(self, system, target, resolver=None):
        self.system = system
        self.target = target
        self.resolver = resolver if resolver is not None else RandomResolver(0)
        self.sys_states = system.initial_tuple
        self.closed = False
        self._steps = []
        self._mode = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_table(cls, system, target, table, resolver=None):
        session = cls(system, target, resolver)
        session._mode = "table"
        session._table = table
        session.cursor = target.initial
        session._request_pool = set(target.transitions)
        return session

    @classmethod
    def from_approx(cls, result, resolver=None, requests="target"):
        if requests not in ("target", "approx"):
            raise ValueError("unknown request vocabulary %r" % (requests,))
        session = cls(result.system, result.target, resolver)
        session._mode = "imported"
        session._frame = requests
        session._result = result
        base = result.full
        session._base = base
        adjacency = result.kept_adjacency
        session._kept_adjacency = adjacency
        session._blocks = result.block_of_state_id if not result.is_empty else {}
        if requests == "target":
            session.cursor = result.target.initial
            session._request_pool = set(result.target.transitions)
        else:
            session.cursor = result.approx.initial
            session._request_pool = set(result.approx.transitions)
        initial = base.initial
        if initial in result.pruned.kept_state_set and adjacency:
            session.candidates = (initial,)
        else:
            session.candidates = ()
        return session

    # -- shared session surface ----------------------------------------

    @property
    def mode(self):
        return self._mode

    @property
    def log(self):
        return SessionLog(tuple(self._steps))

    def close(self):
        self.closed = True

    def candidate_labels(self):
        if self._mode != "imported":
            return ()
        return tuple(self._base.state_label(c) for c in self.candidates)

    def step(self, request, resolver=None):
        if self.closed:
            raise SessionError("E_SESSION_CLOSED", "session is closed")
        request = tuple(request)
        chosen_resolver = resolver if resolver is not None else self.resolver
        if self._mode == "table":
            return self._step_table(request, chosen_resolver)
        return self._step_imported(request, chosen_resolver)

    def _reject(self, request, tag, note):
        record = StepRecord(
            request=request,
            honored=False,
            delegated=None,
            sys_before=self.sys_states,
            sys_after=self.sys_states,
            resolver_tag=tag,
            candidates_after=self.candidate_labels(),
            note=note,
        )
        self._steps.append(record)
        raise SessionError("E_REQUEST_REJECTED", "%s: %r" % (note, (request,)))

    def _validate_request(self, request, tag):
        if len(request) != 3 or request not in self._request_pool:
            self._reject(request, tag, "request is not a known transition")
        if request[0] != self.cursor:
            self._reject(
                request, tag, "request source %r is not the current state %r"
                % (request[0], self.cursor)
            )

    # -- table mode -----------------------------------------------------

    def _step_table(self, request, resolver):
        tag = resolver.tag
        self._validate_request(request, tag)
        action = request[1]
        index = self._table.lookup(self.sys_states, request)
        if index is None:
            self._reject(request, tag, "controller table is undefined here")
        behavior = self.system.behavior(index)
        outcomes = behavior.successors(self.sys_states[index - 1], action)
        if not outcomes:
            self._reject(
                request, tag, "behavior %d cannot execute %r" % (index, action)
            )

        def score(outcome):
            return self._count_honorable(
                _replace_component(self.sys_states, index, outcome), request[2]
            )

        outcome = resolver.choose(outcomes, score)
        before = self.sys_states
        self.sys_states = _replace_component(before, index, outcome)
        self.cursor = request[2]
        record = StepRecord(
            request=request,
            honored=True,
            delegated=index,
            sys_before=before,
            sys_after=self.sys_states,
            resolver_tag=tag,
            candidates_after=(),
        )
        self._steps.append(record)
        return record

    def _count_honorable(self, sys_states, target_state):
        count = 0
        for tr in self.target.transitions_from(target_state):
            index = self._table.lookup(sys_states, tr)
            if index is None:
                continue
            if self.system.behavior(index).successors(sys_states[index - 1], tr[1]):
                count += 1
        return count

    # -- imported mode ----------------------------------------------------

    def _destination_matches(self, dst_id, requested):
        if self._frame == "target":
            return self._base.target_part(dst_id) == requested
        return self._blocks.get(dst_id) == requested

    def _step_imported(self, request, resolver):
        tag = resolver.tag
        self._validate_request(request, tag)
        action, requested_dst = request[1], request[2]
        # Delegations are chosen per outcome group: every destination the
        # group can land on must satisfy the request, otherwise the system
        # could resolve the step outside the requested successor and strand
        # the session.  Groups are singletons for deterministic behaviors.
        groups = {}
        for candidate in self.candidates:
            for (_, a, index, dst) in self._kept_adjacency.get(candidate, ()):
                if a == action:
                    key = (candidate, index, self._base.target_part(dst))
                    groups.setdefault(key, []).append(dst)
        options = []
        for (candidate, index, _), destinations in groups.items():
            if all(self._destination_matches(d, requested_dst)
                   for d in destinations):
                options.append((candidate, index))
        if not options:
            self._reject(request, tag, "no candidate state supports the request")
        source, index = min(options)
        behavior = self.system.behavior(index)
        outcomes = behavior.successors(self.sys_states[index - 1], action)

        def filtered(sys_after):
            found = []
            for candidate in self.candidates:
                for (_, a, k, dst) in self._kept_adjacency.get(candidate, ()):
                    if (
                        a == action
                        and k == index
                        and self._destination_matches(dst, requested_dst)
                        and self._base.states[dst][0] == sys_after
                    ):
                        found.append(dst)
            return tuple(sorted(set(found)))

        def score(outcome):
            return len(filtered(_replace_component(self.sys_states, index, outcome)))

        outcome = resolver.choose(outcomes, score)
        before = self.sys_states
        self.sys_states = _replace_component(before, index, outcome)
        self.candidates = filtered(self.sys_states)
        self.cursor = requested_dst
        record = StepRecord(
            request=request,
            honored=True,
            delegated=index,
            sys_before=before,
            sys_after=self.sys_states,
            resolver_tag=tag,
            candidates_after=self.candidate_labels(),
        )
        self._steps.append(record)
        return record


def realized_traces_bounded(table, system, target, depth):
    """All target traces up to the depth that the table honors under every
    nondeterministic outcome of the delegated behaviors."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    traces = {()}

    def walk(belief, target_state, prefix):
        if len(prefix) == depth:
            return
        for request in target.transitions_from(target_state):
            successors = set()
            honored = True
            for sys_states in belief:
                index = table.lookup(sys_states, request)
                if index is None:
                    honored = False
                    break
                outcomes = system.behavior(index).successors(
                    sys_states[index - 1], request[1]
                )
                if not outcomes:
                    honored = False
                    break
                for outcome in outcomes:
                    successors.add(_replace_component(sys_states, index, outcome))
            if not honored:
                continue
            extended = prefix + (request,)
            traces.add(extended)
            walk(frozenset(successors), request[2], extended)

    walk(frozenset([system.initial_tuple]), target.initial, ())
    return TraceSet(frozenset(traces), depth)


def dominates(first, second, system, target, depth):
    """Whether the first table realizes every bounded trace the second does,
    and whether it realizes strictly more."""
    first_set = realized_traces_bounded(first, system, target, depth)
    second_set = realized_traces_bounded(second, system, target, depth)
    at_least = second_set.traces <= first_set.traces
    strict = at_least and second_set.traces != first_set.traces
    return at_least, strict
