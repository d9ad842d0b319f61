"""Core finite-state model types.

A behavior is a finite labelled transition system with one initial state and
no terminal states (every state can always take another step). Both the
available devices and the requested target are behaviors in this sense.

States and actions are interned to dense integers in declaration order, and
every iteration the toolkit performs walks structures in interned order, so
all derived artifacts are byte-stable for a fixed input.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    ValidationError,
    E_BAD_INITIAL,
    E_UNKNOWN_STATE,
    E_TERMINAL_STATE,
    E_RESERVED_ACTION,
    E_NAME_CLASH,
)

#: Reserved action label used by the ``loop`` terminal-state policy. It may
#: not appear in user-declared transitions.
IDLE_ACTION = "__idle__"

Transition = tuple[str, str, str]


def _dedup(items: Iterable) -> tuple:
    """Deduplicate preserving first-occurrence order."""
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return tuple(out)


@dataclass(frozen=True)
class RawBehavior:
    """An unvalidated behavior description, e.g. fresh from a problem file.

    Attributes:
        name: behavior identifier.
        states: declared state names (declaration order is significant).
        initial: name of the initial state.
        transitions: (source, action, destination) triples.
    """

    name: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]

    @classmethod
    def make(cls, name: str, states: Sequence[str], initial: str,
             transitions: Iterable[Sequence[str]]) -> "RawBehavior":
        return cls(name, tuple(states), initial,
                   tuple((s, a, d) for s, a, d in transitions))


@dataclass(frozen=True)
class Ltfs:
    """A validated labelled transition system with a distinguished initial state.

    Transitions have set semantics (duplicates are dropped on construction)
    but keep their declaration order, which fixes the interning of actions.
    Instances are immutable; all views below are computed once and cached.
    """

    name: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]

    # -- interned views -------------------------------------------------

    @cached_property
    def state_index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    @property
    def initial_index(self) -> int:
        return self.state_index[self.initial]

    @cached_property
    def actions(self) -> tuple[str, ...]:
        """Action alphabet in first-appearance order over the transitions."""
        return _dedup(a for _, a, _ in self.transitions)

    @cached_property
    def action_index(self) -> dict:
        return {a: i for i, a in enumerate(self.actions)}

    @cached_property
    def itransitions(self) -> tuple[tuple[int, int, int], ...]:
        """Transitions as (state, action, state) index triples."""
        si, ai = self.state_index, self.action_index
        return tuple((si[s], ai[a], si[d]) for s, a, d in self.transitions)

    @cached_property
    def iadjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-state outgoing (action index, destination index) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.states]
        for s, a, d in self.itransitions:
            adj[s].append((a, d))
        return tuple(tuple(row) for row in adj)

    @cached_property
    def _succ(self) -> dict:
        table: dict[tuple[str, str], list[str]] = {}
        for s, a, d in self.transitions:
            table.setdefault((s, a), []).append(d)
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def _out(self) -> dict:
        table: dict[str, list[Transition]] = {}
        for t in self.transitions:
            table.setdefault(t[0], []).append(t)
        return {s: tuple(v) for s, v in table.items()}

    # -- queries ---------------------------------------------------------

    def transitions_from(self, state: str) -> tuple[Transition, ...]:
        """Outgoing transitions of a state, in declaration order."""
        return self._out.get(state, ())

    def successors(self, state: str, action: str) -> tuple[str, ...]:
        return self._succ.get((state, action), ())

    def out_degree(self, state: str) -> int:
        i = self.state_index[state]
        return len(self.iadjacency[i])

    def renamed(self, name: str) -> "Ltfs":
        return Ltfs(name, self.states, self.initial, self.transitions)


def validate_behavior(raw, policy: str = "reject") -> Ltfs:
    """Validate a behavior description and return an immutable ``Ltfs``.

    ``policy`` controls what happens to terminal states (states with no
    outgoing transition):

    * ``"reject"``: raise ``E_TERMINAL_STATE`` naming the offenders.
    * ``"loop"``: silently complete each terminal state with a reserved
      ``__idle__`` self-loop so the behavior never gets stuck.

    Validation is idempotent: an already-valid input comes back equal.
    Accepts a ``RawBehavior`` or an ``Ltfs`` (the latter is re-checked, which
    guards hand-built instances).
    """
    if policy not in ("reject", "loop"):
        raise ValueError(f"unknown terminal-state policy: {policy!r}")

    declared = not isinstance(raw, Ltfs)
    states = _dedup(raw.states)
    transitions = _dedup(raw.transitions)

    known = set(states)
    if raw.initial not in known:
        raise ValidationError(
            E_BAD_INITIAL,
            f"behavior {raw.name!r}: initial state {raw.initial!r} "
            f"is not among the declared states")
    for s, a, d in transitions:
        for endpoint in (s, d):
            if endpoint not in known:
                raise ValidationError(
                    E_UNKNOWN_STATE,
                    f"behavior {raw.name!r}: transition ({s}, {a}, {d}) "
                    f"references undeclared state {endpoint!r}")

    out_count = {s: 0 for s in states}
    for s, _, _ in transitions:
        out_count[s] += 1

    for s, a, d in transitions:
        if a != IDLE_ACTION:
            continue
        if declared:
            raise ValidationError(
                E_RESERVED_ACTION,
                f"behavior {raw.name!r}: action {IDLE_ACTION!r} is reserved "
                f"for the loop policy and may not be declared")
        # On an already-built Ltfs, idle transitions are legitimate only in
        # the exact shape the loop policy produces.
        if s != d or out_count[s] != 1:
            raise ValidationError(
                E_RESERVED_ACTION,
                f"behavior {raw.name!r}: {IDLE_ACTION!r} transition on "
                f"{s!r} is not a sole self-loop")

    terminal = tuple(s for s in states if out_count[s] == 0)
    if terminal:
        if policy == "reject":
            raise ValidationError(
                E_TERMINAL_STATE,
                f"behavior {raw.name!r}: terminal state(s) "
                f"{', '.join(repr(s) for s in terminal)}; "
                f"re-run with the loop policy to auto-complete them")
        transitions = transitions + tuple((s, IDLE_ACTION, s) for s in terminal)

    if isinstance(raw, Ltfs) and states == raw.states and transitions == raw.transitions:
        return raw
    return Ltfs(raw.name, states, raw.initial, transitions)


def is_deterministic(behavior: Ltfs) -> bool:
    """True when no (state, action) pair has two distinct successors."""
    seen = set()
    for s, a, _ in behavior.transitions:
        if (s, a) in seen:
            return False
        seen.add((s, a))
    return True


@dataclass(frozen=True)
class SystemSpec:
    """An available system: the ordered list of behaviors one can delegate to.

    Behaviors keep their declaration order and are addressed by 1-based
    index everywhere (index 0 is never a behavior).
    """

    behaviors: tuple[Ltfs, ...]
    name: str = "system"

    def __post_init__(self):
        seen = set()
        for b in self.behaviors:
            if b.name in seen:
                raise ValidationError(
                    E_NAME_CLASH,
                    f"system {self.name!r}: duplicate behavior name {b.name!r}")
            seen.add(b.name)

    @classmethod
    def make(cls, behaviors: Sequence[Ltfs], name: str = "system") -> "SystemSpec":
        return cls(tuple(behaviors), name)

    @property
    def size(self) -> int:
        return len(self.behaviors)

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        """Union of the behaviors' alphabets, behavior-major order."""
        return _dedup(a for b in self.behaviors for a in b.actions)

    def behavior(self, k: int) -> Ltfs:
        """The k-th behavior, 1-based."""
        if not 1 <= k <= len(self.behaviors):
            raise IndexError(f"behavior index {k} out of range 1..{len(self.behaviors)}")
        return self.behaviors[k - 1]

    def index_of(self, name: str) -> int:
        for i, b in enumerate(self.behaviors):
            if b.name == name:
                return i + 1
        raise KeyError(name)

    @cached_property
    def initial_tuple(self) -> tuple[str, ...]:
        return tuple(b.initial for b in self.behaviors)
