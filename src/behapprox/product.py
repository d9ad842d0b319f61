"""Product constructions over a system of behaviors.

Two products matter:

* the enacted system: the asynchronous product of the available behaviors,
  where at each step exactly one behavior moves and the transition records
  which one (its 1-based index);
* the enacted pairing of system and target: the enacted system constrained
  so that every step also advances the target by the same action. States
  that end up with no outgoing move (dead ends) are kept, deliberately:
  they are exactly what the pruning stage feeds on.

Both are built by one breadth-first search over the reachable states,
interning states to dense integers in discovery order; discovery order
itself is fixed by declaration order of behaviors, transitions and indexes,
so the products are deterministic artifacts.

During the search a state is a mixed-radix int: with ``x_k`` the index of
behavior k's state and ``t`` the target's,
``code = sum(x_k * stride_k) + t * stride_T``, where each stride is the
product of the state counts before it. Moving behavior k from ``x`` to
``d`` adds ``(d - x) * stride_k``; these deltas come from tables built
once per behavior, indexed by state digit (and action), in declared order.
``states`` is decoded from the codes once, at the end.

The paired product emits, per source state, each target transition
combined with each behavior in turn, all of that behavior's successors in
a row. Target transitions are distinct, so a delegation group, the
transitions sharing (source, action, index, target part of the
destination), is exactly one run of consecutive entries of
``transitions``; the pruning stage relies on this.

State labels join behavior state names with ``,`` and append the target
state after ``|``. When some state name holds ``\\``, ``,`` or ``|``, each
such character is escaped with a backslash, so distinct states always get
distinct labels; whether to escape is decided once per product.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ProductError, E_EMPTY_SYSTEM
from .model import Ltfs, SystemSpec

#: (source state id, action, 1-based behavior index, destination state id)
IndexedTransition = tuple[int, str, int, int]


def _escape_name(name: str) -> str:
    return name.replace("\\", "\\\\").replace(",", "\\,").replace("|", "\\|")


def label_escape(models):
    """The name escape labels over these models need: None when no state
    name holds a reserved character, so ordinary labels are plain joins."""
    if any(c in s for m in models for s in m.states for c in "\\,|"):
        return _escape_name
    return None


def join_label(sys_states, target_state=None, escape=None) -> str:
    """Label a behavior state tuple, paired with a target state if given."""
    if escape is not None:
        sys_states = map(escape, sys_states)
        if target_state is not None:
            target_state = escape(target_state)
    text = ",".join(sys_states)
    return text if target_state is None else f"{text}|{target_state}"


class _Product:
    """What both products share: interned states, indexed transitions, labels.

    ``states[i]`` is interned state i, state 0 is the initial state, and
    ``transitions`` holds ``IndexedTransition``s grouped by source id.
    """

    @property
    def _factors(self) -> tuple:
        return self.system.behaviors

    @property
    def potential_state_count(self) -> int:
        """Cardinality of the unrestricted product of state sets."""
        return math.prod(len(m.states) for m in self._factors)

    def __post_init__(self):
        # Set at construction, not as a cached property: filling the
        # instance dict later slows every attribute read on the product.
        object.__setattr__(self, "_escape", label_escape(self._factors))

    @cached_property
    def state_id(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def adjacency(self) -> tuple:
        adj = [[] for _ in self.states]
        for t in self.transitions:
            adj[t[0]].append(t)
        return tuple(tuple(row) for row in adj)

    def transitions_from(self, i: int) -> tuple:
        return self.adjacency[i]


@dataclass(frozen=True)
class EnactedSystem(_Product):
    """Asynchronous product of the system's behaviors.

    ``states[i]`` is the tuple of per-behavior state names for state i.
    """

    system: SystemSpec
    states: tuple            # tuple of tuples of behavior state names
    initial: int
    transitions: tuple       # of IndexedTransition

    def state_label(self, i: int) -> str:
        return join_label(self.states[i], None, self._escape)


@dataclass(frozen=True)
class FullEnactedSystem(_Product):
    """The enacted system advancing in lockstep with the target.

    ``states[i]`` is a pair (behavior state tuple, target state). A
    transition (i, a, k, j) reads: in state i the target requests action a,
    behavior k executes it, and the pair moves to state j. Dead-end states
    are retained.
    """

    system: SystemSpec
    target: Ltfs
    states: tuple            # tuple of ((behavior states...), target state)
    initial: int
    transitions: tuple       # of IndexedTransition

    @property
    def _factors(self) -> tuple:
        return self.system.behaviors + (self.target,)

    def state_label(self, i: int) -> str:
        sys_states, t = self.states[i]
        return join_label(sys_states, t, self._escape)

    def target_part(self, i: int) -> str:
        return self.states[i][1]

    @cached_property
    def dead_ends(self) -> tuple:
        """State ids with no outgoing transition."""
        return tuple(i for i in range(len(self.states))
                     if not self.adjacency[i])


def _require_nonempty(system: SystemSpec) -> None:
    if not system.behaviors:
        raise ProductError(
            E_EMPTY_SYSTEM,
            "cannot build a product over a system with no behaviors")


def _reachable(initial: int, moves) -> tuple:
    """(state codes, transitions) reachable from ``initial``, breadth first.

    ``moves(code)`` yields (action, index, successor code) in declared
    order. The discovery list is the queue, so a state's id is its position.
    """
    ids = {initial: 0}
    order = [initial]
    transitions = []
    for code in order:
        i = ids[code]  # the interned int, shared with incoming transitions
        for a, k, nxt in moves(code):
            j = ids.get(nxt)
            if j is None:
                j = ids[nxt] = len(order)
                order.append(nxt)
            transitions.append((i, a, k, j))
    return order, tuple(transitions)


def _strides(models) -> list:
    """The stride of each model's digit in a state code, then the total."""
    strides = [1]
    for m in models:
        strides.append(strides[-1] * len(m.states))
    return strides


def _encode(models, names, strides) -> int:
    return sum(m.state_index[x] * stride
               for m, x, stride in zip(models, names, strides))


def _moves_by_digit(model, stride: int) -> list:
    """Per state digit x, the (action, code delta) of each of its moves in
    declared order; moving from digit x to digit d adds ``(d - x) * stride``."""
    index = model.state_index
    rows: list[list] = [[] for _ in model.states]
    for s, a, d in model.transitions:
        x = index[s]
        rows[x].append((a, (index[d] - x) * stride))
    return rows


def _decoder(behaviors, strides):
    """Behavior part of a state code -> tuple of behavior state names, one
    tuple per distinct part, shared by every state that holds it."""
    layout = tuple((stride, b.states, len(b.states))
                   for b, stride in zip(behaviors, strides))
    cache: dict = {}

    def names(code):
        tup = cache.get(code)
        if tup is None:
            tup = cache[code] = tuple(
                states[code // stride % size]
                for stride, states, size in layout)
        return tup
    return names


def enacted_system(system: SystemSpec) -> EnactedSystem:
    """Build the asynchronous product of the system's behaviors."""
    _require_nonempty(system)
    behaviors = system.behaviors
    strides = _strides(behaviors)
    layout = tuple(
        (k, stride, len(b.states),
         tuple(map(tuple, _moves_by_digit(b, stride))))
        for k, (b, stride) in enumerate(zip(behaviors, strides), start=1))

    def moves(code):
        for k, stride, size, rows in layout:
            for a, delta in rows[code // stride % size]:
                yield a, k, code + delta

    codes, transitions = _reachable(
        _encode(behaviors, system.initial_tuple, strides), moves)
    names = _decoder(behaviors, strides)
    return EnactedSystem(system, tuple(map(names, codes)), 0, transitions)


def full_enacted_system(system: SystemSpec, target: Ltfs) -> FullEnactedSystem:
    """Build the synchronized product of the enacted system with the target.

    From a state (S, t), every target transition t -a-> t' combined with
    every behavior move on a yields a successor (S', t'). States with no
    such combination are dead ends and stay in.
    """
    _require_nonempty(system)
    behaviors = system.behaviors
    strides = _strides(behaviors)
    span = strides[-1]  # the target digit's stride
    layout = []  # per behavior: index, stride, size, {action: deltas}
    for k, (b, stride) in enumerate(zip(behaviors, strides), start=1):
        rows = []
        for moves_at in _moves_by_digit(b, stride):
            by_action: dict = {}
            for a, delta in moves_at:
                by_action.setdefault(a, []).append(delta)
            rows.append({a: tuple(v) for a, v in by_action.items()})
        layout.append((k, stride, len(b.states), tuple(rows)))
    requests = tuple(map(tuple, _moves_by_digit(target, span)))

    def moves(code):
        here = [(k, rows[code // stride % size])
                for k, stride, size, rows in layout]
        for a, delta in requests[code // span]:
            moved = code + delta
            for k, row in here:
                for step in row.get(a, ()):
                    yield a, k, moved + step

    codes, transitions = _reachable(
        _encode(behaviors + (target,),
                system.initial_tuple + (target.initial,), strides), moves)
    names = _decoder(behaviors, strides)
    t_names = target.states
    states = tuple((names(code % span), t_names[code // span])
                   for code in codes)
    return FullEnactedSystem(system, target, states, 0, transitions)
