"""Simulation and bisimulation machinery.

Two relations drive everything downstream:

* the largest simulation between two transition systems (one system's
  states mimicking another's, action by action), computed as a greatest
  fixpoint by deleting violating pairs until stable;
* the coarsest bisimulation partition of a single system, from which we
  build quotients. It is computed by worklist refinement on integer ids:
  a round re-signs only the states one of whose successors changed block
  in the round before, and when a block splits, its largest part keeps
  the block's id, so few states change block.

The partition and the quotient read only a system's interned views
(``actions``, ``iadjacency``, ``initial_index``), which an ``Ltfs``
derives from its names and the pipeline's projection holds from the
start; a partition names its blocks only when ``blocks`` is read.

Simulation equivalence (each side simulates the other from the initial
states) is the notion of "same observable capability" by which results
are compared, such as a quotient with its original. It does not decide
exactness: ``approx.check_exact`` reads the ND-simulation winning set.
"""

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .model import Ltfs


@dataclass(frozen=True)
class SimulationRelation:
    """The largest simulation of ``left`` by ``right``, as state-name pairs.

    A pair (p, q) present in ``pairs`` means: every move p can take, q can
    match on the same action, landing in a pair that is again present.
    """

    left_name: str
    right_name: str
    pairs: frozenset

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def contains(self, left_state: str, right_state: str) -> bool:
        return (left_state, right_state) in self.pairs


def _succ_by_action(system: Ltfs) -> list:
    """Per state, a dict action-name -> tuple of successor state indices."""
    table: list[dict] = [dict() for _ in system.states]
    for s, a, d in system.itransitions:
        table[s].setdefault(system.actions[a], []).append(d)
    return [{a: tuple(v) for a, v in row.items()} for row in table]


def largest_simulation(left: Ltfs, right: Ltfs) -> SimulationRelation:
    """Greatest fixpoint: start from the full relation, delete bad pairs.

    A pair (p, q) is bad when p has a move that q cannot currently match
    into a surviving pair. Deletions propagate through a worklist keyed on
    predecessor pairs, so each pair is only re-examined when one of the
    pairs it relied on disappears.
    """
    lsucc = _succ_by_action(left)
    rsucc = _succ_by_action(right)
    n1, n2 = len(left.states), len(right.states)

    lpred: list[dict] = [dict() for _ in range(n1)]
    for s, a, d in left.itransitions:
        lpred[d].setdefault(left.actions[a], set()).add(s)
    rpred: list[dict] = [dict() for _ in range(n2)]
    for s, a, d in right.itransitions:
        rpred[d].setdefault(right.actions[a], set()).add(s)

    ok = [[True] * n2 for _ in range(n1)]

    def holds(p: int, q: int) -> bool:
        for action, targets in lsucc[p].items():
            matches = rsucc[q].get(action, ())
            for pd in targets:
                if not any(ok[pd][qd] for qd in matches):
                    return False
        return True

    removed = deque()
    for p in range(n1):
        for q in range(n2):
            if not holds(p, q):
                ok[p][q] = False
                removed.append((p, q))

    while removed:
        pd, qd = removed.popleft()
        for action, lps in lpred[pd].items():
            rqs = rpred[qd].get(action)
            if not rqs:
                continue
            for p in lps:
                for q in rqs:
                    if ok[p][q] and not holds(p, q):
                        ok[p][q] = False
                        removed.append((p, q))

    pairs = frozenset(
        (left.states[p], right.states[q])
        for p in range(n1) for q in range(n2) if ok[p][q])
    return SimulationRelation(left.name, right.name, pairs)


def simulates(left: Ltfs, right: Ltfs) -> bool:
    """True when ``right`` can mimic ``left`` from the initial states on."""
    rel = largest_simulation(left, right)
    return rel.contains(left.initial, right.initial)


def sim_equivalent(a: Ltfs, b: Ltfs) -> bool:
    """Mutual initial-state simulation: same realizable capability."""
    return simulates(a, b) and simulates(b, a)


class Partition:
    """A partition of a system's states into equivalence blocks.

    Blocks are ordered by their smallest member's interned index, and each
    block lists its members in interned order, so the partition (and any
    quotient built from it) is deterministic for a fixed input.

    ``bisim_partition`` keeps the blocks as tuples of state indexes
    (``members``) and names them from the system's states only when
    ``blocks`` is read. A partition can also be given by named blocks; it
    then has no ``members``.
    """

    def __init__(self, blocks=None, *, members=None, system=None):
        self.members = members
        self._system = system
        self._blocks = blocks

    @property
    def blocks(self) -> tuple:
        """The blocks as tuples of state names."""
        if self._blocks is None:
            states = self._system.states
            self._blocks = tuple(tuple(states[i] for i in block)
                                 for block in self.members)
        return self._blocks

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.blocks == other.blocks

    __hash__ = None

    def __repr__(self):
        return f"Partition({self.blocks!r})"

    @cached_property
    def _lookup(self) -> dict:
        return {s: i for i, block in enumerate(self.blocks) for s in block}

    def block_of(self, state: str) -> int:
        return self._lookup[state]

    @property
    def size(self) -> int:
        return len(self.blocks if self.members is None else self.members)

    def block_ids(self, system) -> list:
        """The block number of each of ``system``'s states, by index."""
        if self.members is None:
            return [self.block_of(s) for s in system.states]
        ids = [0] * sum(map(len, self.members))
        for b, block in enumerate(self.members):
            for s in block:
                ids[s] = b
        return ids


def bisim_partition(system: Ltfs) -> Partition:
    """Coarsest bisimulation partition, by dirty-state refinement.

    Start with all states in one block. A state's signature is the set of
    its moves lifted to blocks, each encoded as the int
    ``block * n_actions + action``. A round re-signs only the *dirty*
    states, those with a successor that changed block in the round before
    (every state, in the first round), and splits each block they lie in
    into its dirty states grouped by signature plus the states that were
    not re-signed. The latter still share the signature that held their
    block together, and it differs from every re-signed one, which names
    a block that did not exist a round earlier. The largest part keeps
    the block's id and the others get fresh ids, so a state changes block
    O(log n) times. When no state is dirty, every block is stable.

    The coarsest bisimulation is unique, so the result does not depend on
    the order of splits: blocks are renumbered by their smallest member's
    interned index at the end.
    """
    adj = system.iadjacency
    n = len(adj)
    width = len(system.actions)
    preds: list[list[int]] = [[] for _ in range(n)]
    for s, moves in enumerate(adj):
        for _, d in moves:
            preds[d].append(s)

    block_of = [0] * n
    members = [set(range(n))]
    dirty = range(n)
    while dirty:
        changed: dict = {}  # block -> signature -> its dirty states
        for s in dirty:
            sig = frozenset([block_of[d] * width + a for a, d in adj[s]])
            changed.setdefault(block_of[s], {}).setdefault(sig, []).append(s)
        moved = []
        for b, groups in changed.items():
            block = members[b]
            parts = list(groups.values())
            rest = len(block) - sum(map(len, parts))
            if not rest and len(parts) == 1:
                continue
            largest = max(parts, key=len)
            if len(largest) > rest:
                parts = [part for part in parts if part is not largest]
                if rest:
                    parts.append(block.difference(largest, *parts))
                members[b] = set(largest)
            else:
                for part in parts:
                    block.difference_update(part)
            for part in parts:
                new = len(members)
                members.append(set(part))
                for s in part:
                    block_of[s] = new
                moved.extend(part)
        dirty = {p for s in moved for p in preds[s]}

    order: dict = {}  # first-seen order is smallest-member order
    for s, b in enumerate(block_of):
        order.setdefault(b, []).append(s)
    return Partition(members=tuple(map(tuple, order.values())), system=system)


def quotient(system: Ltfs, partition: Partition | None = None,
             prefix: str = "q") -> Ltfs:
    """Collapse each block to one state; transitions lift blockwise.

    With the default (bisimulation) partition the result is the smallest
    system bisimilar to the input. Block k becomes state ``q<k>``; block
    order follows the partition, so names are stable for a fixed input.
    Transitions are lifted on interned ids, source by source, and keep
    their first appearance's order.
    """
    if partition is None:
        partition = bisim_partition(system)
    block = partition.block_ids(system)
    names = tuple(f"{prefix}{i}" for i in range(partition.size))
    actions = system.actions
    lifted: dict = {}
    for s, moves in enumerate(system.iadjacency):
        source = block[s]
        for a, d in moves:
            lifted[source, a, block[d]] = None
    return Ltfs(system.name, names, names[block[system.initial_index]],
                tuple((names[s], actions[a], names[d])
                      for s, a, d in lifted))
