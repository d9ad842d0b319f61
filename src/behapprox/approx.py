"""Largest realizable target computation: prune, project, compress.

Starting from the paired product of system and target, the pipeline
repeatedly deletes dead ends (states where no pending request can be
executed) and risky delegation groups (a delegated request all of whose
nondeterministic outcomes must stay safe; if one outcome was deleted, the
whole group goes), then projects away the delegation indexes and compresses
the survivor to its bisimulation quotient. The result is the largest
behavior over the target's alphabet that the system can sustain against
every resolution of its own nondeterminism, and it is unique up to
simulation equivalence.

If pruning eats everything, the initial state is kept as a lone sentinel:
the "empty approximation", a one-state, zero-transition behavior.

Every stage works on integer ids. Pruning numbers the delegation groups
by the runs the product builder emits them in, and logs removals as ids
and transition positions; the projection holds per-state
(action, destination) ids over the kept states. Product state labels are
made only when read: by ``PrunedFull.removal_log``, by the projection's
``states`` and ``transitions``, and by callers such as the DOT export and
session step records. ``approximate`` pauses the cyclic garbage collector
while it runs, and restores it after.
"""

import gc
from dataclasses import dataclass
from functools import cached_property

from .errors import ApproxError, E_EMPTY_APPROX
from .model import Ltfs, SystemSpec
from .product import FullEnactedSystem, full_enacted_system
from .simrel import Partition, bisim_partition, quotient

KIND_DEAD_END = "dead-end-state"
KIND_RISKY = "risky-transition"


@dataclass(frozen=True)
class RemovalEntry:
    """One deletion performed by the pruning fixpoint.

    ``item`` is a state label for dead-end removals, or a labelled
    (source, action, index, destination) tuple for risky ones. The log is
    diagnostic: only the surviving sets are contract-bearing.
    """

    round: int
    kind: str
    item: object


@dataclass(frozen=True)
class PrunedFull:
    """The surviving fragment of a paired product after pruning.

    Invariants: every kept state has at least one kept outgoing transition,
    except in the empty case where exactly the initial state survives with
    no transitions; and kept transitions are closed under delegation
    groups: whoever keeps one outcome of a delegated request keeps all of
    its sibling outcomes and their destinations.

    ``removals`` holds (round, kind, item) in deletion order, where the item
    is a state id for a dead end and a position in ``base.transitions`` for
    a risky transition; ``removal_log`` labels them when read.
    """

    base: FullEnactedSystem
    kept_state_ids: tuple
    kept_transitions: tuple
    removals: tuple

    @property
    def is_empty(self) -> bool:
        return not self.kept_transitions

    @cached_property
    def removal_log(self) -> tuple:
        label = self.base.state_label
        transitions = self.base.transitions
        log = []
        for rnd, kind, item in self.removals:
            if kind == KIND_RISKY:
                s, a, k, d = transitions[item]
                item = (label(s), a, k, label(d))
            else:
                item = label(item)
            log.append(RemovalEntry(rnd, kind, item))
        return tuple(log)

    @cached_property
    def kept_state_set(self) -> frozenset:
        return frozenset(self.kept_state_ids)

    @cached_property
    def kept_transition_set(self) -> frozenset:
        return frozenset(self.kept_transitions)

    @cached_property
    def kept_state_labels(self) -> frozenset:
        return frozenset(self.base.state_label(i) for i in self.kept_state_ids)

    @cached_property
    def kept_transition_labels(self) -> frozenset:
        return frozenset(
            (self.base.state_label(s), a, k, self.base.state_label(d))
            for s, a, k, d in self.kept_transitions)


def prune_fixpoint(full: FullEnactedSystem) -> PrunedFull:
    """Iterate dead-end and risky-group removal until stable.

    Each round first deletes every state whose outgoing transitions are all
    gone (the initial state is exempt), then deletes, as a unit, every
    delegation group with a member pointing at a state deleted this round.
    A group (source, action, index, target part of the destination) is a
    run of consecutive transitions (see ``product``), so groups are
    numbered by run boundaries. Deletions are driven by reverse adjacency,
    so only groups entering a freshly dead state are ever re-examined.
    """
    trans, states = full.transitions, full.states
    n = len(states)
    out_count = [0] * n
    in_groups: list[list[int]] = [[] for _ in range(n)]
    starts = []  # group g is trans[starts[g]:starts[g + 1]]
    g = -1
    ps = pa = pk = pt = None
    for pos, (s, a, k, d) in enumerate(trans):
        t = states[d][1]
        if k != pk or s != ps or t != pt or a != pa:
            ps, pa, pk, pt = s, a, k, t
            starts.append(pos)
            g += 1
        out_count[s] += 1
        in_groups[d].append(g)
    starts.append(len(trans))
    alive_group = [True] * (g + 1)
    alive_state = [True] * n

    removals = []
    init = full.initial
    newly_dead_candidates = [i for i in range(n) if out_count[i] == 0]
    rnd = 0
    while True:
        rnd += 1
        dead_this_round = []
        for i in newly_dead_candidates:
            if alive_state[i] and i != init and out_count[i] == 0:
                alive_state[i] = False
                dead_this_round.append(i)
                removals.append((rnd, KIND_DEAD_END, i))
        newly_dead_candidates = []

        removed = 0
        for i in dead_this_round:
            for g in in_groups[i]:
                if not alive_group[g]:
                    continue
                alive_group[g] = False
                first, end = starts[g], starts[g + 1]
                removed += end - first
                removals.extend((rnd, KIND_RISKY, pos)
                                for pos in range(first, end))
                s = trans[first][0]
                out_count[s] -= end - first
                if out_count[s] == 0 and alive_state[s]:
                    newly_dead_candidates.append(s)

        if not dead_this_round and removed == 0:
            break

    if out_count[init] == 0:
        # Nothing survives from the initial state: collapse to the sentinel.
        # (Cyclic fragments may still be "alive" but are unreachable; they
        # are dropped here, without removal-log entries of their own.)
        return PrunedFull(full, (init,), (), tuple(removals))

    kept_states = tuple(i for i in range(n) if alive_state[i])
    kept_trans = tuple(t for g, alive in enumerate(alive_group) if alive
                       for t in trans[starts[g]:starts[g + 1]])
    return PrunedFull(full, kept_states, kept_trans, tuple(removals))


@dataclass(frozen=True, eq=False)
class DelegationGroups:
    """A product's delegation groups and requests, numbered by their runs.

    A request, the transitions sharing (source, action, target part of the
    destination), and a delegation group, which also share the index, are
    each one run of ``full.transitions`` (see ``product``). Group g serves
    request ``group_request[g]``, request r leaves state
    ``request_source[r]``, and ``in_groups[d]`` lists the groups with an
    outcome in state d.
    """

    full: FullEnactedSystem
    group_request: list
    request_source: list
    in_groups: list


def delegation_groups(full: FullEnactedSystem) -> DelegationGroups:
    """Number the groups and requests in one pass over the transitions."""
    states = full.states
    in_groups: list[list[int]] = [[] for _ in states]
    group_request, request_source = [], []
    g = r = -1
    ps = pa = pk = pt = None
    for s, a, k, d in full.transitions:
        t = states[d][1]
        if s != ps or t != pt or a != pa:
            ps, pa, pk, pt = s, a, None, t
            request_source.append(s)
            r += 1
        if k != pk:
            pk = k
            group_request.append(r)
            g += 1
        in_groups[d].append(g)
    return DelegationGroups(full, group_request, request_source, in_groups)


def winning_states(groups: DelegationGroups, universal: bool) -> list:
    """Per product state, whether it survives the delegation game.

    A greatest fixpoint by counters: a group dies when one of its outcomes
    dies, and a request when its last group dies. In the universal mode a
    state dies when any one of its requests dies, and a state where the
    target has a request that no behavior can execute (so it has no run)
    starts dead. The survivors are W, the ND-simulation winning set: every
    target request has a group whose every outcome stays in W (De Giacomo
    & Sardina, IJCAI 2007). A state whose target part is terminal is in W.
    In the existential mode a state dies when all of its groups die, so a
    state with none starts dead. Each group and state is retired once,
    through the in-groups of the states that die.
    """
    full = groups.full
    group_request, request_source = groups.group_request, groups.request_source
    live = [0] * len(request_source)  # live groups per request
    for r in group_request:
        live[r] += 1
    requests = [0] * len(full.states)  # live requests per state
    for s in request_source:
        requests[s] += 1
    if universal:
        target = full.target
        wanted = {t: len(target.transitions_from(t)) for t in target.states}
        dead = [i for i, (_, t) in enumerate(full.states)
                if requests[i] != wanted[t]]
    else:
        dead = [i for i, count in enumerate(requests) if not count]
    alive = [True] * len(full.states)
    for i in dead:
        alive[i] = False
    alive_group = [True] * len(group_request)
    in_groups = groups.in_groups
    while dead:
        for g in in_groups[dead.pop()]:
            if alive_group[g]:
                alive_group[g] = False
                r = group_request[g]
                live[r] -= 1
                if not live[r]:
                    s = request_source[r]
                    requests[s] -= 1
                    if alive[s] and (universal or not requests[s]):
                        alive[s] = False
                        dead.append(s)
    return alive


@dataclass(frozen=True, eq=False)
class Projection:
    """The pruned product with its delegation indexes dropped.

    State i is kept product state ``pruned.kept_state_ids[i]``. The
    interned views hold every kept transition as (action index,
    destination) in ``iadjacency[source]``, in kept order; transitions that
    differ only in their delegation index stay apart there, which changes
    no refinement. ``states``, ``initial``, ``transitions`` and
    ``successors`` name states by their product labels, with such
    transitions merged; they are built only when read.
    """

    name: str
    pruned: PrunedFull
    initial_index: int
    actions: tuple
    iadjacency: tuple

    @cached_property
    def _labelled(self) -> Ltfs:
        states = tuple(map(self.pruned.base.state_label,
                           self.pruned.kept_state_ids))
        actions = self.actions
        transitions = dict.fromkeys(
            (states[s], actions[a], states[d])
            for s, row in enumerate(self.iadjacency) for a, d in row)
        return Ltfs(self.name, states, states[self.initial_index],
                    tuple(transitions))

    @property
    def states(self) -> tuple:
        return self._labelled.states

    @property
    def initial(self) -> str:
        return self._labelled.initial

    @property
    def transitions(self) -> tuple:
        return self._labelled.transitions

    def successors(self, state: str, action: str) -> tuple:
        return self._labelled.successors(state, action)


def project_indexes(pruned: PrunedFull) -> Projection:
    """Drop delegation indexes, keeping integer ids throughout.

    The i-th state is kept product state ``pruned.kept_state_ids[i]``; the
    result is typically nondeterministic.
    """
    base = pruned.base
    kept = pruned.kept_state_ids
    position = dict(zip(kept, range(len(kept))))
    action_index: dict = {}
    rows: list[list] = [[] for _ in kept]
    for s, a, _, d in pruned.kept_transitions:
        i = action_index.get(a)
        if i is None:
            i = action_index[a] = len(action_index)
        rows[position[s]].append((i, position[d]))
    return Projection(f"{base.target.name}_pruned", pruned,
                      position[base.initial], tuple(action_index),
                      tuple(map(tuple, rows)))


@dataclass(frozen=True)
class ControllerGenerator:
    """Every safe delegation, per kept state and kept outgoing transition.

    The primary key is (state id, action, destination state id), the
    finest grain at which delegations differ. ``for_request`` unions over
    all kept destinations sharing a target component, answering "who may
    execute this requested target transition here".
    """

    base: FullEnactedSystem
    states: tuple
    delegations: dict  # (state_id, action, dest_state_id) -> frozenset of indexes

    def for_destination(self, state_id: int, action: str,
                        dest_id: int) -> frozenset:
        return self.delegations.get((state_id, action, dest_id), frozenset())

    def for_request(self, state_id: int, action: str,
                    target_dest: str) -> frozenset:
        out = set()
        for (s, a, d), ks in self.delegations.items():
            if s == state_id and a == action \
                    and self.base.target_part(d) == target_dest:
                out |= ks
        return frozenset(out)

    @cached_property
    def requests_at(self) -> dict:
        """state id -> tuple of distinct kept requests (t, action, t')."""
        table: dict = {s: [] for s in self.states}
        for (s, a, d) in self.delegations:
            req = (self.base.target_part(s), a, self.base.target_part(d))
            if req not in table[s]:
                table[s].append(req)
        return {s: tuple(v) for s, v in table.items()}


def extract_controller_generator(pruned: PrunedFull) -> ControllerGenerator:
    """Read the safe delegations off the kept transitions."""
    if pruned.is_empty:
        raise ApproxError(
            E_EMPTY_APPROX,
            "the approximation is empty; no delegation is ever safe")
    delegations: dict = {}
    for s, a, k, d in pruned.kept_transitions:
        delegations.setdefault((s, a, d), set()).add(k)
    return ControllerGenerator(
        pruned.base, pruned.kept_state_ids,
        {key: frozenset(v) for key, v in delegations.items()})


@dataclass(frozen=True)
class ApproxResult:
    """Every stage the pipeline produced, from raw product to quotient.

    The safe delegations are the kept transitions of ``pruned``;
    ``extract_controller_generator(result.pruned)`` indexes them by request.
    """

    system: SystemSpec
    target: Ltfs
    full: FullEnactedSystem
    pruned: PrunedFull
    projection: Projection
    partition: Partition
    approx: Ltfs

    @property
    def is_empty(self) -> bool:
        return self.pruned.is_empty

    @cached_property
    def block_members(self) -> dict:
        """Quotient state name -> tuple of kept product state ids."""
        kept = self.pruned.kept_state_ids
        return {f"q{i}": tuple(kept[p] for p in block)
                for i, block in enumerate(self.partition.members)}

    @cached_property
    def block_of_state_id(self) -> dict:
        return {sid: q for q, ids in self.block_members.items() for sid in ids}

    @cached_property
    def kept_adjacency(self) -> dict:
        """Product state id -> tuple of its kept transitions, in kept order.

        Built once and shared by every session; the transitions are the
        pruned result's own tuples, so it holds only references.
        """
        adjacency: dict = {}
        for transition in self.pruned.kept_transitions:
            adjacency.setdefault(transition[0], []).append(transition)
        return {src: tuple(moves) for src, moves in adjacency.items()}


def approximate(system: SystemSpec, target: Ltfs) -> ApproxResult:
    """Run the full pipeline and keep every stage's artifact.

    The cyclic garbage collector is paused meanwhile and then restored to
    its prior state: the pipeline allocates only acyclic tuples, lists,
    sets and ints, and collections would walk the growing heap again and
    again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        full = full_enacted_system(system, target)
        pruned = prune_fixpoint(full)
        projection = project_indexes(pruned)
        partition = bisim_partition(projection)
        compressed = quotient(projection, partition).renamed(
            f"{target.name}_approx")
    finally:
        if enabled:
            gc.enable()
    return ApproxResult(system, target, full, pruned, projection, partition,
                        compressed)


def compute_approx(system: SystemSpec, target: Ltfs) -> Ltfs:
    """The largest target variant the system can sustain (quotiented)."""
    return approximate(system, target).approx


def check_exact(system: SystemSpec, target: Ltfs) -> bool:
    """Can the system realize the target exactly, nondeterminism and all?

    Holds precisely when the paired product's initial state is in W, the
    ND-simulation winning set (see ``winning_states``): whatever the
    target requests next, some behavior can execute it such that every
    one of its nondeterministic outcomes keeps that true.
    """
    full = full_enacted_system(system, target)
    return winning_states(delegation_groups(full), True)[full.initial]
