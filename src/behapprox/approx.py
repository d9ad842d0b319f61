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
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import ApproxError, E_EMPTY_APPROX
from .model import Ltfs, SystemSpec
from .product import FullEnactedSystem, full_enacted_system
from .simrel import Partition, bisim_partition, quotient, sim_equivalent

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
    """

    base: FullEnactedSystem
    kept_state_ids: tuple
    kept_transitions: tuple
    removal_log: tuple

    @property
    def is_empty(self) -> bool:
        return not self.kept_transitions

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
    Deletions are driven by reverse adjacency, so only transitions entering
    a freshly dead state are ever re-examined.
    """
    trans = full.transitions
    n, m = len(full.states), len(trans)
    alive_state = [True] * n
    alive_trans = [True] * m
    out_count = [0] * n
    in_positions = [[] for _ in range(n)]
    groups: dict = {}
    group_key = [None] * m
    for pos, (s, a, k, d) in enumerate(trans):
        out_count[s] += 1
        in_positions[d].append(pos)
        key = (s, a, k, full.target_part(d))
        groups.setdefault(key, []).append(pos)
        group_key[pos] = key

    log = []
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
                log.append(RemovalEntry(rnd, KIND_DEAD_END,
                                        full.state_label(i)))
        newly_dead_candidates = []

        doomed_groups = []
        seen = set()
        for i in dead_this_round:
            for pos in in_positions[i]:
                key = group_key[pos]
                if alive_trans[pos] and key not in seen:
                    seen.add(key)
                    doomed_groups.append(key)
        removed = 0
        for key in doomed_groups:
            for pos in groups[key]:
                if not alive_trans[pos]:
                    continue
                alive_trans[pos] = False
                removed += 1
                s, a, k, d = trans[pos]
                log.append(RemovalEntry(rnd, KIND_RISKY, (
                    full.state_label(s), a, k, full.state_label(d))))
                out_count[s] -= 1
                if out_count[s] == 0 and alive_state[s]:
                    newly_dead_candidates.append(s)

        if not dead_this_round and removed == 0:
            break

    if out_count[init] == 0:
        # Nothing survives from the initial state: collapse to the sentinel.
        # (Cyclic fragments may still be "alive" but are unreachable; they
        # are dropped here, without removal-log entries of their own.)
        return PrunedFull(full, (init,), (), tuple(log))

    kept_states = tuple(i for i in range(n) if alive_state[i])
    kept_trans = tuple(t for pos, t in enumerate(trans) if alive_trans[pos])
    return PrunedFull(full, kept_states, kept_trans, tuple(log))


def project_indexes(pruned: PrunedFull) -> Ltfs:
    """Drop delegation indexes; merge transitions that differ only in them.

    The i-th state is kept product state ``pruned.kept_state_ids[i]``,
    named by its label; the result is typically nondeterministic.
    """
    base = pruned.base
    name = f"{base.target.name}_pruned"
    label = {i: base.state_label(i) for i in pruned.kept_state_ids}
    seen = set()
    transitions = []
    for s, a, _, d in pruned.kept_transitions:
        if (s, a, d) not in seen:
            seen.add((s, a, d))
            transitions.append((label[s], a, label[d]))
    return Ltfs(name, tuple(label.values()), base.state_label(base.initial),
                tuple(transitions))


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
    projection: Ltfs
    partition: Partition
    approx: Ltfs

    @property
    def is_empty(self) -> bool:
        return self.pruned.is_empty

    @cached_property
    def block_members(self) -> dict:
        """Quotient state name -> tuple of kept product state ids."""
        kept = self.pruned.kept_state_ids
        position = self.projection.state_index
        return {
            f"q{i}": tuple(kept[position[s]] for s in block)
            for i, block in enumerate(self.partition.blocks)}

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
    """Run the full pipeline and keep every stage's artifact."""
    full = full_enacted_system(system, target)
    pruned = prune_fixpoint(full)
    projection = project_indexes(pruned)
    partition = bisim_partition(projection)
    compressed = quotient(projection, partition).renamed(
        f"{target.name}_approx")
    return ApproxResult(system, target, full, pruned, projection, partition,
                        compressed)


def compute_approx(system: SystemSpec, target: Ltfs) -> Ltfs:
    """The largest target variant the system can sustain (quotiented)."""
    return approximate(system, target).approx


def check_exact(system: SystemSpec, target: Ltfs) -> bool:
    """Can the system realize the target exactly, nondeterminism and all?

    Holds precisely when the computed approximation has the target's full
    capability, i.e. the two are simulation-equivalent.
    """
    return sim_equivalent(compute_approx(system, target), target)
