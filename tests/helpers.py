"""Independent oracles and random-instance generators for the test suite.

Everything here is deliberately written against the public name-level API
(or from scratch) rather than reusing the library's internals, so that a
bug in the implementation cannot silently agree with its own check.
"""

import itertools
import random

from hypothesis import strategies as st

from behapprox.model import Ltfs, RawBehavior, SystemSpec, validate_behavior
from behapprox.product import join_label, label_escape
from behapprox.simrel import quotient

ACTIONS = ("alpha", "beta", "gamma", "delta")


# -- generators -----------------------------------------------------------

def random_ltfs(rng: random.Random, name: str, n_states: int,
                actions=ACTIONS, n_trans: int | None = None,
                deterministic: bool = False) -> Ltfs:
    """A random live behavior: every state keeps at least one outgoing move."""
    states = [f"s{i}" for i in range(n_states)]
    if n_trans is None:
        n_trans = rng.randint(n_states, 3 * n_states)
    triples = []
    used = set()
    for _ in range(n_trans):
        s = rng.choice(states)
        a = rng.choice(actions)
        d = rng.choice(states)
        key = (s, a) if deterministic else (s, a, d)
        if key in used:
            continue
        used.add(key)
        triples.append((s, a, d))
    covered = {s for s, _, _ in triples}
    for s in states:
        if s not in covered:
            a = rng.choice(actions)
            triples.append((s, a, rng.choice(states)))
    return validate_behavior(RawBehavior.make(name, states, "s0", triples))


def random_system(rng: random.Random, n_behaviors: int, n_states: int,
                  actions=ACTIONS, deterministic: bool = False) -> SystemSpec:
    behaviors = [
        random_ltfs(rng, f"beh{k}", rng.randint(1, n_states), actions,
                    deterministic=deterministic)
        for k in range(n_behaviors)
    ]
    return SystemSpec.make(behaviors, name="random")


def random_target(rng: random.Random, n_states: int, actions=ACTIONS,
                  deterministic: bool = True) -> Ltfs:
    return random_ltfs(rng, "target", n_states, actions,
                       deterministic=deterministic)


# -- product and pruning oracles -------------------------------------------

def reference_products(system: SystemSpec, target: Ltfs) -> tuple:
    """(enacted, paired) products as (states, transitions), built by a
    breadth-first search interning tuples of state names.

    This is the builder as it was before states became mixed-radix codes:
    ids in discovery order, moves in declared order of target transitions,
    then behaviors, then each behavior's own transitions.
    """

    def search(initial, moves):
        ids = {initial: 0}
        order = [initial]
        transitions = []
        for state in order:
            for a, k, nxt in moves(state):
                if nxt not in ids:
                    ids[nxt] = len(order)
                    order.append(nxt)
                transitions.append((ids[state], a, k, ids[nxt]))
        return tuple(order), tuple(transitions)

    behaviors = list(enumerate(system.behaviors, start=1))

    def enacted_moves(tup):
        for k, b in behaviors:
            for _, a, d in b.transitions_from(tup[k - 1]):
                yield a, k, tup[:k - 1] + (d,) + tup[k:]

    def paired_moves(pair):
        tup, t = pair
        for _, a, t_next in target.transitions_from(t):
            for k, b in behaviors:
                for d in b.successors(tup[k - 1], a):
                    yield a, k, (tup[:k - 1] + (d,) + tup[k:], t_next)

    return (search(system.initial_tuple, enacted_moves),
            search((system.initial_tuple, target.initial), paired_moves))


def reference_prune(full) -> tuple:
    """(kept state ids, kept transitions, labelled removal log) of the
    pruning fixpoint, with delegation groups keyed by the 4-tuple
    (source, action, index, target part of the destination) in a dict.

    The log holds (round, kind, item) triples, items labelled as in
    ``approx.RemovalEntry``.
    """
    trans = full.transitions
    n = len(full.states)
    alive_state = [True] * n
    alive_trans = [True] * len(trans)
    out_count = [0] * n
    incoming: list[list[int]] = [[] for _ in range(n)]
    groups: dict = {}
    for pos, (s, a, k, d) in enumerate(trans):
        out_count[s] += 1
        incoming[d].append(pos)
        groups.setdefault((s, a, k, full.states[d][1]), []).append(pos)

    def key(pos):
        s, a, k, d = trans[pos]
        return s, a, k, full.states[d][1]

    label = full.state_label
    log = []
    init = full.initial
    candidates = [i for i in range(n) if out_count[i] == 0]
    rnd = 0
    while True:
        rnd += 1
        dead = []
        for i in candidates:
            if alive_state[i] and i != init and out_count[i] == 0:
                alive_state[i] = False
                dead.append(i)
                log.append((rnd, "dead-end-state", label(i)))
        candidates = []
        doomed = []
        for i in dead:
            for pos in incoming[i]:
                if alive_trans[pos] and key(pos) not in doomed:
                    doomed.append(key(pos))
        for group in doomed:
            for pos in groups[group]:
                alive_trans[pos] = False
                s, a, k, d = trans[pos]
                log.append((rnd, "risky-transition",
                            (label(s), a, k, label(d))))
                out_count[s] -= 1
                if out_count[s] == 0 and alive_state[s]:
                    candidates.append(s)
        if not dead and not doomed:
            break
    if out_count[init] == 0:
        return (init,), (), log
    return (tuple(i for i in range(n) if alive_state[i]),
            tuple(t for pos, t in enumerate(trans) if alive_trans[pos]),
            log)


#: State names of generated problems, some holding the characters that
#: product labels escape.
PROBLEM_NAMES = ("s0", "s1", "a,b", "x|y", "p\\q", "s1,", "\\")
PROBLEM_ACTIONS = ("a", "b", "c")


@st.composite
def behaviors(draw, name, deterministic=False):
    """A behavior with any moves, nondeterministic ones included unless
    ``deterministic``; states left without a move get the loop policy's
    idle self-loop."""
    states = draw(st.lists(st.sampled_from(PROBLEM_NAMES), min_size=1,
                           max_size=4, unique=True))
    moves = draw(st.lists(st.tuples(st.sampled_from(states),
                                    st.sampled_from(PROBLEM_ACTIONS),
                                    st.sampled_from(states)),
                          max_size=3 * len(states),
                          unique_by=(lambda m: m[:2]) if deterministic
                          else None))
    raw = RawBehavior.make(name, states, draw(st.sampled_from(states)),
                           moves)
    return validate_behavior(raw, policy="loop")


@st.composite
def problems(draw, deterministic=False):
    """(system, target) of one to three behaviors, deterministic ones only
    if ``deterministic``; the target may be nondeterministic either way."""
    count = draw(st.integers(1, 3))
    system = SystemSpec.make(
        [draw(behaviors(f"b{k}", deterministic)) for k in range(count)])
    return system, draw(behaviors("t"))


def unrealizable_nondeterministic_instance() -> tuple:
    """(system, target) where simulation equivalence of the approximation
    and the target wrongly said "exact": the 106th draw of two behaviors
    and a target from ``random.Random(3)``.

    The target is one state looping on gamma and delta. The approximation
    keeps a gamma step of ``beh1`` that may land in ``s2``, after which no
    behavior can execute gamma; simulation lets the simulating side pick
    that branch, while the environment picks it in the system.
    """
    rng = random.Random(3)
    for _ in range(106):
        system = random_system(rng, rng.randint(1, 2), 3)
        target = random_target(rng, rng.randint(1, 3))
    return system, target


# -- simulation oracles ----------------------------------------------------

def naive_largest_simulation(left: Ltfs, right: Ltfs) -> set:
    """Reference fixpoint: rescan every pair until a full pass removes none."""
    pairs = {(p, q) for p in left.states for q in right.states}
    while True:
        drop = set()
        for p, q in pairs:
            for _, a, pd in left.transitions_from(p):
                if not any((pd, qd) in pairs
                           for qd in right.successors(q, a)):
                    drop.add((p, q))
                    break
        if not drop:
            return pairs
        pairs -= drop


def brute_force_largest_simulation(left: Ltfs, right: Ltfs) -> set:
    """Exhaustive search over every relation (state products up to 16 pairs).

    Checks all 2^(n1*n2) candidate relations with vectorized bit tricks and
    unions the ones that are simulations; the union of simulations is again
    a simulation, and by construction the largest one.
    """
    import numpy as np

    n1, n2 = len(left.states), len(right.states)
    nbits = n1 * n2
    if nbits > 16:
        raise ValueError("brute force capped at 16 state pairs")

    def bit(p: int, q: int) -> int:
        return 1 << (p * n2 + q)

    candidates = np.arange(1 << nbits, dtype=np.uint32)
    is_sim = np.ones(candidates.shape, dtype=bool)
    for p, pname in enumerate(left.states):
        for q, qname in enumerate(right.states):
            present = (candidates & bit(p, q)) != 0
            for _, a, pd_name in left.transitions_from(pname):
                pd = left.state_index[pd_name]
                match_mask = 0
                for qd_name in right.successors(qname, a):
                    match_mask |= bit(pd, right.state_index[qd_name])
                is_sim &= ~(present & ((candidates & match_mask) == 0))
    union = int(np.bitwise_or.reduce(candidates[is_sim]))
    return {(left.states[p], right.states[q])
            for p in range(n1) for q in range(n2) if union & bit(p, q)}


def naive_sim_equivalent(a: Ltfs, b: Ltfs) -> bool:
    return ((a.initial, b.initial) in naive_largest_simulation(a, b)
            and (b.initial, a.initial) in naive_largest_simulation(b, a))


# -- bisimulation oracle -----------------------------------------------------

def signature_bisim_blocks(system: Ltfs) -> tuple:
    """Coarsest bisimulation blocks, by per-round signature refinement.

    Every round re-signs every state with {(action, block of destination)}
    and splits blocks by signature, numbering the new blocks by their
    smallest member, until a round changes nothing. Blocks come ordered by
    their smallest member, each listing its members in declaration order.
    """
    index = {s: i for i, s in enumerate(system.states)}
    succ: list[list] = [[] for _ in system.states]
    for s, a, d in system.transitions:
        succ[index[s]].append((a, index[d]))
    n = len(system.states)
    block_of = [0] * n
    while True:
        groups: dict = {}
        for s in range(n):
            signature = frozenset((a, block_of[d]) for a, d in succ[s])
            groups.setdefault((block_of[s], signature), []).append(s)
        ordered = sorted(groups.values(), key=lambda members: members[0])
        renumbered = [0] * n
        for i, members in enumerate(ordered):
            for s in members:
                renumbered[s] = i
        if renumbered == block_of:
            break
        block_of = renumbered
    blocks: list[list[str]] = [[] for _ in range(max(block_of, default=-1) + 1)]
    for s in range(n):
        blocks[block_of[s]].append(system.states[s])
    return tuple(tuple(block) for block in blocks)


# -- bounded language view ---------------------------------------------------

def bounded_action_sequences(behavior: Ltfs, depth: int) -> set:
    """All action sequences of length <= depth along paths from the initial."""
    out = {()}
    frontier = {((), behavior.initial)}
    for _ in range(depth):
        nxt = set()
        for seq, s in frontier:
            for _, a, d in behavior.transitions_from(s):
                nxt.add((seq + (a,), d))
        out |= {seq for seq, _ in nxt}
        frontier = nxt
    return out


# -- sub-behavior enumeration (maximality oracle) ---------------------------

def live_sub_behaviors(projection: Ltfs):
    """Every deadlock-free reachable restriction of the projection.

    Enumerates all subsets of the transition set, restricts each to the
    part reachable from the initial state, and yields those where every
    reachable state keeps an outgoing transition (legal behaviors only).
    """
    trans = projection.transitions
    for bits in range(1, 1 << len(trans)):
        chosen = [t for i, t in enumerate(trans) if bits >> i & 1]
        adj: dict = {}
        for s, a, d in chosen:
            adj.setdefault(s, []).append((a, d))
        seen = {projection.initial}
        queue = [projection.initial]
        while queue:
            s = queue.pop()
            for a, d in adj.get(s, ()):
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
        if any(s not in adj for s in seen):
            continue
        states = tuple(s for s in projection.states if s in seen)
        kept = tuple(t for t in chosen if t[0] in seen)
        yield Ltfs("candidate", states, projection.initial, kept)


# -- exact-composition oracle ----------------------------------------------

def composition_exists(system: SystemSpec, target: Ltfs) -> bool:
    """Independent decider: can the system realize the target exactly?

    Computes the largest "winning" set W of configurations
    (behavior-state tuple, target state) such that every request the target
    can issue has some delegate whose every nondeterministic outcome stays
    in W and matches the target's move. Exact composition exists iff the
    initial configuration wins. Written from first principles (direct
    fixpoint on configuration sets, no product construction).
    """
    behaviors = system.behaviors

    def config_ok(config, winning) -> bool:
        sys_states, t = config
        for _, action, t_next in target.transitions_from(t):
            honored = False
            for k, b in enumerate(behaviors):
                outcomes = b.successors(sys_states[k], action)
                if not outcomes:
                    continue
                if all(
                    (sys_states[:k] + (o,) + sys_states[k + 1:], t_next)
                        in winning
                        for o in outcomes):
                    honored = True
                    break
            if not honored:
                return False
        return True

    all_configs = {
        (combo, t)
        for combo in itertools.product(*(b.states for b in behaviors))
        for t in target.states
    }
    winning = set(all_configs)
    while True:
        bad = {c for c in winning if not config_ok(c, winning)}
        if not bad:
            break
        winning -= bad
    return (system.initial_tuple, target.initial) in winning


# -- game oracle -------------------------------------------------------------

#: The scheduler slot of an opening game state, before any delegation.
START = "start"


class ReferenceGame:
    """The delegation game as a graph of its own, solved by rounds.

    A state is (behavior state tuple, last scheduled index or ``START``,
    pending request as a target transition triple), interned in discovery
    order. In a state, a behavior able to execute the pending request's
    action is scheduled, and the requester picks the next request from the
    target state it lands in. This is the game pipeline as it stood before
    it ran on the paired product, kept as an oracle for deterministic
    systems.
    """

    def __init__(self, system: SystemSpec, target: Ltfs):
        self.system, self.target = system, target
        opening = [(system.initial_tuple, START, req)
                   for req in target.transitions_from(target.initial)]
        self.states = list(dict.fromkeys(opening))
        ids = {s: i for i, s in enumerate(self.states)}
        self.initials = tuple(ids[s] for s in opening)
        #: per state: (scheduled index, next request, successor id)
        self.table = []
        for i, (sys_states, _, (_, action, t_next)) in enumerate(self.states):
            row = []
            for k in self.honoring_indexes(i):
                (succ,) = system.behavior(k).successors(sys_states[k - 1],
                                                        action)
                moved = sys_states[:k - 1] + (succ,) + sys_states[k:]
                for req in target.transitions_from(t_next):
                    nxt = (moved, k, req)
                    if nxt not in ids:
                        ids[nxt] = len(self.states)
                        self.states.append(nxt)
                    row.append((k, req, ids[nxt]))
            self.table.append(tuple(row))

    def honoring_indexes(self, i: int) -> tuple:
        """Behaviors able to execute the pending request's action."""
        sys_states, _, (_, action, _) = self.states[i]
        return tuple(k for k, b in enumerate(self.system.behaviors, start=1)
                     if b.successors(sys_states[k - 1], action))

    def solve(self, mode: str) -> frozenset:
        """Delete losing states in rounds until a round deletes none.

        existential: some honoring delegation has some next request that
        stays winning. universal: some honoring delegation stays winning
        for every next request.
        """
        alive = [True] * len(self.states)

        def ok(i: int) -> bool:
            honoring = self.honoring_indexes(i)
            if mode == "existential":
                return any(alive[j] for _, _, j in self.table[i])
            return any(all(alive[j] for kk, _, j in self.table[i] if kk == k)
                       for k in honoring)

        changed = True
        while changed:
            changed = False
            for i in range(len(self.states)):
                if alive[i] and not ok(i):
                    alive[i] = False
                    changed = True
        return frozenset(i for i, a in enumerate(alive) if a)

    def realizable(self) -> bool:
        """Every opening state wins universally."""
        members = self.solve("universal")
        return all(i in members for i in self.initials)

    def approximation(self) -> Ltfs:
        """The existential winning region as a behavior over target actions.

        A winning state is named by its behavior states and the source of
        its pending request; every winning move gives a transition on the
        pending action. What the initial name reaches, breadth first, is
        quotiented and named ``<target>_approx``.
        """
        members = self.solve("existential")
        escape = label_escape(self.system.behaviors + (self.target,))
        label = {i: join_label(self.states[i][0], self.states[i][2][0],
                               escape)
                 for i in sorted(members)}
        adjacency: dict = {}
        for i, src in label.items():
            action = self.states[i][2][1]
            for _, _, j in self.table[i]:
                if j in label:
                    adjacency.setdefault(src, []).append((action, label[j]))
        initial = join_label(self.system.initial_tuple, self.target.initial,
                             escape)
        order = [initial]
        seen = {initial}
        transitions = {}
        for src in order:  # grows as it goes
            for action, dst in adjacency.get(src, ()):
                if dst not in seen:
                    seen.add(dst)
                    order.append(dst)
                transitions[src, action, dst] = None
        name = f"{self.target.name}_approx"
        raw = Ltfs(name, tuple(order), initial, tuple(transitions))
        return quotient(raw).renamed(name)


def target_request_sequences(target: Ltfs, depth: int):
    """All walks of the target from its initial state, as tuples of
    transition triples, up to the given length (the empty walk included)."""
    sequences = [()]
    frontier = [(target.initial, ())]
    for _ in range(depth):
        grown = []
        for state, prefix in frontier:
            for tr in target.transitions_from(state):
                extended = prefix + (tr,)
                sequences.append(extended)
                grown.append((tr[2], extended))
        frontier = grown
    return sequences


def positional_trace_realizable(system: SystemSpec, target: Ltfs, seq) -> bool:
    """Whether some positional table honors the request sequence under every
    nondeterministic outcome.  Backtracking search over per-(state, request)
    delegation assignments, shared across all outcome branches."""
    assignment = {}

    def place(i, belief):
        if i == len(seq):
            return True
        request = seq[i]
        states = sorted(belief)

        def per_state(j, next_belief):
            if j == len(states):
                return place(i + 1, frozenset(next_belief))
            sys_states = states[j]
            key = (sys_states, request)
            owned = key not in assignment
            indexes = range(1, system.size + 1) if owned else [assignment[key]]
            for k in indexes:
                outcomes = system.behavior(k).successors(sys_states[k - 1], request[1])
                if not outcomes:
                    continue
                if owned:
                    assignment[key] = k
                grown = next_belief + [
                    sys_states[:k - 1] + (o,) + sys_states[k:] for o in outcomes
                ]
                if per_state(j + 1, grown):
                    return True
                if owned:
                    del assignment[key]
            return False

        return per_state(0, [])

    return place(0, frozenset([system.initial_tuple]))


def imported_trace_realizable(result, seq) -> bool:
    """Whether some candidate-choice policy of an imported session honors the
    request sequence (in target vocabulary) under every outcome."""
    base = result.full
    system = result.system
    if base.initial not in result.pruned.kept_state_set or result.is_empty:
        return not seq
    adjacency = {}
    for (src, action, index, dst) in result.pruned.kept_transitions:
        adjacency.setdefault(src, []).append((action, index, dst))
    memo = {}

    def go(candidates, i):
        if i == len(seq):
            return True
        key = (candidates, i)
        if key in memo:
            return memo[key]
        _, action, requested_dst = seq[i]
        sys_states = base.states[next(iter(candidates))][0]
        indexes = sorted({
            k
            for c in candidates
            for (a, k, d) in adjacency.get(c, ())
            if a == action and base.target_part(d) == requested_dst
        })
        verdict = False
        for k in indexes:
            outcomes = system.behavior(k).successors(sys_states[k - 1], action)
            branch_ok = bool(outcomes)
            for outcome in outcomes:
                sys_after = sys_states[:k - 1] + (outcome,) + sys_states[k:]
                survivors = frozenset(
                    d
                    for c in candidates
                    for (a, kk, d) in adjacency.get(c, ())
                    if a == action and kk == k
                    and base.target_part(d) == requested_dst
                    and base.states[d][0] == sys_after
                )
                if not survivors or not go(survivors, i + 1):
                    branch_ok = False
                    break
            if branch_ok:
                verdict = True
                break
        memo[key] = verdict
        return verdict

    return go(frozenset([base.initial]), 0)


def check_ispl_structure(text):
    """Structural sanity check for exported ISPL text.

    Returns a list of problems (empty when the document is well-formed):
    the semantics header, a balanced Agent/end-Agent nesting with an
    Environment agent first, exactly one Evaluation/InitStates/Groups/
    Formulae section in that order, and statement lines ending in
    semicolons inside section bodies.
    """
    problems = []
    lines = [ln.rstrip() for ln in text.splitlines()]
    stripped = [ln.strip() for ln in lines if ln.strip()]
    if not stripped or stripped[0] != "Semantics = SA;":
        problems.append("first statement is not the semantics header")

    agent_names = []
    section_order = []
    stack = []
    openers = {
        "Obsvars:": "end Obsvars", "Vars:": "end Vars",
        "Protocol:": "end Protocol", "Evolution:": "end Evolution",
    }
    for line in stripped:
        if line.startswith("Agent "):
            stack.append("end Agent")
            agent_names.append(line.split()[1])
        elif line in ("Evaluation", "InitStates", "Groups", "Formulae"):
            stack.append("end " + line)
            section_order.append(line)
        elif line in openers:
            if not stack or stack[-1] != "end Agent":
                problems.append("%r outside an agent" % line)
            stack.append(openers[line])
        elif line.startswith("end "):
            if not stack or stack[-1] != line:
                problems.append("unbalanced %r" % line)
            else:
                stack.pop()
        elif not line.endswith(";"):
            problems.append("statement without semicolon: %r" % line)
    if stack:
        problems.append("unclosed sections: %r" % (stack,))
    if not agent_names or agent_names[0] != "Environment":
        problems.append("Environment agent is missing or not first")
    if "T" not in agent_names:
        problems.append("target agent T is missing")
    if section_order != ["Evaluation", "InitStates", "Groups", "Formulae"]:
        problems.append("trailing sections are %r" % (section_order,))
    return problems
