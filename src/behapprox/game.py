"""Coalition safety game over deterministic systems.

An independent route to the same answer as the pruning pipeline, restricted
to deterministic available behaviors: encode delegation as a turn of a
concurrent game (the controller schedules a behavior, the requester picks
the next transition to ask for), solve a safety objective (no behavior is
ever forced into its error state) by greatest fixpoint, and read an
approximation off the winning region.

Two solve modes. The existential mode asks that some continuation request
stays winning; its winning region yields the largest sustainable target
variant. The universal mode asks that the scheduled delegation survives
every continuation request; all initial states winning is exactly "the
target is realizable as given".
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import GameError, E_NONDETERMINISTIC_SYSTEM
from .model import Ltfs, SystemSpec, is_deterministic
from .product import join_label, label_escape
from .simrel import quotient

START = "start"

#: A game state: (behavior state tuple, scheduled index or "start",
#: pending request as a target transition triple).
GameState = tuple


@dataclass(frozen=True)
class GameStructure:
    """Reachable states of the delegation game, with per-player moves.

    Error states are not materialized: a behavior that cannot execute the
    pending request simply isn't schedulable, and a state where nobody is
    schedulable is immediately losing.
    """

    system: SystemSpec
    target: Ltfs
    states: tuple        # of GameState, interned in discovery order
    initials: tuple      # state ids

    @cached_property
    def state_id(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    def honoring_indexes(self, state_index: int) -> tuple:
        """Behaviors able to execute the pending request's action."""
        sys_states, _, (_, action, _) = self.states[state_index]
        return tuple(
            k for k, b in enumerate(self.system.behaviors, start=1)
            if b.successors(sys_states[k - 1], action))

    def requester_moves(self, state_index: int) -> tuple:
        """Target transitions available after the pending request lands."""
        _, _, (_, _, t_next) = self.states[state_index]
        return self.target.transitions_from(t_next)

    def step(self, state_index: int, k: int, next_request) -> int:
        """Joint move: behavior k executes, next_request becomes pending."""
        sys_states, _, (_, action, _) = self.states[state_index]
        (succ,) = self.system.behavior(k).successors(sys_states[k - 1], action)
        nxt = (sys_states[:k - 1] + (succ,) + sys_states[k:], k, next_request)
        return self.state_id[nxt]

    @cached_property
    def successor_table(self) -> tuple:
        """Per state: tuple of (k, next_request, successor id)."""
        table = []
        for i in range(len(self.states)):
            row = []
            for k in self.honoring_indexes(i):
                for req in self.requester_moves(i):
                    row.append((k, req, self.step(i, k, req)))
            table.append(tuple(row))
        return tuple(table)


@dataclass(frozen=True)
class WinningSet:
    """Greatest fixpoint of the safety refinement, in one of two modes."""

    game: GameStructure
    mode: str            # "existential" | "universal"
    members: frozenset   # of state ids

    def initial_members(self) -> tuple:
        return tuple(i for i in self.game.initials if i in self.members)

    @property
    def all_initials_winning(self) -> bool:
        return all(i in self.members for i in self.game.initials)


def build_game(system: SystemSpec, target: Ltfs) -> GameStructure:
    """Construct the reachable game graph.

    Initial states pair the initial behavior tuple with each request the
    target can open with; the scheduler slot starts at the reserved
    ``start`` marker until the first delegation fills it.
    """
    for b in system.behaviors:
        if not is_deterministic(b):
            raise GameError(
                E_NONDETERMINISTIC_SYSTEM,
                f"behavior {b.name!r} is nondeterministic; the game "
                f"encoding covers deterministic systems only")

    init_sys = system.initial_tuple
    initial_states = [
        (init_sys, START, req)
        for req in target.transitions_from(target.initial)]
    order = list(dict.fromkeys(initial_states))
    ids = {s: i for i, s in enumerate(order)}
    for sys_states, _, (_, action, t_next) in order:  # grows as it goes
        for k, b in enumerate(system.behaviors, start=1):
            succs = b.successors(sys_states[k - 1], action)
            if not succs:
                continue
            (succ,) = succs
            new_sys = sys_states[:k - 1] + (succ,) + sys_states[k:]
            for req in target.transitions_from(t_next):
                nxt = (new_sys, k, req)
                if nxt not in ids:
                    ids[nxt] = len(order)
                    order.append(nxt)
    return GameStructure(system, target,
                         tuple(order),
                         tuple(ids[s] for s in initial_states))


def solve_safety(game: GameStructure, mode: str = "existential") -> WinningSet:
    """Iteratively delete states that cannot keep the coalition safe.

    existential: survive iff some honoring delegation has some next request
    leading back into the surviving set. universal: some honoring
    delegation works for every next request.
    """
    if mode not in ("existential", "universal"):
        raise ValueError(f"unknown mode: {mode!r}")
    table = game.successor_table
    alive = [True] * len(game.states)

    def ok(i: int) -> bool:
        honoring = game.honoring_indexes(i)
        if not honoring:
            return False
        if mode == "existential":
            return any(alive[j] for _, _, j in table[i])
        return any(
            all(alive[j] for kk, _, j in table[i] if kk == k)
            for k in honoring)

    changed = True
    while changed:
        changed = False
        for i in range(len(game.states)):
            if alive[i] and not ok(i):
                alive[i] = False
                changed = True
    return WinningSet(game, mode,
                      frozenset(i for i, a in enumerate(alive) if a))


def extract_approx_from_game(game: GameStructure, winning: WinningSet,
                             name: str = "game_approx") -> Ltfs:
    """Project the winning region to a behavior over target actions.

    A winning state collapses to (behavior states, source of its pending
    request); each winning joint move contributes one transition labelled
    by the executed action. The result is restricted to the part reachable
    from the initial projection and quotiented for comparability.
    """
    if winning.mode != "existential":
        raise ValueError("extraction expects an existential winning set")

    escape = label_escape(game.system.behaviors + (game.target,))
    initial_label = join_label(game.system.initial_tuple, game.target.initial,
                               escape)
    label = {}
    for i in sorted(winning.members):
        sys_states, _, (t_src, _, _) = game.states[i]
        label[i] = join_label(sys_states, t_src, escape)

    adjacency: dict = {}
    for i, src in label.items():
        action = game.states[i][2][1]
        for _, _, j in game.successor_table[i]:
            if j in label:
                adjacency.setdefault(src, []).append((action, label[j]))

    # winning initial states all project onto the initial label already;
    # keep only what the initial label can reach
    order = [initial_label]
    seen = {initial_label}
    transitions = []
    seen_trans = set()
    for src in order:  # grows as it goes
        for action, dst in adjacency.get(src, ()):
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
            t = (src, action, dst)
            if t not in seen_trans:
                seen_trans.add(t)
                transitions.append(t)

    raw = Ltfs(name, tuple(order), initial_label, tuple(transitions))
    return quotient(raw).renamed(name)


def game_approx(system: SystemSpec, target: Ltfs) -> Ltfs:
    """End-to-end: build, solve existentially, extract, compress."""
    game = build_game(system, target)
    winning = solve_safety(game, "existential")
    return extract_approx_from_game(game, winning,
                                    name=f"{target.name}_approx")
