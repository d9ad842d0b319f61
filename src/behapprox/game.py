"""Coalition safety game over deterministic systems, played on the product.

An independent route to the same answer as the pruning pipeline, restricted
to deterministic available behaviors: the controller schedules a behavior
for the pending request, the requester picks the next request, and the
coalition must never force a behavior into its error state. A system state
with a pending request is a request of the paired product, and a
scheduled behavior one of its delegation groups. The safety objective is
solved by greatest fixpoint, the complement of a safety attractor
(Zielonka, TCS 1998), by the counter-based ``approx.winning_states``.

Two solve modes. In the existential mode a product state wins while some
delegation group keeps every outcome winning; the winning region yields
the largest sustainable target variant. In the universal mode every
target request needs such a group: the winning region is the
ND-simulation winning set W, and the initial state winning is exactly
"the target is realizable as given".
"""

from dataclasses import dataclass
from functools import cached_property

from .approx import DelegationGroups, delegation_groups, winning_states
from .errors import GameError, E_NONDETERMINISTIC_SYSTEM
from .model import Ltfs, SystemSpec, is_deterministic
from .product import FullEnactedSystem, full_enacted_system
from .simrel import quotient


@dataclass(frozen=True)
class GameStructure:
    """The delegation game on the paired product of system and target.

    ``states`` are the product's states and ``initials`` its initial
    state; a pending request that no behavior can execute has no run in
    the product and loses at once.
    """

    full: FullEnactedSystem

    @property
    def states(self) -> tuple:
        return self.full.states

    @property
    def initials(self) -> tuple:
        return (self.full.initial,)

    @cached_property
    def successor_table(self) -> DelegationGroups:
        """The product's requests and delegation groups with their
        in-groups, found once and shared by both solve modes."""
        return delegation_groups(self.full)


@dataclass(frozen=True)
class WinningSet:
    """Greatest fixpoint of the safety refinement, in one of two modes."""

    game: GameStructure
    mode: str            # "existential" | "universal"
    members: frozenset   # of product state ids

    def initial_members(self) -> tuple:
        return tuple(i for i in self.game.initials if i in self.members)

    @property
    def all_initials_winning(self) -> bool:
        return all(i in self.members for i in self.game.initials)


def build_game(system: SystemSpec, target: Ltfs) -> GameStructure:
    """Refuse nondeterministic systems, then build the paired product."""
    for b in system.behaviors:
        if not is_deterministic(b):
            raise GameError(
                E_NONDETERMINISTIC_SYSTEM,
                f"behavior {b.name!r} is nondeterministic; the game "
                f"encoding covers deterministic systems only")
    return GameStructure(full_enacted_system(system, target))


def solve_safety(game: GameStructure, mode: str = "existential") -> WinningSet:
    """The winning product states of one mode (see ``winning_states``)."""
    if mode not in ("existential", "universal"):
        raise ValueError(f"unknown mode: {mode!r}")
    alive = winning_states(game.successor_table, mode == "universal")
    return WinningSet(game, mode,
                      frozenset(i for i, a in enumerate(alive) if a))


def extract_approx_from_game(game: GameStructure, winning: WinningSet,
                             name: str = "game_approx") -> Ltfs:
    """Project the winning region to a behavior over target actions.

    Walks the winning states the initial state reaches, breadth first in
    the product's transition order; each transition into a winning state
    gives one transition of the result, named by product state labels.
    On a deterministic system every group has one outcome, so these are
    exactly the transitions of the winning groups. The result is
    quotiented for comparability.
    """
    if winning.mode != "existential":
        raise ValueError("extraction expects an existential winning set")
    full, members = game.full, winning.members
    adjacency = full.adjacency
    order = [full.initial]
    seen = {full.initial}
    transitions = {}
    for src in order:  # grows as it goes
        for _, action, _, dst in adjacency[src]:
            if dst in members:
                if dst not in seen:
                    seen.add(dst)
                    order.append(dst)
                transitions[src, action, dst] = None
    label = dict(zip(order, map(full.state_label, order)))
    raw = Ltfs(name, tuple(label.values()), label[full.initial],
               tuple((label[s], a, label[d]) for s, a, d in transitions))
    return quotient(raw).renamed(name)


def game_approx(system: SystemSpec, target: Ltfs) -> Ltfs:
    """End-to-end: build, solve existentially, extract, compress."""
    game = build_game(system, target)
    winning = solve_safety(game, "existential")
    return extract_approx_from_game(game, winning,
                                    name=f"{target.name}_approx")
