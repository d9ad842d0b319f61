"""Coalition safety game over deterministic systems, played on the product.

The controller schedules a behavior for the pending request, the
requester picks the next request, and the coalition must never force a
behavior into its error state. A system state with a pending request is
a request of the paired product, and a scheduled behavior one of its
delegation groups. The safety objective is solved by greatest fixpoint,
the complement of a safety attractor (Zielonka, TCS 1998), by
``approx.winning_states``, the engine that also prunes and checks.

Two solve modes. In the existential mode a product state wins while some
delegation group keeps every outcome winning. If the initial state wins,
the winning region is what pruning keeps, so ``game_approx`` is
``compute_approx`` behind the determinism check. In the universal mode
every target request needs such a group: the winning region is the
ND-simulation winning set W, and the initial state winning is exactly
``check_exact``. ``build_game``, ``solve_safety`` and
``extract_approx_from_game`` expose the solve step by step, for timing
and tests.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count

from .approx import (DelegationGroups, PrunedFull, compress_pruned,
                     compute_approx, delegation_groups, winning_states)
from .errors import GameError, E_NONDETERMINISTIC_SYSTEM
from .model import Ltfs, SystemSpec, is_deterministic
from .product import FullEnactedSystem, full_enacted_system


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


def require_deterministic(system: SystemSpec) -> None:
    """Refuse a system with a nondeterministic behavior."""
    for b in system.behaviors:
        if not is_deterministic(b):
            raise GameError(
                E_NONDETERMINISTIC_SYSTEM,
                f"behavior {b.name!r} is nondeterministic; the game "
                f"encoding covers deterministic systems only")


def build_game(system: SystemSpec, target: Ltfs) -> GameStructure:
    """Refuse nondeterministic systems, then build the paired product."""
    require_deterministic(system)
    return GameStructure(full_enacted_system(system, target))


def solve_safety(game: GameStructure, mode: str = "existential") -> WinningSet:
    """The winning product states of one mode (see ``winning_states``)."""
    if mode not in ("existential", "universal"):
        raise ValueError(f"unknown mode: {mode!r}")
    alive = winning_states(game.successor_table, mode == "universal").alive
    return WinningSet(game, mode, frozenset(compress(count(), alive)))


def extract_approx_from_game(game: GameStructure, winning: WinningSet,
                             name: str = "game_approx") -> Ltfs:
    """Project the winning region to a behavior over target actions.

    The region is read as a pruned product (the sentinel if the initial
    state loses) and compressed as ``approximate`` does, with no product
    state label built. Every group of a deterministic system has one
    outcome, so the kept transitions are those into winning states.
    """
    if winning.mode != "existential":
        raise ValueError("extraction expects an existential winning set")
    full, members = game.full, winning.members
    if full.initial in members:
        pruned = PrunedFull(full, tuple(sorted(members)), tuple(
            t for t in full.transitions if t[3] in members), ())
    else:
        pruned = PrunedFull(full, (full.initial,), (), ())
    return compress_pruned(pruned, name)[2]


def game_approx(system: SystemSpec, target: Ltfs) -> Ltfs:
    """``compute_approx`` behind the refusal of nondeterministic systems."""
    require_deterministic(system)
    return compute_approx(system, target)
