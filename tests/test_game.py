"""The delegation game: structure, safety solving, extraction."""

import random

import pytest
from hypothesis import given, settings

from behapprox.approx import check_exact, compute_approx
from behapprox.errors import GameError
from behapprox.game import (
    build_game,
    extract_approx_from_game,
    game_approx,
    solve_safety,
)
from behapprox.model import SystemSpec
from behapprox.simrel import sim_equivalent

from conftest import ltfs
from helpers import (
    START,
    ReferenceGame,
    composition_exists,
    problems,
    random_system,
    random_target,
)


@pytest.fixture
def media_system(b_audio, b_movie, b_light):
    return SystemSpec.make([b_audio, b_movie, b_light], name="media")


def test_nondeterministic_system_is_rejected(house_system, t_ent):
    with pytest.raises(GameError) as exc:
        build_game(house_system, t_ent)
    assert exc.value.code == "E_NONDETERMINISTIC_SYSTEM"
    assert "gamedev" in str(exc.value)


def requests_and_indexes(game, i):
    """(action, target destination) -> behavior indexes delegated to, over
    the product transitions leaving state i."""
    full = game.full
    table = {}
    for _, a, k, d in full.transitions_from(i):
        table.setdefault((a, full.target_part(d)), set()).add(k)
    return table


def test_initials_and_moves(media_system, t_ent):
    game = build_game(media_system, t_ent)
    assert len(game.initials) == 1
    (init,) = game.initials
    assert game.states[init] == (("b0", "c0", "d0"), "t0")
    # only the light device can execute lightOn, the opening request
    assert requests_and_indexes(game, init) == {("lightOn", "t1"): {3}}
    (_, _, _, landed) = game.full.transitions_from(init)[0]
    assert set(requests_and_indexes(game, landed)) == {
        ("movie", "t2"), ("music", "t2")}
    # the game graph of its own opens with the same request and delegation
    reference = ReferenceGame(media_system, t_ent)
    (ref_init,) = reference.initials
    assert reference.states[ref_init] == (
        ("b0", "c0", "d0"), START, ("t0", "lightOn", "t1"))
    assert reference.honoring_indexes(ref_init) == (3,)
    assert {req[1:] for _, req, _ in reference.table[ref_init]} == {
        ("movie", "t2"), ("music", "t2")}


def test_unexecutable_request_has_no_honoring_move(media_system, t_ent):
    game = build_game(media_system, t_ent)
    # no behavior has the game action, so no delegation serves it ...
    assert all(a != "game" for _, a, _, _ in game.full.transitions)
    # ... and a state where the target may request it loses universally
    pending = [i for i, (_, t) in enumerate(game.states) if t == "t2"]
    assert pending
    assert not set(pending) & solve_safety(game, "universal").members
    reference = ReferenceGame(media_system, t_ent)
    game_states = [i for i, (_, _, (_, a, _)) in enumerate(reference.states)
                   if a == "game"]
    assert game_states
    for i in game_states:
        assert reference.honoring_indexes(i) == ()


def test_existential_winning_drops_unoffered_actions(media_system, t_ent):
    game = build_game(media_system, t_ent)
    winning = solve_safety(game, "existential")
    assert winning.members
    for i in winning.members:
        kept = {a for _, a, _, d in game.full.transitions_from(i)
                if d in winning.members}
        assert kept
        assert not kept & {"game", "web"}


def test_universal_loses_golden_subsystem(media_system, t_ent):
    game = build_game(media_system, t_ent)
    universal = solve_safety(game, "universal")
    existential = solve_safety(game, "existential")
    assert not universal.all_initials_winning
    assert universal.initial_members() == ()
    assert universal.members <= existential.members


def test_identity_composition_wins_universally(b_light):
    solo = SystemSpec.make([b_light])
    target = b_light.renamed("wanted")
    game = build_game(solo, target)
    universal = solve_safety(game, "universal")
    assert universal.all_initials_winning
    assert sim_equivalent(game_approx(solo, target), b_light)


def test_extraction_matches_pruning_on_golden_subsystem(media_system, t_ent):
    via_game = game_approx(media_system, t_ent)
    via_pruning = compute_approx(media_system, t_ent)
    assert sim_equivalent(via_game, via_pruning)
    # the subsystem keeps both media branches but loses the game branch
    assert not any(a == "game" for _, a, _ in via_game.transitions)
    assert any(a == "movie" for _, a, _ in via_game.transitions)
    assert any(a == "music" for _, a, _ in via_game.transitions)


def test_extraction_requires_existential_set(media_system, t_ent):
    game = build_game(media_system, t_ent)
    universal = solve_safety(game, "universal")
    with pytest.raises(ValueError):
        extract_approx_from_game(game, universal)


def test_foreign_opening_request_gives_empty(b_light):
    solo = SystemSpec.make([b_light])
    target = ltfs("t", ["t0"], "t0", [("t0", "teleport", "t0")])
    game = build_game(solo, target)
    winning = solve_safety(game, "existential")
    assert winning.members == frozenset()
    extracted = extract_approx_from_game(game, winning)
    assert len(extracted.states) == 1
    assert extracted.transitions == ()
    assert sim_equivalent(extracted, compute_approx(solo, target))


def test_fixpoint_is_stable():
    # one more refinement pass over the returned set removes nothing
    rng = random.Random(61)
    for _ in range(20):
        system = random_system(rng, rng.randint(1, 3), 3, deterministic=True)
        target = random_target(rng, rng.randint(1, 4))
        game = build_game(system, target)
        for mode in ("existential", "universal"):
            members = solve_safety(game, mode).members
            for i in members:
                # a group is safe when its every outcome stays winning
                safe = {request for request, ks in
                        requests_and_indexes(game, i).items()
                        if any(all(d in members for _, a, kk, d in
                                   game.full.transitions_from(i)
                                   if (a, game.full.target_part(d), kk)
                                   == request + (k,))
                               for k in ks)}
                if mode == "existential":
                    assert safe
                else:
                    t = game.states[i][1]
                    assert safe == {(a, d) for _, a, d
                                    in target.transitions_from(t)}


def test_cross_oracle_on_random_deterministic_instances():
    rng = random.Random(71)
    for _ in range(60):
        system = random_system(rng, rng.randint(1, 3), 4, deterministic=True)
        target = random_target(rng, rng.randint(1, 4))
        assert sim_equivalent(game_approx(system, target),
                              compute_approx(system, target))
        game = build_game(system, target)
        universal = solve_safety(game, "universal")
        exact = check_exact(system, target)
        assert universal.all_initials_winning == exact
        assert composition_exists(system, target) == exact


def test_unknown_mode_rejected(media_system, t_ent):
    game = build_game(media_system, t_ent)
    with pytest.raises(ValueError):
        solve_safety(game, "optimistic")


@settings(max_examples=150, deadline=None)
@given(problems(deterministic=True))
def test_game_equals_the_reference_game(problem):
    system, target = problem
    reference = ReferenceGame(system, target)
    game = build_game(system, target)
    assert solve_safety(game, "universal").all_initials_winning \
        == reference.realizable()
    assert game_approx(system, target) == reference.approximation()
