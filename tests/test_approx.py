"""The pruning pipeline: fixpoint, projection, quotient, delegations."""

import gc
import pathlib
import random

import pytest
from hypothesis import example, given, settings

from behapprox.approx import (
    KIND_DEAD_END,
    KIND_RISKY,
    PrunedFull,
    approximate,
    check_exact,
    compute_approx,
    extract_controller_generator,
    prune_fixpoint,
    project_indexes,
)
from behapprox.engine import Session
from behapprox.errors import ApproxError, ProductError
from behapprox.game import game_approx
from behapprox.io import (parse_problem, parse_target, run_cli,
                          serialize_target)
from behapprox.model import SystemSpec
from behapprox.product import (FullEnactedSystem, enacted_system,
                               full_enacted_system)
from behapprox.simrel import sim_equivalent, simulates

from conftest import ltfs
from helpers import (
    bounded_action_sequences,
    composition_exists,
    live_sub_behaviors,
    problems,
    random_system,
    random_target,
    reference_prune,
    unrealizable_nondeterministic_instance,
)

PROBLEM_PATH = pathlib.Path(__file__).resolve().parent.parent / "problems" \
    / "smarthouse.yaml"


def permuted_copy(behavior, rng):
    """Same behavior, different declaration order of states and transitions."""
    states = list(behavior.states)
    rng.shuffle(states)
    transitions = list(behavior.transitions)
    rng.shuffle(transitions)
    return ltfs(behavior.name, states, behavior.initial, transitions,
                policy="loop")


# -- golden instance -------------------------------------------------------

def test_golden_pruning_matches_hand_derivation(
        house_system, t_ent, golden_kept_states, golden_kept_transitions):
    result = approximate(house_system, t_ent)
    assert result.pruned.kept_state_labels == golden_kept_states
    assert result.pruned.kept_transition_labels == golden_kept_transitions
    assert not result.is_empty

    log = result.pruned.removal_log
    assert [(e.round, e.kind) for e in log] == [
        (1, KIND_DEAD_END), (1, KIND_RISKY), (1, KIND_RISKY)]
    assert log[0].item == "a3,b0,c0,d1|t3"
    assert {e.item for e in log[1:]} == {
        ("a1,b0,c0,d1|t2", "web", 1, "a2,b0,c0,d1|t3"),
        ("a1,b0,c0,d1|t2", "web", 1, "a3,b0,c0,d1|t3"),
    }


def test_golden_quotient_shape(house_system, t_ent,
                               golden_quotient_transitions):
    approx = compute_approx(house_system, t_ent)
    assert approx.states == ("q0", "q1", "q2", "q3", "q4", "q5")
    assert approx.initial == "q0"
    assert set(approx.transitions) == golden_quotient_transitions


def test_golden_matches_published_shape(house_system, t_ent, t_ent_approx):
    assert sim_equivalent(compute_approx(house_system, t_ent), t_ent_approx)


def test_golden_projection_keeps_branching(house_system, t_ent):
    result = approximate(house_system, t_ent)
    proj = result.projection
    (first,) = proj.successors(proj.initial, "lightOn")
    movie_dests = proj.successors(first, "movie")
    assert len(movie_dests) == 2
    game_side = [d for d in movie_dests if proj.successors(d, "game")]
    radio_side = [d for d in movie_dests if proj.successors(d, "radio")]
    assert len(game_side) == 1 and len(radio_side) == 1


def test_golden_lost_and_kept_sequences(house_system, t_ent):
    approx = compute_approx(house_system, t_ent)
    seqs = bounded_action_sequences(approx, 5)
    assert ("lightOn", "music", "game") not in seqs
    assert not any(s[:3] == ("lightOn", "music", "game") for s in seqs)
    assert ("lightOn", "movie", "game", "stop", "lightOff") in seqs
    assert ("lightOn", "movie", "radio", "stop", "lightOff") in seqs
    assert ("lightOn", "music", "radio", "stop", "lightOff") in seqs
    assert not any("web" in s for s in seqs)


def test_exactness_verdicts(house_system, t_ent, t_ent_approx, b_light):
    assert not check_exact(house_system, t_ent)
    assert check_exact(house_system, t_ent_approx)
    solo = SystemSpec.make([b_light])
    assert check_exact(solo, b_light.renamed("wanted"))


def test_identity_composition_nothing_pruned(b_light):
    solo = SystemSpec.make([b_light])
    result = approximate(solo, b_light.renamed("wanted"))
    assert result.pruned.removal_log == ()
    assert len(result.pruned.kept_state_ids) == len(result.full.states)
    assert sim_equivalent(result.approx, b_light)


# -- pruning mechanics ------------------------------------------------------

def test_cascade_removes_in_successive_rounds():
    # the chain dies backwards: dead end first, then its feeder
    b = ltfs("b", ["x0", "x1", "x2"], "x0",
             [("x0", "a", "x1"), ("x1", "b", "x2"), ("x2", "z", "x0")])
    target = ltfs("t", ["t0", "t1", "t2", "t3"], "t0",
                  [("t0", "a", "t1"), ("t1", "b", "t2"), ("t2", "c", "t3"),
                   ("t3", "c", "t3")])
    pruned = prune_fixpoint(full_enacted_system(SystemSpec.make([b]), target))
    assert [(e.round, e.kind, e.item) for e in pruned.removal_log] == [
        (1, KIND_DEAD_END, "x2|t2"),
        (1, KIND_RISKY, ("x1|t1", "b", 1, "x2|t2")),
        (2, KIND_DEAD_END, "x1|t1"),
        (2, KIND_RISKY, ("x0|t0", "a", 1, "x1|t1")),
    ]
    assert pruned.is_empty
    assert pruned.kept_state_labels == {"x0|t0"}


def test_risky_groups_die_as_units():
    # one bad nondeterministic outcome poisons the whole delegation
    b = ltfs("b", ["x0", "x1", "x2"], "x0",
             [("x0", "a", "x1"), ("x0", "a", "x2"),
              ("x1", "b", "x1"), ("x2", "c", "x2")])
    target = ltfs("t", ["t0", "t1"], "t0",
                  [("t0", "a", "t1"), ("t1", "b", "t1")])
    pruned = prune_fixpoint(full_enacted_system(SystemSpec.make([b]), target))
    assert pruned.is_empty
    assert pruned.kept_state_labels == {"x0|t0"}
    risky = {e.item for e in pruned.removal_log if e.kind == KIND_RISKY}
    assert risky == {("x0|t0", "a", 1, "x1|t1"), ("x0|t0", "a", 1, "x2|t1")}


def test_foreign_action_gives_empty_approximation(house_system):
    target = ltfs("t", ["t0"], "t0", [("t0", "teleport", "t0")])
    result = approximate(house_system, target)
    assert result.is_empty
    assert len(result.approx.states) == 1
    assert result.approx.transitions == ()
    assert simulates(result.approx, target)
    with pytest.raises(ApproxError) as exc:
        extract_controller_generator(result.pruned)
    assert exc.value.code == "E_EMPTY_APPROX"


def test_projection_merges_parallel_delegations():
    b1 = ltfs("one", ["x"], "x", [("x", "a", "x")])
    b2 = ltfs("two", ["y"], "y", [("y", "a", "y")])
    target = ltfs("t", ["t0"], "t0", [("t0", "a", "t0")])
    result = approximate(SystemSpec.make([b1, b2]), target)
    assert len(result.pruned.kept_transitions) == 2
    assert result.projection.transitions == (("x,y|t0", "a", "x,y|t0"),)
    gen = extract_controller_generator(result.pruned)
    sid = result.full.state_id[(("x", "y"), "t0")]
    assert gen.for_destination(sid, "a", sid) == {1, 2}


def test_state_labels_never_collide():
    # Joined without escaping, "a" + "b,c" and "a,b" + "c" both read
    # "a,b,c|t|0"; the target names hold the other reserved characters.
    one = ltfs("one", ["a", "a,b"], "a", [("a", "x", "a,b"), ("a,b", "x", "a")])
    two = ltfs("two", ["b,c", "c"], "b,c",
               [("b,c", "y", "c"), ("c", "y", "b,c")])
    target = ltfs("t", ["t|0", "t\\1"], "t|0",
                  [("t|0", "x", "t\\1"), ("t\\1", "y", "t|0"),
                   ("t|0", "y", "t|0"), ("t\\1", "x", "t\\1")])
    system = SystemSpec.make([one, two])
    for product in (enacted_system(system), full_enacted_system(system, target)):
        labels = [product.state_label(i) for i in range(len(product.states))]
        assert len(set(labels)) == len(labels) == len(product.states)

    result = approximate(system, target)
    names = result.projection.states
    assert len(set(names)) == len(names)
    members = sorted(i for ids in result.block_members.values() for i in ids)
    assert members == sorted(result.pruned.kept_state_ids)

    approx = compute_approx(system, target)
    reparsed = parse_target(serialize_target(approx))
    assert reparsed == approx
    assert sim_equivalent(reparsed, target)
    assert check_exact(system, target)
    assert sim_equivalent(game_approx(system, target), approx)


# -- controller generator ---------------------------------------------------

def test_generator_reads_off_golden_delegations(house_system, t_ent):
    result = approximate(house_system, t_ent)
    gen = extract_controller_generator(result.pruned)
    by_label = {result.full.state_label(i): i
                for i in result.pruned.kept_state_ids}
    init = by_label["a0,b0,c0,d0|t0"]
    ready = by_label["a0,b0,c0,d1|t1"]
    game_branch = by_label["a1,b0,c0,d1|t2"]
    movie_branch = by_label["a0,b0,c1,d1|t2"]

    assert gen.for_request(init, "lightOn", "t1") == {4}
    assert gen.for_destination(ready, "movie", game_branch) == {1}
    assert gen.for_destination(ready, "movie", movie_branch) == {3}
    assert gen.for_request(ready, "movie", "t2") == {1, 3}
    assert gen.for_request(ready, "music", "t2") == {2}
    assert gen.for_request(game_branch, "web", "t3") == frozenset()
    assert set(gen.requests_at[ready]) == {
        ("t1", "movie", "t2"), ("t1", "music", "t2")}
    # definitional nonemptiness
    assert all(ks for ks in gen.delegations.values())


# -- properties on random instances -----------------------------------------

def test_soundness_and_structure_on_random_instances():
    rng = random.Random(101)
    for _ in range(60):
        system = random_system(rng, rng.randint(1, 3), 4)
        target = random_target(rng, rng.randint(1, 4))
        result = approximate(system, target)
        # the approximation never exceeds the target
        assert simulates(result.approx, target)
        # quotient never enlarges
        assert len(result.approx.states) <= len(result.projection.states)
        pruned = result.pruned
        if pruned.is_empty:
            assert pruned.kept_transitions == ()
            assert len(pruned.kept_state_ids) == 1
            continue
        # liveness: every kept state keeps an exit
        with_out = {s for s, _, _, _ in pruned.kept_transitions}
        assert set(pruned.kept_state_ids) <= with_out
        # group closure: keeping one nondeterministic outcome keeps them all
        kept = pruned.kept_transition_set
        kept_states = pruned.kept_state_set
        base = pruned.base
        for s, a, k, d in kept:
            for s2, a2, k2, d2 in base.transitions:
                if (s2, a2, k2) == (s, a, k) \
                        and base.target_part(d2) == base.target_part(d):
                    assert (s2, a2, k2, d2) in kept
                    assert d2 in kept_states


def test_unique_up_to_capability_under_permutation():
    rng = random.Random(211)
    for _ in range(30):
        system = random_system(rng, rng.randint(1, 3), 4)
        target = random_target(rng, rng.randint(1, 4))
        reference = compute_approx(system, target)
        for _ in range(3):
            order = list(range(system.size))
            rng.shuffle(order)
            permuted = SystemSpec.make(
                [permuted_copy(system.behaviors[i], rng) for i in order])
            shuffled_target = permuted_copy(target, rng)
            assert sim_equivalent(
                compute_approx(permuted, shuffled_target), reference)


def test_stable_under_reapproximation_when_deterministic():
    rng = random.Random(307)
    for _ in range(30):
        system = random_system(rng, rng.randint(1, 3), 4, deterministic=True)
        target = random_target(rng, rng.randint(1, 4))
        once = compute_approx(system, target)
        twice = compute_approx(system, once)
        assert sim_equivalent(once, twice)


def test_stable_under_reapproximation_on_golden(house_system, t_ent):
    once = compute_approx(house_system, t_ent)
    twice = compute_approx(house_system, once)
    assert sim_equivalent(once, twice)


def test_reapproximation_gap_on_branching_outcomes():
    # Known boundary: a nondeterministic delegation whose outcomes land in
    # places that honor different continuations survives pruning (each
    # outcome stays live), so the computed result keeps the a-branching.
    # Feeding that result back in as the target demands guaranteed
    # destinations per requested transition, which no delegation gives, so
    # the second pass collapses to empty. Pinned as the actual behavior.
    b = ltfs("b", ["x0", "x1", "x2"], "x0",
             [("x0", "a", "x1"), ("x0", "a", "x2"),
              ("x1", "b", "x0"), ("x2", "c", "x0")])
    target = ltfs("t", ["t0", "t1"], "t0",
                  [("t0", "a", "t1"), ("t1", "b", "t0"), ("t1", "c", "t0")])
    system = SystemSpec.make([b])
    once = approximate(system, target)
    assert not once.is_empty
    assert len(once.approx.states) == 3
    twice = approximate(system, once.approx)
    assert twice.is_empty
    assert not sim_equivalent(once.approx, twice.approx)
    # the exactness verdicts still agree with the from-scratch oracle
    assert not composition_exists(system, once.approx)
    assert not check_exact(system, once.approx)


def test_no_realizable_candidate_strictly_beats_result():
    rng = random.Random(401)
    checked = 0
    while checked < 12:
        system = random_system(rng, rng.randint(1, 2), 3, actions=("alpha", "beta"))
        target = random_target(rng, rng.randint(1, 3), actions=("alpha", "beta"))
        full = full_enacted_system(system, target)
        # enumerate candidates over the unpruned projection
        unpruned = PrunedFull(full, tuple(range(len(full.states))),
                              full.transitions, ())
        whole = project_indexes(unpruned)
        if len(whole.transitions) > 10:
            continue
        checked += 1
        approx = compute_approx(system, target)
        for candidate in live_sub_behaviors(whole):
            if not composition_exists(system, candidate):
                continue
            strictly_better = (simulates(approx, candidate)
                               and not simulates(candidate, approx))
            assert not strictly_better


# -- pruning against the dict-keyed group oracle ----------------------------

@settings(max_examples=200, deadline=None)
@given(problems())
def test_prune_fixpoint_equals_the_dict_keyed_groups(problem):
    full = full_enacted_system(*problem)
    pruned = prune_fixpoint(full)
    kept_states, kept_transitions, log = reference_prune(full)
    assert pruned.kept_state_ids == kept_states
    assert pruned.kept_transitions == kept_transitions
    assert [(e.round, e.kind, e.item) for e in pruned.removal_log] == log


# -- exactness against the first-principles winning set ---------------------

@settings(max_examples=300, deadline=None)
@given(problems())
@example(unrealizable_nondeterministic_instance())
def test_check_exact_equals_composition_exists(problem):
    assert check_exact(*problem) == composition_exists(*problem)


# -- the garbage collector pause and the label-free path ---------------------

@pytest.mark.parametrize("enabled", [True, False])
def test_approximate_restores_the_collector_state(house_system, t_ent,
                                                  enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        approximate(house_system, t_ent)
        assert gc.isenabled() is enabled
        with pytest.raises(ProductError) as exc:
            approximate(SystemSpec.make([]), t_ent)
        assert exc.value.code == "E_EMPTY_SYSTEM"
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_sessions_and_cli_build_no_product_label(monkeypatch, tmp_path,
                                                 capsys):
    labelled = []
    real = FullEnactedSystem.state_label

    def spy(self, i):
        labelled.append(i)
        return real(self, i)

    monkeypatch.setattr(FullEnactedSystem, "state_label", spy)
    result = approximate(*parse_problem(PROBLEM_PATH.read_text()))
    Session.from_approx(result, requests="target")
    Session.from_approx(result, requests="approx")
    assert run_cli(["approx", "--input", str(PROBLEM_PATH),
                    "--output", str(tmp_path / "approx.yaml")]) == 0
    assert run_cli(["check", "--input", str(PROBLEM_PATH)]) == 1
    assert capsys.readouterr().out == "exact: false\n"
    assert labelled == []
    # the spy sees the labels a session step reports
    session = Session.from_approx(result, requests="target")
    session.step(("t0", "lightOn", "t1"))
    assert labelled
