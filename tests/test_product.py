"""Product constructions: asynchronous system product and target pairing."""

import itertools
import random

import pytest
from hypothesis import given, settings

from behapprox.errors import ProductError
from behapprox.model import SystemSpec
from behapprox.product import enacted_system, full_enacted_system

from conftest import GOLDEN_KEPT_STATES, GOLDEN_KEPT_TRANSITIONS
from helpers import (problems, random_ltfs, random_system, random_target,
                     reference_products)


def labeled_transitions(product):
    return {(product.state_label(s), a, k, product.state_label(d))
            for s, a, k, d in product.transitions}


def test_house_async_product_covers_all_combinations(house_system):
    es = enacted_system(house_system)
    assert es.potential_state_count == 72  # 4 * 3 * 3 * 2
    # every behavior can move independently here, so everything is reachable
    assert len(es.states) == 72
    assert es.initial == 0
    assert es.state_label(0) == "a0,b0,c0,d0"
    assert set(es.states) == set(
        itertools.product(*(b.states for b in house_system.behaviors)))


def test_house_target_pairing_matches_hand_derivation(house_system, t_ent):
    fes = full_enacted_system(house_system, t_ent)
    dead = "a3,b0,c0,d1|t3"
    risky_src = "a1,b0,c0,d1|t2"
    expected_states = GOLDEN_KEPT_STATES | {dead}
    expected_transitions = GOLDEN_KEPT_TRANSITIONS | {
        (risky_src, "web", 1, "a2,b0,c0,d1|t3"),
        (risky_src, "web", 1, dead),
    }
    assert {fes.state_label(i) for i in range(len(fes.states))} == expected_states
    assert labeled_transitions(fes) == expected_transitions
    assert [fes.state_label(i) for i in fes.dead_ends] == [dead]
    assert fes.state_label(fes.initial) == "a0,b0,c0,d0|t0"
    assert fes.potential_state_count == 72 * 5


def test_empty_system_is_rejected(t_ent):
    empty = SystemSpec.make([])
    with pytest.raises(ProductError) as exc:
        enacted_system(empty)
    assert exc.value.code == "E_EMPTY_SYSTEM"
    with pytest.raises(ProductError) as exc:
        full_enacted_system(empty, t_ent)
    assert exc.value.code == "E_EMPTY_SYSTEM"


def test_async_product_frame_condition():
    rng = random.Random(5)
    for _ in range(20):
        system = random_system(rng, rng.randint(1, 3), 4)
        es = enacted_system(system)
        for s, a, k, d in es.transitions:
            src, dst = es.states[s], es.states[d]
            for j in range(system.size):
                if j != k - 1:
                    assert src[j] == dst[j]
            assert (src[k - 1], a, dst[k - 1]) in system.behavior(k).transitions


def test_async_product_is_complete():
    rng = random.Random(9)
    for _ in range(20):
        system = random_system(rng, rng.randint(1, 3), 4)
        es = enacted_system(system)
        trans = set(es.transitions)
        for i, tup in enumerate(es.states):
            for k, b in enumerate(system.behaviors, start=1):
                for _, a, d in b.transitions_from(tup[k - 1]):
                    j = es.state_id[tup[:k - 1] + (d,) + tup[k:]]
                    assert (i, a, k, j) in trans


def test_target_pairing_tracks_both_sides():
    rng = random.Random(13)
    for _ in range(20):
        system = random_system(rng, rng.randint(1, 3), 3)
        target = random_target(rng, rng.randint(1, 4))
        fes = full_enacted_system(system, target)
        for s, a, k, d in fes.transitions:
            (src_sys, src_t), (dst_sys, dst_t) = fes.states[s], fes.states[d]
            assert (src_t, a, dst_t) in target.transitions
            assert (src_sys[k - 1], a, dst_sys[k - 1]) in system.behavior(k).transitions
            for j in range(system.size):
                if j != k - 1:
                    assert src_sys[j] == dst_sys[j]
        # and conversely every (target move, able behavior) pair is present
        trans = set(fes.transitions)
        for i, (tup, t) in enumerate(fes.states):
            for _, a, t_next in target.transitions_from(t):
                for k, b in enumerate(system.behaviors, start=1):
                    for nxt in b.successors(tup[k - 1], a):
                        j = fes.state_id[(tup[:k - 1] + (nxt,) + tup[k:], t_next)]
                        assert (i, a, k, j) in trans


def test_reachable_subset_of_full():
    rng = random.Random(17)
    for _ in range(10):
        system = random_system(rng, 2, 3)
        target = random_target(rng, 3)
        reachable = full_enacted_system(system, target)
        everything = set(itertools.product(
            itertools.product(*(b.states for b in system.behaviors)),
            target.states))
        assert set(reachable.states) <= everything
        assert len(everything) == reachable.potential_state_count


def test_construction_is_deterministic(house_system, t_ent):
    a = full_enacted_system(house_system, t_ent)
    b = full_enacted_system(house_system, t_ent)
    assert a.states == b.states
    assert a.transitions == b.transitions
    ea = enacted_system(house_system)
    eb = enacted_system(house_system)
    assert ea.states == eb.states
    assert ea.transitions == eb.transitions


@settings(max_examples=200, deadline=None)
@given(problems())
def test_products_equal_the_name_tuple_search(problem):
    system, target = problem
    enacted, paired = reference_products(system, target)
    es = enacted_system(system)
    assert (es.states, es.transitions) == enacted
    fes = full_enacted_system(system, target)
    assert (fes.states, fes.transitions) == paired
    labels = [fes.state_label(i) for i in range(len(fes.states))]
    assert len(set(labels)) == len(labels)
