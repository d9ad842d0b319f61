"""Simulation, simulation equivalence, bisimulation quotient."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from behapprox.model import Ltfs
from behapprox.simrel import (
    Partition,
    bisim_partition,
    largest_simulation,
    quotient,
    sim_equivalent,
    simulates,
)

from conftest import ltfs
from helpers import (
    brute_force_largest_simulation,
    naive_largest_simulation,
    naive_sim_equivalent,
    random_ltfs,
    signature_bisim_blocks,
)


def test_identity_always_survives():
    rng = random.Random(11)
    for _ in range(20):
        b = random_ltfs(rng, "b", rng.randint(1, 6))
        rel = largest_simulation(b, b)
        for s in b.states:
            assert rel.contains(s, s)


def test_approx_sits_below_target(t_ent, t_ent_approx):
    assert simulates(t_ent_approx, t_ent)
    assert not simulates(t_ent, t_ent_approx)
    assert not sim_equivalent(t_ent, t_ent_approx)


def test_branch_vs_choice_classic():
    # a-then-(b or c) from one state simulates the variant that commits at
    # the first step, but not the other way around.
    flexible = ltfs("flex", ["x0", "x1"], "x0",
                    [("x0", "a", "x1"), ("x1", "b", "x0"), ("x1", "c", "x0")])
    committed = ltfs("committed", ["y0", "y1", "y2"], "y0",
                     [("y0", "a", "y1"), ("y0", "a", "y2"),
                      ("y1", "b", "y0"), ("y2", "c", "y0")])
    assert simulates(committed, flexible)
    assert not simulates(flexible, committed)


def test_matches_naive_oracle_on_random_pairs():
    rng = random.Random(23)
    for _ in range(100):
        left = random_ltfs(rng, "L", rng.randint(1, 6))
        right = random_ltfs(rng, "R", rng.randint(1, 6))
        got = largest_simulation(left, right).pairs
        assert got == naive_largest_simulation(left, right)


def test_matches_exhaustive_search_on_small_pairs():
    rng = random.Random(31)
    for _ in range(60):
        left = random_ltfs(rng, "L", rng.randint(1, 4))
        right = random_ltfs(rng, "R", rng.randint(1, 4))
        got = largest_simulation(left, right).pairs
        assert got == brute_force_largest_simulation(left, right)


def test_no_moves_left_means_full_relation():
    idle = Ltfs("idle", ("z",), "z", ())
    busy = ltfs("busy", ["s0", "s1"], "s0",
                [("s0", "a", "s1"), ("s1", "a", "s0")])
    assert largest_simulation(idle, busy).pairs == {("z", "s0"), ("z", "s1")}
    assert simulates(idle, busy)
    assert not simulates(busy, idle)


def test_partition_blocks_are_ordered_and_indexed(t_ent_approx):
    part = bisim_partition(t_ent_approx)
    assert part.blocks == (
        ("u0",), ("u1",), ("u2",), ("u3", "u5", "u7"), ("u4", "u6"), ("u8",))
    assert part.block_of("u6") == 4
    assert part.size == 6


def test_quotient_of_fixture_collapses_to_six_states(t_ent_approx):
    q = quotient(t_ent_approx)
    assert q.states == ("q0", "q1", "q2", "q3", "q4", "q5")
    assert q.initial == "q0"
    assert set(q.transitions) == {
        ("q0", "lightOn", "q1"),
        ("q1", "movie", "q2"),
        ("q1", "movie", "q4"),
        ("q1", "music", "q4"),
        ("q2", "game", "q3"),
        ("q4", "radio", "q3"),
        ("q3", "stop", "q5"),
        ("q5", "lightOff", "q0"),
    }


def test_quotient_preserves_capability(t_ent_approx):
    q = quotient(t_ent_approx)
    assert sim_equivalent(q, t_ent_approx)
    # cross-checked with the from-scratch fixpoint
    assert naive_sim_equivalent(q, t_ent_approx)


def test_quotient_properties_on_random_systems():
    rng = random.Random(47)
    for _ in range(40):
        b = random_ltfs(rng, "b", rng.randint(1, 8))
        q = quotient(b)
        assert len(q.states) <= len(b.states)
        assert naive_sim_equivalent(q, b)
        # already minimal: quotienting again changes nothing
        q2 = quotient(q)
        assert len(q2.states) == len(q.states)
        assert set(q2.transitions) == set(q.transitions)


def test_same_block_states_simulate_each_other():
    rng = random.Random(53)
    for _ in range(25):
        b = random_ltfs(rng, "b", rng.randint(2, 7))
        part = bisim_partition(b)
        rel = largest_simulation(b, b).pairs
        for block in part.blocks:
            for s in block:
                for t in block:
                    assert (s, t) in rel and (t, s) in rel


def test_partition_of_singleton():
    lone = Ltfs("lone", ("only",), "only", ())
    part = bisim_partition(lone)
    assert part.blocks == (("only",),)
    q = quotient(lone)
    assert q.states == ("q0",)
    assert q.transitions == ()


def test_explicit_partition_is_respected(t_ent):
    # collapse t2/t3 on purpose (not a bisimulation; quotient just lifts it)
    part = Partition((("t0",), ("t1",), ("t2", "t3"), ("t4",)))
    q = quotient(t_ent, part)
    assert len(q.states) == 4
    assert ("q2", "stop", "q3") in q.transitions
    assert ("q2", "game", "q2") in q.transitions


# -- bisimulation against the per-round signature oracle ------------------

ACTION_POOL = ("a", "b", "c")


@st.composite
def nondeterministic_systems(draw):
    """Any moves at all: nondeterminism, self-loops, terminal states."""
    n = draw(st.integers(1, 8))
    actions = ACTION_POOL[:draw(st.integers(1, 3))]
    states = tuple(f"s{i}" for i in range(n))
    moves = draw(st.lists(st.tuples(st.sampled_from(states),
                                    st.sampled_from(actions),
                                    st.sampled_from(states)),
                          max_size=3 * n))
    return Ltfs("random", states, "s0", tuple(dict.fromkeys(moves)))


@st.composite
def inflated_systems(draw):
    """Copies of the states of a small system, each copy moving to a
    non-empty choice of copies of its original's successors, so that many
    states are bisimilar and blocks get large."""
    base = draw(nondeterministic_systems())
    n = draw(st.integers(len(base.states), 3 * len(base.states)))
    original = [i % len(base.states) for i in range(n)]
    original[1:] = draw(st.permutations(original[1:]))
    copies = [[c for c in range(n) if original[c] == i]
              for i in range(len(base.states))]
    moves = []
    for c in range(n):
        for s, a, d in base.itransitions:
            if s == original[c]:
                targets = draw(st.lists(st.sampled_from(copies[d]),
                                        min_size=1, unique=True))
                moves += [(f"s{c}", base.actions[a], f"s{t}") for t in targets]
    return Ltfs("inflated", tuple(f"s{c}" for c in range(n)), "s0",
                tuple(moves))


SENTINEL = Ltfs("t_approx", ("q0",), "q0", ())
SAME_CYCLE = Ltfs("cycle", ("c0", "c1", "c2", "c3"), "c0",
                  (("c0", "a", "c1"), ("c1", "a", "c2"),
                   ("c2", "a", "c3"), ("c3", "a", "c0")))
# A tail that splits one block per round, the worst case for rounds.
CHAIN = Ltfs("chain", tuple(f"k{i}" for i in range(6)), "k0",
             tuple((f"k{i}", "a", f"k{i + 1}") for i in range(5)))
# A block that splits three ways: its largest part, re-signed, keeps the
# block's id, while a smaller re-signed part and the states that were not
# re-signed both leave it, and must not end up together.
THREE_WAY = Ltfs("three_way", tuple(f"s{i}" for i in range(8)), "s0",
                 (("s1", "a", "s5"), ("s3", "a", "s1"), ("s7", "a", "s3"),
                  ("s1", "a", "s7"), ("s4", "a", "s5")))
# A block that keeps its id while a smaller part leaves it, then splits
# again: the parts that left must no longer count as its members.
SHRINKING = Ltfs("shrinking", tuple(f"s{i}" for i in range(7)), "s0",
                 (("s3", "a", "s4"), ("s5", "a", "s4"), ("s1", "a", "s3"),
                  ("s4", "a", "s2"), ("s0", "a", "s4"), ("s5", "a", "s3"),
                  ("s3", "a", "s5"), ("s0", "a", "s0")))
SHAPES = (SENTINEL, SAME_CYCLE, CHAIN, THREE_WAY, SHRINKING)


def _with_shapes(test):
    for shape in SHAPES:
        test = example(shape)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(st.one_of(nondeterministic_systems(), inflated_systems()))
@_with_shapes
def test_bisim_partition_equals_the_signature_oracle(system):
    assert bisim_partition(system).blocks == signature_bisim_blocks(system)


@settings(max_examples=300, deadline=None)
@given(st.one_of(nondeterministic_systems(), inflated_systems()))
@_with_shapes
def test_bisim_blocks_are_stable(system):
    part = bisim_partition(system)
    assert sorted(s for block in part.blocks for s in block) \
        == sorted(system.states)
    moves = {s: set() for s in system.states}
    for s, a, d in system.transitions:
        moves[s].add((a, part.block_of(d)))
    for block in part.blocks:
        assert len({frozenset(moves[s]) for s in block}) == 1


def test_bisim_partition_explicit_shapes():
    assert bisim_partition(SENTINEL).blocks == (("q0",),)
    assert bisim_partition(SAME_CYCLE).blocks == (("c0", "c1", "c2", "c3"),)
    assert bisim_partition(CHAIN).blocks == tuple(
        (f"k{i}",) for i in range(6))
    assert bisim_partition(THREE_WAY).blocks == (
        ("s0", "s2", "s5", "s6"), ("s1",), ("s3",), ("s4",), ("s7",))
    assert bisim_partition(SHRINKING).blocks == (
        ("s0", "s3", "s5"), ("s1",), ("s2", "s6"), ("s4",))
