"""Shared fixtures: the smart-house instance and its hand-derived expectations.

The expected pruned system and expected quotient below were worked out by
hand on paper (full delegation cascade, dead-end analysis, block merge) and
are frozen here as oracles. Tests compare computed output against these
literals; they must never be regenerated from the code under test.
"""

import os

import pytest
from hypothesis import settings

from behapprox.model import RawBehavior, SystemSpec, validate_behavior

# In CI, properties draw the same examples on every run, so a failure in
# one matrix cell reproduces locally under CI=1; local runs stay random.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def ltfs(name, states, initial, transitions, policy="reject"):
    """Build a validated behavior from literal triples."""
    return validate_behavior(
        RawBehavior.make(name, states, initial, transitions), policy=policy)


@pytest.fixture
def b_game():
    return ltfs("gamedev", ["a0", "a1", "a2", "a3"], "a0", [
        ("a0", "movie", "a1"),
        ("a1", "game", "a2"),
        ("a1", "web", "a2"),
        ("a1", "web", "a3"),
        ("a2", "stop", "a0"),
        ("a3", "unplug", "a0"),
    ])


@pytest.fixture
def b_audio():
    return ltfs("audiodev", ["b0", "b1", "b2"], "b0", [
        ("b0", "music", "b1"),
        ("b1", "radio", "b2"),
        ("b2", "stop", "b0"),
    ])


@pytest.fixture
def b_movie():
    return ltfs("moviedev", ["c0", "c1", "c2"], "c0", [
        ("c0", "movie", "c1"),
        ("c1", "radio", "c2"),
        ("c2", "stop", "c0"),
    ])


@pytest.fixture
def b_light():
    return ltfs("lights", ["d0", "d1"], "d0", [
        ("d0", "lightOn", "d1"),
        ("d1", "lightOff", "d0"),
    ])


@pytest.fixture
def house_system(b_game, b_audio, b_movie, b_light):
    return SystemSpec.make([b_game, b_audio, b_movie, b_light], name="house")


@pytest.fixture
def t_ent():
    return ltfs("entertainment", ["t0", "t1", "t2", "t3", "t4"], "t0", [
        ("t0", "lightOn", "t1"),
        ("t1", "movie", "t2"),
        ("t1", "music", "t2"),
        ("t2", "game", "t3"),
        ("t2", "radio", "t3"),
        ("t2", "web", "t3"),
        ("t3", "stop", "t4"),
        ("t4", "lightOff", "t0"),
    ])


@pytest.fixture
def t_ent_approx():
    """The best realizable variant of the entertainment target (9 states).

    Drawn by hand from the house instance: the web request and the
    music-then-game branch drop out, everything else survives.
    """
    return ltfs("entertainment_approx",
                ["u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8"],
                "u0", [
                    ("u0", "lightOn", "u1"),
                    ("u1", "movie", "u2"),
                    ("u2", "game", "u3"),
                    ("u3", "stop", "u8"),
                    ("u1", "movie", "u4"),
                    ("u4", "radio", "u5"),
                    ("u5", "stop", "u8"),
                    ("u1", "music", "u6"),
                    ("u6", "radio", "u7"),
                    ("u7", "stop", "u8"),
                    ("u8", "lightOff", "u0"),
                ])


# -- hand-derived pruning outcome for the house instance -----------------
#
# Full-state rendering convention: "a,b,c,d|t" with behavior states in
# declaration order, then the target state.

GOLDEN_KEPT_STATES = {
    "a0,b0,c0,d0|t0",
    "a0,b0,c0,d1|t1",
    "a1,b0,c0,d1|t2",
    "a0,b0,c1,d1|t2",
    "a0,b1,c0,d1|t2",
    "a2,b0,c0,d1|t3",
    "a0,b0,c2,d1|t3",
    "a0,b2,c0,d1|t3",
    "a0,b0,c0,d1|t4",
}

# (source, action, index, destination) of every surviving transition.
GOLDEN_KEPT_TRANSITIONS = {
    ("a0,b0,c0,d0|t0", "lightOn", 4, "a0,b0,c0,d1|t1"),
    ("a0,b0,c0,d1|t1", "movie", 1, "a1,b0,c0,d1|t2"),
    ("a0,b0,c0,d1|t1", "movie", 3, "a0,b0,c1,d1|t2"),
    ("a0,b0,c0,d1|t1", "music", 2, "a0,b1,c0,d1|t2"),
    ("a1,b0,c0,d1|t2", "game", 1, "a2,b0,c0,d1|t3"),
    ("a0,b0,c1,d1|t2", "radio", 3, "a0,b0,c2,d1|t3"),
    ("a0,b1,c0,d1|t2", "radio", 2, "a0,b2,c0,d1|t3"),
    ("a2,b0,c0,d1|t3", "stop", 1, "a0,b0,c0,d1|t4"),
    ("a0,b0,c2,d1|t3", "stop", 3, "a0,b0,c0,d1|t4"),
    ("a0,b2,c0,d1|t3", "stop", 2, "a0,b0,c0,d1|t4"),
    ("a0,b0,c0,d1|t4", "lightOff", 4, "a0,b0,c0,d0|t0"),
}

# Quotient of the pruned projection: 6 states, 8 transitions. States are
# named by discovery order from the initial block.
GOLDEN_QUOTIENT_TRANSITIONS = {
    ("q0", "lightOn", "q1"),
    ("q1", "movie", "q2"),
    ("q1", "movie", "q3"),
    ("q1", "music", "q3"),
    ("q2", "game", "q4"),
    ("q3", "radio", "q4"),
    ("q4", "stop", "q5"),
    ("q5", "lightOff", "q0"),
}

GOLDEN_QUOTIENT_STATE_COUNT = 6


@pytest.fixture
def golden_kept_states():
    return set(GOLDEN_KEPT_STATES)


@pytest.fixture
def golden_kept_transitions():
    return set(GOLDEN_KEPT_TRANSITIONS)


@pytest.fixture
def golden_quotient_transitions():
    return set(GOLDEN_QUOTIENT_TRANSITIONS)
