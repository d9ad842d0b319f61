"""The YAML writer and reader against PyYAML's pure implementation.

``serialize_target`` and ``serialize_problem`` must return exactly the
string that the straightforward ``yaml.safe_dump`` of the record gives,
for names PyYAML writes plain and for every awkward kind it quotes,
escapes or folds. ``_load_document`` must read any text as the pure
``yaml.SafeLoader`` does, although it reads with libyaml where it can.
"""

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from behapprox import io
from behapprox.errors import ParseError
from behapprox.io import parse_problem, serialize_problem, serialize_target
from behapprox.model import IDLE_ACTION, Ltfs, SystemSpec

# -- the oracle: the writer as it was, one safe_dump of the whole record ----


def _record(behavior):
    return {
        "name": behavior.name,
        "states": list(behavior.states),
        "initial": behavior.initial,
        "transitions": [
            {"from": src, "action": action, "to": dst}
            for (src, action, dst) in behavior.transitions
            if action != IDLE_ACTION
        ],
    }


def safe_dump_problem(system, target, options=None):
    document = {}
    if system.name != "system":
        document["name"] = system.name
    if options:
        document["options"] = dict(options)
    document["behaviors"] = [_record(b) for b in system.behaviors]
    document["target"] = _record(target)
    return yaml.safe_dump(document, sort_keys=False)


def safe_dump_target(target):
    return yaml.safe_dump({"target": _record(target)}, sort_keys=False)


# -- generated names and records ------------------------------------------

LETTERS = "abcXYZ_"
PLAIN_TAIL = LETTERS + "09.,|\\-"
WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf")


def _joined(head, tail, min_size=0, max_size=10):
    return st.builds(str.__add__, st.sampled_from(head),
                     st.text(tail, min_size=min_size, max_size=max_size))


PLAIN = _joined(LETTERS, PLAIN_TAIL)
LONG_PLAIN = _joined(LETTERS, PLAIN_TAIL, 80, 100)
AWKWARD = st.one_of(
    st.sampled_from(["yes", "on", "null", "~", "Off", "NULL", "True", "n"]),
    st.sampled_from(["0", "12", "1.5", "1e3", "0x1F", "0o17", "-3", ".inf",
                     "12:30", "2001-12-14", "1_000"]),
    _joined("-:#", LETTERS + " ", max_size=6),
    _joined(LETTERS + "'\"", LETTERS + "'\",|\\ :#", max_size=8),
    st.sampled_from(["café", "Ωmega", "日本", "naïve_x", "a b", ""]),
    st.lists(st.sampled_from(WORDS), min_size=14, max_size=20).map(" ".join),
    st.text(max_size=12),
)
#: A document draws all its names from one pool, so that whole documents
#: of plain names (the line writer) are as common as mixed ones (the dump).
NAME_POOLS = st.sampled_from(
    [PLAIN, st.one_of(PLAIN, LONG_PLAIN), st.one_of(PLAIN, AWKWARD)])


@st.composite
def behaviors(draw, names):
    states = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    actions = draw(st.lists(st.one_of(names, st.just(IDLE_ACTION)),
                            min_size=1, max_size=3))
    moves = st.tuples(st.sampled_from(states), st.sampled_from(actions),
                      st.sampled_from(states))
    return Ltfs(draw(names), tuple(states), draw(st.sampled_from(states)),
                tuple(draw(st.lists(moves, max_size=6, unique=True))))


@st.composite
def targets(draw):
    return draw(behaviors(draw(NAME_POOLS)))


@st.composite
def problems(draw):
    names = draw(NAME_POOLS)
    members = draw(st.lists(behaviors(names), min_size=1, max_size=3,
                            unique_by=lambda b: b.name))
    system = SystemSpec.make(members, draw(st.one_of(st.just("system"), names)))
    options = draw(st.sampled_from(
        [None, {}, {"terminal": "loop"}, {"terminal": "reject"}]))
    return system, draw(behaviors(names)), options


EMPTY = Ltfs("t_approx", ("q0",), "q0", ())
LABELS = Ltfs("t_approx", ("q0", "q1"), "q0", (
    ("q0", "a\\,b", "q1"), ("q1", "go|x", "q0"), ("q1", "__idle__", "q1")))


@settings(max_examples=150, deadline=None)
@given(targets())
@example(EMPTY)
@example(LABELS)
@example(Ltfs("yes", ("on", "null"), "~", (("on", "- x", "null"),)))
def test_serialize_target_equals_safe_dump(target):
    assert serialize_target(target) == safe_dump_target(target)


@settings(max_examples=100, deadline=None)
@given(problems())
@example((SystemSpec.make([LABELS], "bench"), EMPTY, {"terminal": "loop"}))
@example((SystemSpec.make([EMPTY]), LABELS, {"terminal": True}))
def test_serialize_problem_equals_safe_dump(problem):
    system, target, options = problem
    assert (serialize_problem(system, target, options)
            == safe_dump_problem(system, target, options))


def test_plain_documents_never_reach_safe_dump(
        monkeypatch, house_system, t_ent):
    expected = (serialize_problem(house_system, t_ent, {"terminal": "loop"}),
                serialize_target(LABELS), serialize_target(EMPTY))

    def refuse(*args, **kwargs):
        raise AssertionError("yaml.safe_dump called on a plain document")

    monkeypatch.setattr(io.yaml, "safe_dump", refuse)
    assert (serialize_problem(house_system, t_ent, {"terminal": "loop"}),
            serialize_target(LABELS), serialize_target(EMPTY)) == expected
    assert parse_problem(expected[0]) == (house_system, t_ent)


# -- the reader against the pure loader --------------------------------------

#: YAML's indicators, a few plain characters, a tab and a byte order mark.
YAML_ALPHABET = " \t\n!#&*-:>?[]{},|'\"%@`aby01~.\ufeff"


def _read(load, text):
    """("value", repr) or ("error", message or exception type)."""
    try:
        return "value", repr(load(text))
    except ParseError as err:
        return "error", err.message
    except yaml.YAMLError as err:
        return "error", "bad document syntax: %s" % err
    except Exception as err:  # a constructor's own error, e.g. a bad date
        return "error", type(err).__name__


@settings(max_examples=1000, deadline=None)
@given(st.text(YAML_ALPHABET, max_size=14))
@example("a: ~\t~yes")
@example("a: |#\n  x")
@example("a: >1#\n  x")
@example("a: [b?c]")
@example("a: !")
@example("\ufeffa: b\n\ufeff")
def test_load_document_reads_as_the_pure_loader(text):
    pure = _read(lambda t: yaml.load(t, Loader=yaml.SafeLoader), text)
    assert _read(io._load_document, text) == pure
