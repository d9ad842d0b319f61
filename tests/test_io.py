"""Problem-document parsing, DOT/ISPL export, and the command line."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from behapprox import io
from behapprox.approx import approximate, compute_approx
from behapprox.errors import (
    CompositionError,
    ExportError,
    ParseError,
    ValidationError,
)
from behapprox.io import (
    export_dot,
    export_ispl,
    parse_problem,
    parse_problem_file,
    parse_target,
    run_cli,
    serialize_problem,
    serialize_target,
)
from behapprox.model import Ltfs, SystemSpec
from behapprox.product import enacted_system

from conftest import ltfs
from helpers import (
    check_ispl_structure,
    naive_sim_equivalent,
    random_system,
    random_target,
    unrealizable_nondeterministic_instance,
)

PROBLEM_PATH = Path(__file__).resolve().parent.parent / "problems" / "smarthouse.yaml"


# -- parsing --------------------------------------------------------------

def test_smarthouse_document_matches_the_fixtures(house_system, t_ent):
    system, target = parse_problem(PROBLEM_PATH.read_text())
    assert system == house_system
    assert target == t_ent


def test_serialize_then_parse_is_identity(house_system, t_ent):
    text = serialize_problem(house_system, t_ent)
    system, target = parse_problem(text)
    assert system == house_system
    assert target == t_ent


def test_parse_rejects_missing_target():
    with pytest.raises(ParseError) as err:
        parse_problem("behaviors:\n- name: b\n  states: [s]\n"
                      "  initial: s\n  transitions: []\n")
    assert err.value.code == "E_PARSE"
    assert "target" in str(err.value)


def test_parse_rejects_duplicate_behavior_names():
    document = ("behaviors:\n"
                "- {name: b, states: [s], initial: s,"
                " transitions: [{from: s, action: go, to: s}]}\n"
                "- {name: b, states: [s], initial: s,"
                " transitions: [{from: s, action: go, to: s}]}\n"
                "target: {name: t, states: [t0], initial: t0,"
                " transitions: [{from: t0, action: go, to: t0}]}\n")
    with pytest.raises(ParseError) as err:
        parse_problem(document)
    assert "behaviors[0]" in str(err.value)
    assert "behaviors[1]" in str(err.value)


def test_parse_reports_locations():
    with pytest.raises(ParseError) as err:
        parse_problem("behaviors:\n"
                      "- name: b\n"
                      "  states: [s]\n"
                      "  initial: s\n"
                      "  transitions:\n"
                      "  - {from: s, action: go, to: s}\n"
                      "  - {from: s, to: s}\n"
                      "target: {name: t, states: [t0], initial: t0,"
                      " transitions: []}\n")
    assert "behaviors[0].transitions[1]" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_problem("behaviors: []\ntarget: {}\n")
    assert "non-empty" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_problem("not: [valid\n")
    assert err.value.code == "E_PARSE"

    with pytest.raises(ParseError) as err:
        parse_problem("behaviors: {}\ntarget: {}\nextra: 1\n")
    assert "extra" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_problem_file("options: {terminal: maybe}\n"
                           "behaviors: [{name: b, states: [s], initial: s,"
                           " transitions: []}]\n"
                           "target: {name: t, states: [t0], initial: t0,"
                           " transitions: []}\n")
    assert "terminal" in str(err.value)


# Unknown keys of mixed types cannot be sorted together; they must still
# read as an [E_PARSE] error, not a TypeError.
MIXED_KEYS = {
    "document": ("~: 1\nextra: 2\nbehaviors: []\ntarget: {}\n",
                 "unknown field 'extra'", "document"),
    "behavior": ("behaviors:\n- {1: x, z: y}\ntarget: {}\n",
                 "unknown field 'z'", "behaviors[0]"),
    "no-strings": ("behaviors:\n- {1: x, ~: y}\ntarget: {}\n",
                   "unknown field None", "behaviors[0]"),
}


@pytest.mark.parametrize("text, message, location", MIXED_KEYS.values(),
                         ids=MIXED_KEYS.keys())
def test_unknown_keys_that_are_not_strings_read_as_parse_errors(
        text, message, location):
    with pytest.raises(ParseError) as err:
        parse_problem_file(text)
    assert err.value.code == "E_PARSE"
    assert err.value.message == "%s (at %s)" % (message, location)


def test_unknown_field_message_is_the_same_under_every_hash_seed():
    # String keys are named first, in sorted order, then keys of other
    # types; the choice must not follow set order, which the hash seed sets.
    documents = [
        "zeta: 1\nextra: 2\nmid: 3\nbehaviors: []\ntarget: {}\n",
        "~: 1\n7: 2\nzeta: 3\nextra: 4\nbehaviors: []\ntarget: {}\n",
        "behaviors:\n- {1: x, zz: y, aa: w, 2.5: v, ~: u}\ntarget: {}\n",
    ]
    script = ("import sys\n"
              "from behapprox.errors import ParseError\n"
              "from behapprox.io import parse_problem_file\n"
              "for text in sys.argv[1:]:\n"
              "    try:\n"
              "        parse_problem_file(text)\n"
              "    except ParseError as err:\n"
              "        print(err)\n")
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        run = subprocess.run([sys.executable, "-c", script] + documents,
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert outputs == {
        "[E_PARSE] unknown field 'extra' (at document)\n"
        "[E_PARSE] unknown field 'extra' (at document)\n"
        "[E_PARSE] unknown field 'aa' (at behaviors[0])\n"}


def test_validation_errors_carry_document_context():
    text = ("behaviors:\n"
            "- {name: b, states: [s], initial: missing, transitions: []}\n"
            "target: {name: t, states: [t0], initial: t0,"
            " transitions: [{from: t0, action: go, to: t0}]}\n")
    with pytest.raises(ValidationError) as err:
        parse_problem(text)
    assert err.value.code == "E_BAD_INITIAL"
    assert "behaviors[0]" in str(err.value)
    assert "b" in str(err.value)


def test_terminal_policy_precedence():
    text = ("options: {terminal: loop}\n"
            "behaviors:\n"
            "- {name: b, states: [s, dead], initial: s,"
            " transitions: [{from: s, action: go, to: dead}]}\n"
            "target: {name: t, states: [t0], initial: t0,"
            " transitions: [{from: t0, action: go, to: t0}]}\n")
    system, _ = parse_problem(text)
    assert ("dead", "__idle__", "dead") in system.behaviors[0].transitions

    with pytest.raises(ValidationError) as err:
        parse_problem(text, policy="reject")
    assert err.value.code == "E_TERMINAL_STATE"

    with pytest.raises(ValidationError):
        parse_problem(text.replace("options: {terminal: loop}\n", ""))


def test_loop_policy_round_trip():
    text = ("options: {terminal: loop}\n"
            "behaviors:\n"
            "- {name: b, states: [s, dead], initial: s,"
            " transitions: [{from: s, action: go, to: dead}]}\n"
            "target: {name: t, states: [t0], initial: t0,"
            " transitions: [{from: t0, action: go, to: t0}]}\n")
    system, target = parse_problem(text)
    out = serialize_problem(system, target, options={"terminal": "loop"})
    assert "__idle__" not in out
    system2, target2 = parse_problem(out)
    assert system2.behaviors == system.behaviors
    assert target2 == target


def test_target_document_round_trip(t_ent):
    assert parse_target(serialize_target(t_ent)) == t_ent
    empty = Ltfs("t_approx", ("q0",), "q0", ())
    assert parse_target(serialize_target(empty)) == empty


MALFORMED = {
    "tab-indent": "behaviors:\n\t- name: b\n",
    "unclosed-bracket": "behaviors: [b0, b1\ntarget: {}\n",
    "unterminated-quote": "target:\n  name: \"t\n",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_syntax_errors_read_as_the_pure_loader_words_them(text):
    with pytest.raises(yaml.YAMLError) as pure:
        yaml.load(text, Loader=yaml.SafeLoader)
    for parse in (parse_problem_file, parse_target):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.code == "E_PARSE"
        assert err.value.message == "bad document syntax: %s" % pure.value


def _spy_on_loaders(monkeypatch):
    used = []
    load = yaml.load

    def spy(text, Loader):
        used.append(Loader)
        return load(text, Loader=Loader)

    monkeypatch.setattr(io.yaml, "load", spy)
    return used


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
def test_libyaml_reads_and_the_pure_loader_only_rewords_errors(monkeypatch):
    used = _spy_on_loaders(monkeypatch)
    parse_problem(PROBLEM_PATH.read_text())
    assert used == [yaml.CSafeLoader]
    used.clear()
    with pytest.raises(ParseError):
        parse_problem("not: [valid\n")
    assert used == [yaml.CSafeLoader, yaml.SafeLoader]


def test_round_trip_through_the_pure_loader(monkeypatch, house_system, t_ent):
    monkeypatch.setattr(io, "_LOADER", yaml.SafeLoader)
    used = _spy_on_loaders(monkeypatch)
    text = serialize_problem(house_system, t_ent)
    assert parse_problem(text) == (house_system, t_ent)
    assert parse_target(serialize_target(t_ent)) == t_ent
    assert used == [yaml.SafeLoader, yaml.SafeLoader]


#: Documents libyaml reads but the pure loader rejects.
LIBYAML_ONLY = {
    "tab-in-plain-scalar": "a: ~\t~yes",
    "literal-header-comment": "a: |#\n  x",
    "folded-header-comment": "a: >#\n  x",
    "question-mark-in-flow": "a: [b?c]",
}


@pytest.mark.parametrize("text", LIBYAML_ONLY.values(),
                         ids=LIBYAML_ONLY.keys())
def test_what_the_pure_loader_rejects_is_a_syntax_error(text):
    with pytest.raises(yaml.YAMLError) as pure:
        yaml.load(text, Loader=yaml.SafeLoader)
    with pytest.raises(ParseError) as err:
        io._load_document(text)
    assert err.value.code == "E_PARSE"
    assert err.value.message == "bad document syntax: %s" % pure.value


def test_an_empty_tagged_node_reads_as_the_pure_loader_reads_it(monkeypatch):
    used = _spy_on_loaders(monkeypatch)
    assert io._load_document("a: !") == {"a": None}
    assert used == [yaml.SafeLoader]


# -- DOT ------------------------------------------------------------------

def _real_nodes(dot):
    return [line for line in dot.splitlines()
            if "shape=ellipse" in line]


def _edges(dot):
    return [line for line in dot.splitlines()
            if "->" in line and "__start__" not in line]


def test_dot_for_a_single_behavior(b_light):
    dot = export_dot(b_light)
    assert dot.startswith('digraph "lights" {')
    assert '"__start__" [shape=point' in dot
    assert '"__start__" -> "d0" [arrowhead=none];' in dot
    assert len(_real_nodes(dot)) == 2
    assert len(_edges(dot)) == 2
    assert '"d0" -> "d1" [label="lightOn"];' in dot


def test_dot_for_the_empty_approximation(b_light):
    target = ltfs("t", ["t0", "t1"], "t0", [
        ("t0", "lightOn", "t1"), ("t1", "web", "t0")])
    result = approximate(SystemSpec.make([b_light]), target)
    assert result.is_empty
    dot = export_dot(result.approx)
    assert len(_real_nodes(dot)) == 1
    assert len(_edges(dot)) == 0


def test_dot_for_the_enacted_system_carries_indexes(house_system):
    dot = export_dot(enacted_system(house_system))
    labels = set()
    for line in _edges(dot):
        labels.add(line.split('label="')[1].split('"')[0].rsplit(",", 1)[1])
    assert labels == {"1", "2", "3", "4"}


def test_dot_for_pruning_results(house_system, t_ent):
    result = approximate(house_system, t_ent)
    bare = export_dot(result.pruned)
    assert "style=dashed" not in bare
    full = export_dot(result.pruned, show_removed=True)
    assert "style=dashed" in full
    assert len(_edges(full)) == len(result.full.transitions)
    assert len(_edges(bare)) == len(result.pruned.kept_transitions)
    assert '"a0,b0,c0,d0|t0"' in bare


# -- ISPL -----------------------------------------------------------------

def test_ispl_structure_on_the_house(house_system, t_ent):
    text = export_ispl(house_system, t_ent)
    assert check_ispl_structure(text) == []
    assert "Semantics = SA;" in text
    assert "Agent Environment" in text
    assert "Agent gamedev" in text
    assert "Agent T" in text
    assert "t0_lighton_t1" in text
    assert "act = lighton if T.Action = t0_lighton_t1;" in text
    assert "Coalition = {T, Environment};" in text
    assert "<Coalition> G (!Error);" in text
    evaluation = [ln for ln in text.splitlines() if "Error if" in ln]
    assert len(evaluation) == 1
    assert evaluation[0].count(".state = err") == 4
    assert "Environment.act = start and Environment.sch = start;" in text


def test_ispl_on_a_single_behavior(b_light):
    target = ltfs("t", ["t0", "t1"], "t0", [
        ("t0", "lightOn", "t1"), ("t1", "lightOff", "t0")])
    text = export_ispl(SystemSpec.make([b_light]), target)
    assert check_ispl_structure(text) == []
    evaluation = [ln for ln in text.splitlines() if "Error if" in ln]
    assert evaluation[0].count(".state = err") == 1
    assert "sch : {lights,start};" in text
    assert "T.state = t0_lighton_t1 and" in text


def test_ispl_name_clashes():
    target = ltfs("t", ["t0"], "t0", [("t0", "go", "t0")])

    named_t = ltfs("T", ["s"], "s", [("s", "go", "s")])
    with pytest.raises(ExportError) as err:
        export_ispl(SystemSpec.make([named_t]), target)
    assert err.value.code == "E_NAME_CLASH"

    with_start = ltfs("b", ["s"], "s", [("s", "start", "s")])
    with pytest.raises(ExportError) as err:
        export_ispl(SystemSpec.make([with_start]),
                    ltfs("t", ["t0"], "t0", [("t0", "start", "t0")]))
    assert err.value.code == "E_NAME_CLASH"

    clashing = ltfs("b", ["s"], "s", [("s", "a-b", "s"), ("s", "a_b", "s")])
    with pytest.raises(ExportError) as err:
        export_ispl(SystemSpec.make([clashing]),
                    ltfs("t", ["t0"], "t0", [("t0", "a-b", "t0")]))
    assert err.value.code == "E_NAME_CLASH"

    err_state = ltfs("b", ["err"], "err", [("err", "go", "err")])
    with pytest.raises(ExportError) as err:
        export_ispl(SystemSpec.make([err_state]), target)
    assert err.value.code == "E_NAME_CLASH"

    assert "a_b" in export_ispl(
        SystemSpec.make([ltfs("b", ["s"], "s", [("s", "a-b", "s")])]),
        ltfs("t", ["t0"], "t0", [("t0", "a-b", "t0")]))


def test_ispl_case_collision_between_actions():
    both = ltfs("b", ["s"], "s", [("s", "Go", "s"), ("s", "go", "s")])
    with pytest.raises(ExportError) as err:
        export_ispl(SystemSpec.make([both]),
                    ltfs("t", ["t0"], "t0", [("t0", "go", "t0")]))
    assert err.value.code == "E_NAME_CLASH"


# -- CLI ------------------------------------------------------------------

def test_cli_approx_output_is_the_computed_approximation(
        tmp_path, capsys, house_system, t_ent, t_ent_approx):
    code = run_cli(["approx", "--input", str(PROBLEM_PATH)])
    out = capsys.readouterr().out
    assert code == 0
    parsed = parse_target(out)
    assert parsed == compute_approx(house_system, t_ent)
    assert naive_sim_equivalent(parsed, t_ent_approx)

    destination = tmp_path / "approx.yaml"
    code = run_cli(["approx", "--input", str(PROBLEM_PATH),
                    "--output", str(destination)])
    assert code == 0
    assert parse_target(destination.read_text()) == parsed


def test_cli_check_exit_codes(tmp_path, capsys):
    code = run_cli(["check", "--input", str(PROBLEM_PATH)])
    assert code == 1
    assert capsys.readouterr().out == "exact: false\n"

    exact = tmp_path / "exact.yaml"
    exact.write_text(
        "behaviors:\n"
        "- {name: b, states: [s0, s1], initial: s0, transitions:"
        " [{from: s0, action: touch, to: s1},"
        " {from: s1, action: touch, to: s0}]}\n"
        "target: {name: t, states: [t0, t1], initial: t0, transitions:"
        " [{from: t0, action: touch, to: t1},"
        " {from: t1, action: touch, to: t0}]}\n")
    code = run_cli(["check", "--input", str(exact)])
    assert code == 0
    assert capsys.readouterr().out == "exact: true\n"

    # An approximation simulation-equivalent to the target, on a system
    # whose nondeterminism can still strand a request.
    unsound = tmp_path / "unsound.yaml"
    unsound.write_text(
        serialize_problem(*unrealizable_nondeterministic_instance()))
    code = run_cli(["check", "--input", str(unsound)])
    assert capsys.readouterr().out == "exact: false\n"
    assert code == 1


def test_cli_game_approx(tmp_path, capsys, b_audio, b_movie, b_light, t_ent):
    # The game pipeline refuses nondeterministic systems, and the smart
    # house has the forking web request, so drive it on a determinized
    # variant: gamedev with a single web edge.
    det_game = ltfs("gamedev", ["a0", "a1", "a2", "a3"], "a0", [
        ("a0", "movie", "a1"),
        ("a1", "game", "a2"),
        ("a1", "web", "a2"),
        ("a2", "stop", "a0"),
        ("a3", "unplug", "a0"),
    ])
    det_system = SystemSpec.make([det_game, b_audio, b_movie, b_light],
                                 name="house_det")
    det_path = tmp_path / "house_det.yaml"
    det_path.write_text(serialize_problem(det_system, t_ent))

    code = run_cli(["game-approx", "--input", str(det_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert naive_sim_equivalent(parse_target(out),
                                compute_approx(det_system, t_ent))

    code = run_cli(["game-approx", "--input", str(det_path),
                    "--mode", "universal"])
    assert code == 1
    assert capsys.readouterr().out == "exact: false\n"

    code = run_cli(["game-approx", "--input", str(PROBLEM_PATH)])
    captured = capsys.readouterr()
    assert code == 2
    assert "[E_NONDETERMINISTIC_SYSTEM]" in captured.err


def test_cli_run_protocol(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("t0 lightOn t1\n"
                      "t1 movie t2\n"
                      "t2 web t3\n"
                      "garbage\n"
                      "\n"
                      "t2 game t3\n")
    code = run_cli(["run", "--input", str(PROBLEM_PATH), str(script)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "honored k=4 sys=(a0,b0,c0,d1)",
        "honored k=1 sys=(a1,b0,c0,d1)",
        "rejected",
        "rejected",
        "honored k=1 sys=(a2,b0,c0,d1)",
    ]


def test_cli_run_max_steps_and_adversarial(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("t0 lightOn t1\nt1 movie t2\nt2 game t3\n")
    code = run_cli(["run", "--input", str(PROBLEM_PATH), str(script),
                    "--max-steps", "2", "--resolver", "adversarial"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 2


def test_cli_export_formats(capsys, house_system, t_ent):
    code = run_cli(["export", "--input", str(PROBLEM_PATH), "--format", "dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph")
    assert "style=dashed" in out

    code = run_cli(["export", "--input", str(PROBLEM_PATH), "--format", "ispl"])
    out = capsys.readouterr().out
    assert code == 0
    assert check_ispl_structure(out) == []

    code = run_cli(["export", "--input", str(PROBLEM_PATH),
                    "--format", "problem"])
    out = capsys.readouterr().out
    assert code == 0
    system, target = parse_problem(out)
    assert system == house_system
    assert target == t_ent


def test_cli_error_reporting(tmp_path, capsys):
    code = run_cli(["approx", "--input", str(tmp_path / "missing.yaml")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err

    broken = tmp_path / "broken.yaml"
    broken.write_text("behaviors: [nope\n")
    code = run_cli(["approx", "--input", str(broken)])
    captured = capsys.readouterr()
    assert code == 2
    assert "[E_PARSE]" in captured.err


def test_cli_byte_determinism(tmp_path):
    def invoke(arguments, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "behapprox.io"] + arguments,
            capture_output=True, input=stdin)

    first = invoke(["approx", "--input", str(PROBLEM_PATH)])
    second = invoke(["approx", "--input", str(PROBLEM_PATH)])
    assert first.returncode == 0
    assert first.stdout == second.stdout

    first = invoke(["export", "--input", str(PROBLEM_PATH), "--format", "ispl"])
    second = invoke(["export", "--input", str(PROBLEM_PATH), "--format", "ispl"])
    assert first.stdout == second.stdout

    script = b"t0 lightOn t1\nt1 music t2\nt2 radio t3\n"
    first = invoke(["run", "--input", str(PROBLEM_PATH), "--interactive"],
                   stdin=script)
    second = invoke(["run", "--input", str(PROBLEM_PATH), "--interactive"],
                    stdin=script)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert b"honored k=2" in first.stdout


def test_cli_approx_is_byte_identical_across_hash_seeds(tmp_path):
    # Random nondeterministic problems whose quotient merges many states,
    # so that the bisimulation's final renumbering decides the output.
    outputs = {}
    for instance_seed in (9, 10):
        rng = random.Random(instance_seed)
        system = random_system(rng, 4, 5)
        target = random_target(rng, 5)
        result = approximate(system, target)
        assert 1 < result.partition.size < len(result.projection.states)
        problem = tmp_path / ("problem%d.yaml" % instance_seed)
        problem.write_text(serialize_problem(system, target))
        for hash_seed in ("1", "2"):
            output = tmp_path / ("out%d_%s.yaml" % (instance_seed, hash_seed))
            run = subprocess.run(
                [sys.executable, "-m", "behapprox.io", "approx",
                 "--input", str(problem), "--output", str(output)],
                capture_output=True,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed))
            assert run.returncode == 0, run.stderr
            outputs.setdefault(instance_seed, set()).add(output.read_bytes())
        assert outputs[instance_seed] == {
            serialize_target(result.approx).encode()}


def test_cli_commands_are_byte_identical_across_hash_seeds(tmp_path):
    # Every command but approx (checked above), on the same two random
    # nondeterministic problems and on a deterministic one that the game
    # accepts; each hash seed runs all commands in one process. ``run``
    # sends a fixed walk of the target under both resolvers.
    rng = random.Random(12)
    deterministic = (random_system(rng, 3, 4, deterministic=True),
                     random_target(rng, 4))
    problems = {}
    for instance_seed in (9, 10):
        rng = random.Random(instance_seed)
        problems[instance_seed] = (random_system(rng, 4, 5),
                                   random_target(rng, 5))
    problems["det"] = deterministic
    commands = [["check"], ["game-approx"],
                ["game-approx", "--mode", "universal"],
                ["export", "--format", "dot"], ["export", "--format", "ispl"],
                ["export", "--format", "problem"]]
    script = ("import contextlib, io, json, sys\n"
              "from behapprox.io import run_cli\n"
              "results = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), "
              "contextlib.redirect_stderr(err):\n"
              "        code = run_cli(argv)\n"
              "    results.append([code, out.getvalue(), err.getvalue()])\n"
              "print(json.dumps(results))\n")
    for key, (system, target) in problems.items():
        problem = tmp_path / ("problem_%s.yaml" % key)
        problem.write_text(serialize_problem(system, target))
        walk = tmp_path / ("walk_%s.txt" % key)
        state, lines = target.initial, []
        for step in range(12):
            moves = target.transitions_from(state)
            request = moves[step % len(moves)]
            lines.append(" ".join(request))
            state = request[2]
        walk.write_text("\n".join(lines) + "\n")
        argvs = [argv + ["--input", str(problem)] for argv in commands] + [
            ["run", str(walk), "--input", str(problem), "--resolver",
             resolver, "--seed", "5"] for resolver in ("adversarial", "random")]
        outputs = set()
        for hash_seed in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-c", script, json.dumps(argvs)],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed))
            assert run.returncode == 0, run.stderr
            outputs.add(run.stdout)
        assert len(outputs) == 1
        (results,) = [json.loads(text) for text in outputs]
        codes = [code for code, _, _ in results]
        if key == "det":
            assert codes[1] == 0 and results[1][1].startswith("target:")
        else:
            assert codes[1] == codes[2] == 2  # the game refuses them
        assert codes[3:] == [0, 0, 0, 0, 0]
        assert all(out.startswith("honored") for _, out, _ in results[6:])
