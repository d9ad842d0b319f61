"""Problem documents, graph and model-checker exporters, and the CLI.

The problem format is YAML: a mapping with a non-empty ``behaviors`` list,
one ``target`` record, and an optional ``options.terminal`` policy
("reject" or "loop").  Each behavior record carries ``name``, ``states``,
``initial``, and ``transitions`` as {from, action, to} mappings.  The
canonical fixture lives at problems/smarthouse.yaml.

Documents are written by a fixed-shape writer whose bytes equal PyYAML's
``safe_dump(document, sort_keys=False)``; a document with a name that
PyYAML would quote goes to ``safe_dump`` whole.  Documents are read with
libyaml when PyYAML has it; a document it rejects is parsed again by the
pure loader, so every ``[E_PARSE]`` syntax message is the pure loader's.
"""

import argparse
import re
import sys
from dataclasses import dataclass

import yaml

from .approx import PrunedFull, approximate, check_exact, compute_approx
from .engine import AdversarialResolver, RandomResolver, Session
from .errors import (
    E_NAME_CLASH,
    CompositionError,
    ExportError,
    ParseError,
    ValidationError,
)
from .game import build_game, game_approx, solve_safety
from .model import IDLE_ACTION, Ltfs, RawBehavior, SystemSpec, validate_behavior
from .product import EnactedSystem, FullEnactedSystem


@dataclass(frozen=True)
class ProblemFile:
    """A parsed but not yet validated problem document."""

    behaviors: tuple
    target: RawBehavior
    options: dict
    name: str = "system"


# ---------------------------------------------------------------------------
# parsing


def _require_mapping(node, location):
    if not isinstance(node, dict):
        raise ParseError("expected a mapping", location)
    return node


def _require_string(node, location):
    if not isinstance(node, str) or not node:
        raise ParseError("expected a non-empty string", location)
    return node


def _require_list(node, location):
    if not isinstance(node, list):
        raise ParseError("expected a list", location)
    return node


def _get(mapping, key, location):
    if key not in mapping:
        raise ParseError("missing required field %r" % key, location)
    return mapping[key]


def _reject_unknown(mapping, known, location):
    """Name the first unknown key: strings in sorted order, then the rest.

    Keys that are not strings (``~``, ``1``) cannot be compared with
    strings, so they sort after them, by type name and ``repr``.
    """
    unknown = set(mapping) - known
    if unknown:
        first = min(unknown, key=lambda k: (0, k) if isinstance(k, str)
                    else (1, type(k).__name__, repr(k)))
        raise ParseError("unknown field %r" % (first,), location)


def _raw_behavior(node, location):
    record = _require_mapping(node, location)
    _reject_unknown(record, {"name", "states", "initial", "transitions"},
                    location)
    name = _require_string(_get(record, "name", location), location + ".name")
    states = _require_list(_get(record, "states", location), location + ".states")
    for position, state in enumerate(states):
        _require_string(state, "%s.states[%d]" % (location, position))
    initial = _require_string(
        _get(record, "initial", location), location + ".initial")
    transitions = []
    raw_transitions = _require_list(
        _get(record, "transitions", location), location + ".transitions")
    for position, entry in enumerate(raw_transitions):
        where = "%s.transitions[%d]" % (location, position)
        entry = _require_mapping(entry, where)
        transitions.append((
            _require_string(_get(entry, "from", where), where + ".from"),
            _require_string(_get(entry, "action", where), where + ".action"),
            _require_string(_get(entry, "to", where), where + ".to"),
        ))
    return RawBehavior.make(name, states, initial, transitions)


#: libyaml's loader when PyYAML was built with it, else the pure one.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

#: Forms that libyaml reads where the pure loader rejects them or reads
#: them otherwise: a tab, a ``!`` tag, a byte order mark, a ``?`` (which
#: ends a plain scalar in a flow collection only for the pure loader), and
#: a block scalar header followed directly by ``#``. Text holding one goes
#: to the pure loader alone; the fixed-shape writer never produces them.
_PURE_ONLY = re.compile(r"[\t!?\ufeff]|[|>][-+0-9]*#")


def _pure_only(text):
    """Whether ``_PURE_ONLY`` matches. Scanning for each character it needs
    is many times faster than the regex, and rules out most texts."""
    return (any(c in text for c in "\t!?\ufeff#")
            and _PURE_ONLY.search(text) is not None)


def _load_document(text):
    """Load YAML text; a syntax error reads as the pure loader words it.

    libyaml words its errors differently, so on any error the text is
    parsed again by the pure loader, whose message ``[E_PARSE]`` carries.
    libyaml takes text as UTF-8, so a lone surrogate, which the pure
    loader reports as an unacceptable character, fails it at encoding.
    Text with a form libyaml reads differently (``_PURE_ONLY``) skips it.
    """
    if _LOADER is not yaml.SafeLoader and not _pure_only(text):
        try:
            return yaml.load(text, Loader=_LOADER)
        except (yaml.YAMLError, UnicodeEncodeError):
            pass
    try:
        return yaml.load(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as err:
        raise ParseError("bad document syntax: %s" % err)


def parse_problem_file(text):
    """Parse a problem document into raw records, without model validation."""
    document = _require_mapping(_load_document(text), "document")
    _reject_unknown(document, {"name", "options", "behaviors", "target"},
                    "document")

    name = "system"
    if "name" in document:
        name = _require_string(document["name"], "name")
    options = {}
    if "options" in document:
        options = dict(_require_mapping(document["options"], "options"))
        policy = options.get("terminal")
        if set(options) - {"terminal"} or policy not in ("reject", "loop"):
            raise ParseError(
                "options accepts only terminal: reject|loop", "options")

    behavior_nodes = _require_list(
        _get(document, "behaviors", "document"), "behaviors")
    if not behavior_nodes:
        raise ParseError("behaviors must be a non-empty list", "behaviors")
    behaviors = tuple(
        _raw_behavior(node, "behaviors[%d]" % position)
        for position, node in enumerate(behavior_nodes))
    seen = {}
    for position, raw in enumerate(behaviors):
        if raw.name in seen:
            raise ParseError(
                "duplicate behavior name %r (behaviors[%d] and behaviors[%d])"
                % (raw.name, seen[raw.name], position))
        seen[raw.name] = position

    target = _raw_behavior(_get(document, "target", "document"), "target")
    return ProblemFile(behaviors, target, options, name)


def _validate_with_context(raw, policy, location):
    try:
        return validate_behavior(raw, policy)
    except ValidationError as err:
        raise ValidationError(
            err.code, "%s (%s): %s" % (location, raw.name, err.message))


def parse_problem(text, policy=None):
    """Parse and validate a problem document into (SystemSpec, target Ltfs).

    The terminal-state policy is taken from the explicit argument first,
    then the document's options, then "reject".
    """
    problem = parse_problem_file(text)
    effective = policy or problem.options.get("terminal", "reject")
    behaviors = tuple(
        _validate_with_context(raw, effective, "behaviors[%d]" % position)
        for position, raw in enumerate(problem.behaviors))
    target = _validate_with_context(problem.target, effective, "target")
    return SystemSpec.make(behaviors, problem.name), target


def parse_target(text, policy=None):
    """Parse a target-only document (a mapping with one ``target`` record).

    A single-state, zero-transition record is accepted verbatim: it is the
    empty approximation, which is deliberately unreachable through normal
    validation.
    """
    document = _require_mapping(_load_document(text), "document")
    raw = _raw_behavior(_get(document, "target", "document"), "target")
    if not raw.transitions and len(raw.states) == 1:
        if raw.initial != raw.states[0]:
            raise ParseError("initial state is not declared", "target")
        return Ltfs(raw.name, raw.states, raw.initial, ())
    effective = policy or "reject"
    return _validate_with_context(raw, effective, "target")


# ---------------------------------------------------------------------------
# serialization
#
# Documents are written line by line in PyYAML's block layout.  That is
# only sound for scalars PyYAML itself writes plain, so any other scalar
# sends its whole document through ``yaml.safe_dump``: per-scalar quoting
# cannot reproduce how long quoted names fold at the line width.

#: Scalars PyYAML writes plain in block context whenever its resolver reads
#: them as strings: no spaces, quotes, ``:``, ``#``, non-ASCII text or
#: leading indicator.  Covers the escaped product labels.
_PLAIN = re.compile(r"[A-Za-z_][A-Za-z0-9_.,|\\-]*\Z")
_RESOLVER = yaml.resolver.Resolver()


class _NotPlain(Exception):
    """A scalar that PyYAML would quote, so its document must be dumped."""


class _PlainScalars(dict):
    """Each distinct scalar checked once; a plain scalar maps to itself.

    The check is the one PyYAML's dumper makes: a scalar that the resolver
    types as anything but a string (``yes``, ``on``, ``null``, ``~``) gets
    quoted, because ``yaml.safe_load`` would not read it back unchanged.
    """

    def __missing__(self, value):
        if not (type(value) is str and _PLAIN.match(value)
                and _RESOLVER.resolve(yaml.ScalarNode, value, (True, False))
                == _RESOLVER.DEFAULT_SCALAR_TAG):
            raise _NotPlain(value)
        self[value] = value
        return value


def _list_lines(key, items, lines):
    if items:
        lines.append(key + ":")
        lines.extend(items)
    else:
        lines.append(key + ": []")


def _behavior_lines(behavior, plain, lines, lead):
    """Append one behavior record; ``lead`` starts its first line ("- " as
    a list item, two spaces as the value of ``target``)."""
    lines.append("%sname: %s" % (lead, plain[behavior.name]))
    _list_lines("  states", ["  - " + plain[s] for s in behavior.states],
                lines)
    lines.append("  initial: " + plain[behavior.initial])
    _list_lines("  transitions", [
        "  - from: %s\n    action: %s\n    to: %s"
        % (plain[src], plain[action], plain[dst])
        for (src, action, dst) in behavior.transitions
        if action != IDLE_ACTION], lines)


def _behavior_record(behavior):
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


def _problem_lines(system, target, options):
    plain = _PlainScalars()
    lines = []
    if system.name != "system":
        lines.append("name: " + plain[system.name])
    if options:
        lines.append("options:")
        for key, value in options.items():
            if type(value) is not str:  # a list or mapping is no scalar
                raise _NotPlain(value)
            lines.append("  %s: %s" % (plain[key], plain[value]))
    members = []
    for behavior in system.behaviors:
        _behavior_lines(behavior, plain, members, "- ")
    _list_lines("behaviors", members, lines)
    lines.append("target:")
    _behavior_lines(target, plain, lines, "  ")
    return lines


def serialize_problem(system, target, options=None):
    """Render a system and target back into the problem format.

    Pass options={"terminal": "loop"} when the models were validated with
    the loop policy, so that the synthesized idle loops (which are never
    written out) are recreated on the next parse.
    """
    try:
        lines = _problem_lines(system, target, options)
    except _NotPlain:
        document = {}
        if system.name != "system":
            document["name"] = system.name
        if options:
            document["options"] = dict(options)
        document["behaviors"] = [_behavior_record(b) for b in system.behaviors]
        document["target"] = _behavior_record(target)
        return yaml.safe_dump(document, sort_keys=False)
    return "\n".join(lines) + "\n"


def serialize_target(target):
    lines = ["target:"]
    try:
        _behavior_lines(target, _PlainScalars(), lines, "  ")
    except _NotPlain:
        return yaml.safe_dump({"target": _behavior_record(target)},
                              sort_keys=False)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _quote(text):
    return '"%s"' % text.replace('"', '\\"')


def _dot_document(name, initial_label, nodes, edges):
    lines = ["digraph %s {" % _quote(name), "    rankdir=LR;"]
    lines.append('    "__start__" [shape=point, label=""];')
    lines.append('    "__start__" -> %s [arrowhead=none];' % _quote(initial_label))
    for label, dashed in nodes:
        style = ", style=dashed" if dashed else ""
        lines.append("    %s [shape=ellipse%s];" % (_quote(label), style))
    for src, label, dst, dashed in edges:
        style = ", style=dashed" if dashed else ""
        lines.append("    %s -> %s [label=%s%s];"
                     % (_quote(src), _quote(dst), _quote(label), style))
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(model, show_removed=False):
    """Render a behavior, product, or pruning result as a DOT digraph.

    The initial state is marked by an arrowless edge from a point pseudo-
    node.  Indexed transitions are labelled "action,k".  For pruning
    results, removed states and transitions are drawn dashed when
    show_removed is set, and omitted otherwise.
    """
    if isinstance(model, Ltfs):
        nodes = [(state, False) for state in model.states]
        edges = [(src, action, dst, False)
                 for (src, action, dst) in model.transitions]
        return _dot_document(model.name, model.initial, nodes, edges)
    if isinstance(model, PrunedFull):
        base = model.base
        name = "%s|%s pruned" % (base.system.name, base.target.name)
        kept_states, kept_transitions = (model.kept_state_set,
                                         model.kept_transition_set)
    elif isinstance(model, (EnactedSystem, FullEnactedSystem)):
        base, kept_states, kept_transitions = model, None, None
        name = model.system.name
        if isinstance(model, FullEnactedSystem):
            name = "%s|%s" % (model.system.name, model.target.name)
    else:
        raise TypeError("cannot render %r as DOT" % type(model).__name__)
    labels = [base.state_label(i) for i in range(len(base.states))]
    nodes = []
    for i, label in enumerate(labels):
        removed = kept_states is not None and i not in kept_states
        if show_removed or not removed:
            nodes.append((label, removed))
    edges = []
    for transition in base.transitions:
        removed = (kept_transitions is not None
                   and transition not in kept_transitions)
        if show_removed or not removed:
            (src, action, k, dst) = transition
            edges.append((labels[src], "%s,%d" % (action, k), labels[dst],
                          removed))
    return _dot_document(name, labels[base.initial], nodes, edges)


# ---------------------------------------------------------------------------
# ISPL export


_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


def _mangle(name):
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def _claim(identifier, owner, space):
    if not _IDENTIFIER.match(identifier):
        raise ExportError(
            E_NAME_CLASH,
            "%s mangles to %r, which is not a legal identifier"
            % (owner, identifier))
    if identifier in space:
        raise ExportError(
            E_NAME_CLASH, "%s mangles to %r, already used by %s"
            % (owner, identifier, space[identifier]))
    space[identifier] = owner


def _enum(values):
    return "{%s}" % ",".join(values)


def export_ispl(system, target):
    """Render the composition problem as an ISPL document.

    The encoding follows a fixed template: single-assignment semantics, an
    Environment agent whose observables carry the requested action and the
    scheduled behavior, one agent per behavior that falls into an ``err``
    state when scheduled while unable of the action, a target agent whose
    states are the target's transitions (actions lowercased inside the
    triple), an Error evaluation, and a coalition of target plus
    Environment checking G (!Error).
    """
    agent_space = {"Environment": "the environment agent",
                   "T": "the target agent"}
    agents = []
    for behavior in system.behaviors:
        identifier = _mangle(behavior.name)
        _claim(identifier, "behavior %r" % behavior.name, agent_space)
        agents.append(identifier)

    action_space = {"start": "the scheduler start token"}
    action_of = {}
    ordered_actions = list(system.alphabet)
    for action in target.actions:
        if action not in ordered_actions:
            ordered_actions.append(action)
    for action in ordered_actions:
        identifier = _mangle(action).lower()
        _claim(identifier, "action %r" % action, action_space)
        action_of[action] = identifier

    state_of = {}
    for behavior in system.behaviors:
        local_space = {"err": "the error state"}
        for state in behavior.states:
            identifier = _mangle(state)
            _claim(identifier,
                   "state %r of behavior %r" % (state, behavior.name),
                   local_space)
            state_of[(behavior.name, state)] = identifier

    triple_space = {}
    triple_of = {}
    for (src, action, dst) in target.transitions:
        identifier = "%s_%s_%s" % (_mangle(src), action_of[action], _mangle(dst))
        _claim(identifier, "target transition %r" % ((src, action, dst),),
               triple_space)
        triple_of[(src, action, dst)] = identifier

    out = []
    out.append("Semantics = SA;")
    out.append("")
    out.append("Agent Environment")
    out.append("    Obsvars:")
    out.append("        sch : %s;" % _enum(agents + ["start"]))
    out.append("        act : %s;"
               % _enum([action_of[a] for a in ordered_actions] + ["start"]))
    out.append("    end Obsvars")
    out.append("    Actions = %s;" % _enum(agents + ["start"]))
    out.append("    Protocol:")
    out.append("        act = start: {start};")
    out.append("        Other: %s;" % _enum(agents))
    out.append("    end Protocol")
    out.append("    Evolution:")
    for agent in agents:
        out.append("        sch = %s if Action = %s;" % (agent, agent))
    for transition in target.transitions:
        out.append("        act = %s if T.Action = %s;"
                   % (action_of[transition[1]], triple_of[transition]))
    out.append("    end Evolution")
    out.append("end Agent")

    for behavior, agent in zip(system.behaviors, agents):
        states = [state_of[(behavior.name, s)] for s in behavior.states]
        moves = ["go_%s" % s for s in states]
        out.append("")
        out.append("Agent %s" % agent)
        out.append("    Vars:")
        out.append("        state: %s;" % _enum(states + ["err"]))
        out.append("    end Vars")
        out.append("    Actions = %s;" % _enum(moves + ["skip"]))
        out.append("    Protocol:")
        menus = {}
        order = []
        for (src, action, dst) in behavior.transitions:
            key = (src, action)
            if key not in menus:
                menus[key] = []
                order.append(key)
            menus[key].append("go_%s" % state_of[(behavior.name, dst)])
        for (src, action) in order:
            out.append("        state = %s and Environment.act = %s : %s;"
                       % (state_of[(behavior.name, src)], action_of[action],
                          _enum(menus[(src, action)])))
        out.append("        Other : {skip};")
        out.append("    end Protocol")
        out.append("    Evolution:")
        out.append("        state = err if Action = skip "
                   "and Environment.Action=%s;" % agent)
        for state in states:
            out.append("        state = %s if Action = go_%s "
                       "and Environment.Action=%s;" % (state, state, agent))
        out.append("    end Evolution")
        out.append("end Agent")

    openers = [triple_of[t] for t in target.transitions_from(target.initial)]
    out.append("")
    out.append("Agent T")
    out.append("    Vars:")
    out.append("        state: %s;"
               % _enum([triple_of[t] for t in target.transitions]))
    out.append("    end Vars")
    out.append("    Actions = %s;"
               % _enum([triple_of[t] for t in target.transitions]))
    out.append("    Protocol:")
    out.append("        Environment.act = start : %s;" % _enum(openers))
    for transition in target.transitions:
        following = [triple_of[t]
                     for t in target.transitions_from(transition[2])]
        out.append("        state = %s and Environment.act = %s : %s;"
                   % (triple_of[transition], action_of[transition[1]],
                      _enum(following)))
    out.append("    end Protocol")
    out.append("    Evolution:")
    for transition in target.transitions:
        out.append("        state = %s if Action = %s;"
                   % (triple_of[transition], triple_of[transition]))
    out.append("    end Evolution")
    out.append("end Agent")

    out.append("")
    out.append("Evaluation")
    out.append("    Error if %s;"
               % " or ".join("%s.state = err" % agent for agent in agents))
    out.append("end Evaluation")

    out.append("")
    out.append("InitStates")
    clauses = ["%s.state = %s" % (agent, state_of[(behavior.name, behavior.initial)])
               for behavior, agent in zip(system.behaviors, agents)]
    if len(openers) == 1:
        clauses.append("T.state = %s" % openers[0])
    else:
        clauses.append("(%s)" % " or ".join("T.state = %s" % o for o in openers))
    clauses.append("Environment.act = start")
    clauses.append("Environment.sch = start")
    out.append("    %s;" % " and ".join(clauses))
    out.append("end InitStates")

    out.append("")
    out.append("Groups")
    out.append("    Coalition = {T, Environment};")
    out.append("end Groups")

    out.append("")
    out.append("Formulae")
    out.append("    <Coalition> G (!Error);")
    out.append("end Formulae")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# CLI


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="behapprox",
        description="Approximate composition of a target behavior from "
                    "available behaviors.")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--input", required=True, metavar="FILE",
                         help="problem document")
        sub.add_argument("--fix-terminal", choices=("reject", "loop"),
                         default=None,
                         help="override the document's terminal-state policy")

    sub = commands.add_parser(
        "approx", help="compute the optimal approximation of the target")
    add_common(sub)
    sub.add_argument("--output", metavar="FILE")

    sub = commands.add_parser(
        "check", help="report whether the target is exactly realizable")
    add_common(sub)

    sub = commands.add_parser(
        "game-approx",
        help="safety-game pipeline (deterministic systems only)")
    add_common(sub)
    sub.add_argument("--output", metavar="FILE")
    sub.add_argument("--mode", choices=("existential", "universal"),
                     default="existential")

    sub = commands.add_parser(
        "run", help="execute controller requests against the system")
    add_common(sub)
    sub.add_argument("script", nargs="?", metavar="SCRIPT",
                     help="request list, one 'from action to' per line "
                          "(default: standard input)")
    sub.add_argument("--interactive", action="store_true",
                     help="read requests from standard input")
    sub.add_argument("--resolver", choices=("random", "adversarial"),
                     default="random")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-steps", type=int, default=None)

    sub = commands.add_parser("export", help="emit dot, ispl, or problem text")
    add_common(sub)
    sub.add_argument("--format", choices=("dot", "ispl", "problem"),
                     required=True)
    sub.add_argument("--output", metavar="FILE")
    return parser


def _emit(text, output):
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    with open(args.input) as handle:
        text = handle.read()
    return parse_problem(text, args.fix_terminal)


def _command_run(args, system, target):
    if args.script and args.interactive:
        raise ParseError("--interactive cannot be combined with a script file")
    if args.resolver == "adversarial":
        resolver = AdversarialResolver()
    else:
        resolver = RandomResolver(args.seed)
    session = Session.from_approx(
        approximate(system, target), resolver, requests="target")
    if args.script:
        with open(args.script) as handle:
            lines = handle.readlines()
    else:
        lines = sys.stdin
    steps = 0
    for line in lines:
        if args.max_steps is not None and steps >= args.max_steps:
            break
        parts = line.split()
        if not parts:
            continue
        steps += 1
        if len(parts) != 3:
            print("rejected")
            continue
        try:
            record = session.step(tuple(parts))
        except CompositionError:
            print("rejected")
            continue
        print("honored k=%d sys=(%s)"
              % (record.delegated, ",".join(record.sys_after)))
    session.close()
    return 0


def run_cli(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        system, target = _load(args)
        if args.command == "approx":
            _emit(serialize_target(compute_approx(system, target)), args.output)
            return 0
        if args.command == "check":
            exact = check_exact(system, target)
            print("exact: %s" % ("true" if exact else "false"))
            return 0 if exact else 1
        if args.command == "game-approx":
            if args.mode == "universal":
                winning = solve_safety(build_game(system, target), "universal")
                exact = winning.all_initials_winning
                print("exact: %s" % ("true" if exact else "false"))
                return 0 if exact else 1
            _emit(serialize_target(game_approx(system, target)), args.output)
            return 0
        if args.command == "run":
            return _command_run(args, system, target)
        if args.command == "export":
            if args.format == "dot":
                result = approximate(system, target)
                text = export_dot(result.pruned, show_removed=True)
            elif args.format == "ispl":
                text = export_ispl(system, target)
            else:
                text = serialize_problem(system, target)
            _emit(text, args.output)
            return 0
        raise AssertionError("unhandled command %r" % args.command)
    except CompositionError as err:
        print(str(err), file=sys.stderr)
        return 2
    except OSError as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run_cli())
