"""Controller sessions, bounded trace sets, and the imported-controller engine."""

import itertools
import math
import random

import pytest

from behapprox.approx import approximate, check_exact
from behapprox.engine import (
    AdversarialResolver,
    ControllerTable,
    RandomResolver,
    Session,
    action_controller,
    constant_controller,
    dominates,
    realized_traces_bounded,
)
from behapprox.errors import SessionError
from behapprox.model import SystemSpec

from conftest import ltfs
from helpers import (
    imported_trace_realizable,
    positional_trace_realizable,
    random_system,
    random_target,
    target_request_sequences,
)

L = ("t0", "lightOn", "t1")
M = ("t1", "movie", "t2")
R = ("t2", "radio", "t3")
S = ("t3", "stop", "t4")
O = ("t4", "lightOff", "t0")


@pytest.fixture
def golden(house_system, t_ent):
    return approximate(house_system, t_ent)


def test_all_to_lights_realizes_only_the_opening(house_system, t_ent):
    table = constant_controller(house_system, t_ent, 4)
    traces = realized_traces_bounded(table, house_system, t_ent, 5)
    assert traces.traces == {(), (L,)}


def test_by_action_table_realizes_the_radio_chain(house_system, t_ent):
    table = action_controller(
        house_system, t_ent,
        {"lightOn": 4, "lightOff": 4, "movie": 3, "radio": 3, "stop": 3},
    )
    traces = realized_traces_bounded(table, house_system, t_ent, 5)
    assert traces.traces == {
        (),
        (L,),
        (L, M),
        (L, M, R),
        (L, M, R, S),
        (L, M, R, S, O),
    }
    assert traces.action_sequences() == {
        (), ("lightOn",), ("lightOn", "movie"), ("lightOn", "movie", "radio"),
        ("lightOn", "movie", "radio", "stop"),
        ("lightOn", "movie", "radio", "stop", "lightOff"),
    }


def test_domination_on_the_smart_house(house_system, t_ent):
    lights_only = constant_controller(house_system, t_ent, 4)
    by_action = action_controller(
        house_system, t_ent,
        {"lightOn": 4, "lightOff": 4, "movie": 3, "radio": 3, "stop": 3},
    )
    assert dominates(by_action, lights_only, house_system, t_ent, 5) == (True, True)
    assert dominates(lights_only, by_action, house_system, t_ent, 5) == (False, False)
    assert dominates(by_action, by_action, house_system, t_ent, 5) == (True, False)


def test_domination_incomparable_tables():
    b_left = ltfs("left", ["x0"], "x0", [("x0", "alpha", "x0")])
    b_right = ltfs("right", ["y0"], "y0", [("y0", "beta", "y0")])
    system = SystemSpec((b_left, b_right))
    target = ltfs("t", ["t0"], "t0",
                  [("t0", "alpha", "t0"), ("t0", "beta", "t0")])
    only_alpha = action_controller(system, target, {"alpha": 1})
    only_beta = action_controller(system, target, {"beta": 2})
    assert dominates(only_alpha, only_beta, system, target, 2) == (False, False)
    assert dominates(only_beta, only_alpha, system, target, 2) == (False, False)


def test_depth_zero_and_validation(house_system, t_ent):
    table = constant_controller(house_system, t_ent, 4)
    assert realized_traces_bounded(table, house_system, t_ent, 0).traces == {()}
    with pytest.raises(ValueError):
        realized_traces_bounded(table, house_system, t_ent, -1)
    with pytest.raises(ValueError):
        constant_controller(house_system, t_ent, 5)
    with pytest.raises(ValueError):
        action_controller(house_system, t_ent, {"movie": 0})


def test_rule_tables_answer_like_their_materialized_tables(house_system, t_ent):
    rng = random.Random(23)
    cases = [(house_system, t_ent)]
    for _ in range(15):
        cases.append((random_system(rng, rng.randint(1, 3), rng.randint(1, 3)),
                      random_target(rng, rng.randint(1, 3))))
    for system, target in cases:
        declared = list(itertools.product(*(b.states for b in system.behaviors)))
        k = rng.randint(1, system.size)
        mapping = {a: rng.randint(1, system.size)
                   for a in target.actions if rng.random() < 0.7}
        for table, rule in ((constant_controller(system, target, k),
                             dict.fromkeys(target.actions, k)),
                            (action_controller(system, target, mapping),
                             mapping)):
            matching = [tr for tr in target.transitions if tr[1] in rule]
            reference = ControllerTable({
                (states, tr): rule[tr[1]]
                for states in declared for tr in matching})
            assert list(table.entries.items()) == list(reference.entries.items())
            assert len(table) == len(reference) == math.prod(
                len(b.states) for b in system.behaviors) * len(matching)
            for states in declared:
                for tr in target.transitions:
                    assert table.lookup(states, tr) == reference.lookup(states, tr)
                    assert table.defined_at(states, tr) == (tr in matching)
            request = target.transitions[0]
            assert table.lookup(("undeclared",) * system.size, request) is None
            assert table.lookup(declared[0][1:], request) is None
            assert table.lookup(declared[0], ("t0", "foreign", "t0")) is None


def test_imported_session_first_steps_on_the_house(golden):
    session = Session.from_approx(golden, RandomResolver(7), requests="target")
    first = session.step(L)
    assert first.honored and first.delegated == 4
    assert first.sys_before == ("a0", "b0", "c0", "d0")
    assert first.sys_after == ("a0", "b0", "c0", "d1")
    assert session.candidate_labels() == ("a0,b0,c0,d1|t1",)

    second = session.step(M)
    assert second.honored and second.delegated == 1
    assert second.sys_after == ("a1", "b0", "c0", "d1")
    assert session.candidate_labels() == ("a1,b0,c0,d1|t2",)

    before = (session.sys_states, session.cursor, session.candidates)
    with pytest.raises(SessionError) as err:
        session.step(("t2", "web", "t3"))
    assert err.value.code == "E_REQUEST_REJECTED"
    assert (session.sys_states, session.cursor, session.candidates) == before
    log = session.log
    assert len(log) == 3 and log.honored_count == 2
    assert log.steps[-1].honored is False
    assert log.steps[-1].delegated is None


def test_empty_table_rejects_everything(house_system, t_ent):
    session = Session.from_table(house_system, t_ent, ControllerTable({}))
    with pytest.raises(SessionError) as err:
        session.step(L)
    assert err.value.code == "E_REQUEST_REJECTED"
    assert session.sys_states == house_system.initial_tuple
    assert session.log.honored_count == 0


def test_closed_session_refuses_steps(house_system, t_ent):
    session = Session.from_table(
        house_system, t_ent, constant_controller(house_system, t_ent, 4))
    session.step(L)
    session.close()
    with pytest.raises(SessionError) as err:
        session.step(("t1", "movie", "t2"))
    assert err.value.code == "E_SESSION_CLOSED"


def test_table_rejection_reasons_and_state_preservation(house_system, t_ent):
    session = Session.from_table(
        house_system, t_ent, constant_controller(house_system, t_ent, 4))
    session.step(L)
    with pytest.raises(SessionError):
        session.step(M)  # lights cannot play a movie
    with pytest.raises(SessionError):
        session.step(("t1", "music", "t2"))
    with pytest.raises(SessionError):
        session.step(("t0", "lightOn", "t1"))  # wrong source state now
    with pytest.raises(SessionError):
        session.step(("t1", "juggle", "t9"))  # not a target transition
    assert session.cursor == "t1"
    assert session.sys_states == ("a0", "b0", "c0", "d1")
    assert session.log.honored_count == 1


def _approx_walk(rng, approx, length):
    adjacency = {}
    for tr in approx.transitions:
        adjacency.setdefault(tr[0], []).append(tr)
    walk = []
    state = approx.initial
    for _ in range(length):
        options = adjacency[state]
        choice = options[rng.randrange(len(options))]
        walk.append(choice)
        state = choice[2]
    return walk


def _check_honored_record(record, system):
    assert record.honored
    k = record.delegated
    for position, (before, after) in enumerate(
            zip(record.sys_before, record.sys_after), start=1):
        if position != k:
            assert before == after
    moved = (record.sys_before[k - 1], record.request[1], record.sys_after[k - 1])
    assert moved in set(
        (s, a, d) for (s, a, d) in system.behavior(k).transitions)


def test_approx_walks_on_the_house_are_always_honored(golden, house_system):
    rng = random.Random(42)
    for trial in range(150):
        if trial % 2 == 0:
            resolver = RandomResolver(seed=trial)
        else:
            resolver = AdversarialResolver()
        session = Session.from_approx(golden, resolver, requests="approx")
        for request in _approx_walk(rng, golden.approx, 40):
            record = session.step(request)
            _check_honored_record(record, house_system)
            assert record.candidates_after
        assert session.log.honored_count == 40


def _target_walk(session, rng, target, length):
    trail = []
    for _ in range(length):
        request = rng.choice(target.transitions_from(session.cursor))
        try:
            record = session.step(request)
        except SessionError:
            trail.append(None)
            break
        trail.append((record.delegated, record.sys_after, session.candidates))
    return trail


def test_sessions_share_one_kept_adjacency_and_walk_alike():
    rng = random.Random(77)
    walked = 0
    for trial in range(20):
        system = random_system(
            rng, n_behaviors=rng.randint(2, 3), n_states=rng.randint(2, 4),
            actions=("alpha", "beta", "gamma"), deterministic=False)
        target = random_target(rng, rng.randint(2, 4), ("alpha", "beta", "gamma"))
        result = approximate(system, target)
        kept = result.pruned.kept_transitions
        adjacency = result.kept_adjacency
        assert set(adjacency) == {src for (src, _, _, _) in kept}
        for src, moves in adjacency.items():
            assert moves == tuple(t for t in kept if t[0] == src)
        fresh = approximate(system, target)
        for make in (AdversarialResolver, lambda: RandomResolver(trial)):
            first = Session.from_approx(result, make(), requests="target")
            second = Session.from_approx(result, make(), requests="target")
            alone = Session.from_approx(fresh, make(), requests="target")
            assert first._kept_adjacency is second._kept_adjacency is adjacency
            assert alone._kept_adjacency is not adjacency
            seed = rng.random()
            trails = [_target_walk(s, random.Random(seed), target, 15)
                      for s in (first, second, alone)]
            assert trails[0] == trails[1] == trails[2]
            walked += len(trails[0])
        assert result.kept_adjacency is adjacency
    assert walked >= 60


def test_approx_walks_on_random_deterministic_instances_are_honored():
    rng = random.Random(2026)
    nonempty = 0
    for trial in range(40):
        system = random_system(
            rng, n_behaviors=rng.randint(2, 3), n_states=rng.randint(2, 4),
            actions=("alpha", "beta", "gamma"), deterministic=True)
        target = random_target(rng, rng.randint(2, 4), ("alpha", "beta", "gamma"))
        result = approximate(system, target)
        if result.is_empty:
            session = Session.from_approx(result, requests="target")
            with pytest.raises(SessionError):
                session.step(target.transitions[0])
            continue
        nonempty += 1
        for resolver in (RandomResolver(seed=trial), AdversarialResolver()):
            session = Session.from_approx(result, resolver, requests="approx")
            for request in _approx_walk(rng, result.approx, 12):
                record = session.step(request)
                _check_honored_record(record, system)
                assert record.candidates_after
    assert nonempty >= 10


def test_nondeterministic_instances_never_honor_into_doom():
    # With nondeterministic behaviors, a branching outcome group can span
    # several blocks of the approximation; such a request is rejected
    # rather than honored on luck, so honored steps always keep at least
    # one explanation alive.
    rng = random.Random(5150)
    honored_total = 0
    for trial in range(40):
        system = random_system(
            rng, n_behaviors=rng.randint(1, 3), n_states=rng.randint(2, 4),
            actions=("alpha", "beta", "gamma"), deterministic=False)
        target = random_target(rng, rng.randint(2, 4), ("alpha", "beta", "gamma"))
        result = approximate(system, target)
        if result.is_empty:
            continue
        adjacency = {}
        for tr in result.approx.transitions:
            adjacency.setdefault(tr[0], []).append(tr)
        for resolver in (RandomResolver(seed=trial), AdversarialResolver()):
            session = Session.from_approx(result, resolver, requests="approx")
            for _ in range(12):
                options = list(adjacency[session.cursor])
                rng.shuffle(options)
                advanced = False
                for request in options:
                    try:
                        record = session.step(request)
                    except SessionError:
                        continue
                    _check_honored_record(record, system)
                    assert record.candidates_after
                    honored_total += 1
                    advanced = True
                    break
                if not advanced:
                    break
    assert honored_total >= 100


def test_candidate_breadth_with_merged_target_states():
    behavior = ltfs("worker", ["x0", "x1"], "x0",
                    [("x0", "alpha", "x1"), ("x1", "beta", "x0")])
    system = SystemSpec((behavior,))
    target = ltfs("t", ["t0", "t1", "t2"], "t0",
                  [("t0", "alpha", "t1"), ("t0", "alpha", "t2"),
                   ("t1", "beta", "t0"), ("t2", "beta", "t0")])
    result = approximate(system, target)
    assert result.approx.states == ("q0", "q1")

    session = Session.from_approx(result, requests="approx")
    record = session.step(("q0", "alpha", "q1"))
    assert record.candidates_after == ("x1|t1", "x1|t2")
    session.step(("q1", "beta", "q0"))
    assert session.candidate_labels() == ("x0|t0",)

    by_target = Session.from_approx(result, requests="target")
    by_target.step(("t0", "alpha", "t2"))
    assert by_target.candidate_labels() == ("x1|t2",)


def test_adversarial_resolver_starves_the_table():
    behavior = ltfs("moody", ["x0", "x1", "x2"], "x0",
                    [("x0", "alpha", "x1"), ("x0", "alpha", "x2"),
                     ("x1", "beta", "x1"), ("x2", "gamma", "x2")])
    system = SystemSpec((behavior,))
    target = ltfs("t", ["t0", "t1"], "t0",
                  [("t0", "alpha", "t1"), ("t1", "beta", "t1")])
    table = constant_controller(system, target, 1)

    session = Session.from_table(system, target, table, AdversarialResolver())
    record = session.step(("t0", "alpha", "t1"))
    assert record.sys_after == ("x2",)
    with pytest.raises(SessionError):
        session.step(("t1", "beta", "t1"))

    # The same walk survives when the outcome lands on the cooperative side.
    lucky = next(
        seed for seed in range(20)
        if RandomResolver(seed).choose(("x1", "x2"), lambda o: 0) == "x1")
    session = Session.from_table(system, target, table, RandomResolver(lucky))
    session.step(("t0", "alpha", "t1"))
    assert session.step(("t1", "beta", "t1")).honored


def _random_table(rng, system, target, density=0.75):
    entries = {}
    for sys_states in itertools.product(*(b.states for b in system.behaviors)):
        for tr in target.transitions:
            if rng.random() < density:
                entries[(sys_states, tr)] = rng.randint(1, system.size)
    return ControllerTable(entries, "random")


def test_bounded_traces_replay_through_adversarial_sessions():
    rng = random.Random(9)
    checked = 0
    for _ in range(25):
        system = random_system(
            rng, n_behaviors=rng.randint(1, 3), n_states=rng.randint(2, 3),
            actions=("alpha", "beta"), deterministic=bool(rng.getrandbits(1)))
        target = random_target(rng, rng.randint(2, 3), ("alpha", "beta"))
        table = _random_table(rng, system, target)
        traces = realized_traces_bounded(table, system, target, 3)
        for trace in traces:
            session = Session.from_table(system, target, table,
                                         AdversarialResolver())
            for request in trace:
                assert session.step(request).honored
            checked += 1
    assert checked >= 25


def test_trace_sets_are_prefix_closed_target_walks():
    rng = random.Random(31)
    for _ in range(20):
        system = random_system(
            rng, n_behaviors=rng.randint(1, 2), n_states=rng.randint(2, 3),
            actions=("alpha", "beta", "gamma"),
            deterministic=bool(rng.getrandbits(1)))
        target = random_target(rng, rng.randint(2, 3), ("alpha", "beta", "gamma"))
        table = _random_table(rng, system, target)
        traces = realized_traces_bounded(table, system, target, 3)
        assert () in traces
        for trace in traces:
            assert len(trace) <= 3
            for cut in range(len(trace)):
                assert trace[:cut] in traces
            expected_source = target.initial
            for (src, action, dst) in trace:
                assert src == expected_source
                expected_source = dst


def test_union_echo_strictness_on_the_house(golden, house_system, t_ent):
    # Bounded honoring is indifferent to doom beyond the horizon, so a
    # positional table realizes lightOn.movie.web even though every
    # continuation of it dies; imported sessions never leave the kept
    # region, so the imported union sits strictly inside the table union.
    risky = (L, M, ("t2", "web", "t3"))
    assert positional_trace_realizable(house_system, t_ent, risky)
    assert not imported_trace_realizable(golden, risky)
    for seq in target_request_sequences(t_ent, 3):
        if imported_trace_realizable(golden, seq):
            assert positional_trace_realizable(house_system, t_ent, seq)


def test_union_echo_on_a_collapsing_chain():
    behavior = ltfs("b", ["x0", "x1", "x2"], "x0",
                    [("x0", "alpha", "x1"), ("x1", "beta", "x2"),
                     ("x2", "delta", "x0")])
    target = ltfs("t", ["t0", "t1", "t2", "t3"], "t0",
                  [("t0", "alpha", "t1"), ("t1", "beta", "t2"),
                   ("t2", "gamma", "t3"), ("t3", "gamma", "t3")])
    system = SystemSpec((behavior,))
    result = approximate(system, target)
    assert result.is_empty

    realized_by_tables = {
        seq for seq in target_request_sequences(target, 3)
        if positional_trace_realizable(system, target, seq)
    }
    assert realized_by_tables == {
        (),
        (("t0", "alpha", "t1"),),
        (("t0", "alpha", "t1"), ("t1", "beta", "t2")),
    }
    assert all(not imported_trace_realizable(result, seq)
               for seq in realized_by_tables if seq)


def test_union_echo_at_desk_scale():
    rng = random.Random(77)
    exact_seen = 0
    for _ in range(14):
        system = random_system(
            rng, n_behaviors=rng.randint(1, 2), n_states=rng.randint(2, 3),
            actions=("alpha", "beta", "gamma"),
            deterministic=bool(rng.getrandbits(1)))
        target = random_target(rng, rng.randint(2, 3), ("alpha", "beta", "gamma"))
        result = approximate(system, target)
        sequences = target_request_sequences(target, 3)
        imported_union = {
            seq for seq in sequences if imported_trace_realizable(result, seq)}
        table_union = {
            seq for seq in sequences
            if positional_trace_realizable(system, target, seq)}
        assert imported_union <= table_union
        if check_exact(system, target):
            exact_seen += 1
            assert imported_union == set(sequences)
            assert table_union == set(sequences)
    assert exact_seen >= 2


def test_union_echo_equality_on_an_exact_instance(b_light):
    system = SystemSpec((b_light,))
    target = b_light.renamed("t")
    result = approximate(system, target)
    assert check_exact(system, target)
    sequences = target_request_sequences(target, 4)
    assert all(imported_trace_realizable(result, seq) for seq in sequences)
    assert all(positional_trace_realizable(system, target, seq)
               for seq in sequences)
