"""Seeded instance families for the benchmark, frozen here.

The generator is a copy of ``random_ltfs`` from ``tests/helpers.py`` as it
stood when the benchmark was defined. It is kept apart on purpose: an edit
to the test helpers must not silently change what a workload measures.
``EXPECTED`` pins the product sizes each instance must produce, and every
run checks them.

Each workload names one instance (its ``instance_seed`` is part of the
workload, so the product size is fixed). The benchmark's ``--seed`` drives
what varies between runs: the session request walks and the hash seed.
"""

import random

from behapprox.model import RawBehavior, SystemSpec, validate_behavior

ACTIONS = ("alpha", "beta", "gamma", "delta")


def random_ltfs(rng, name, n_states, deterministic=False):
    """A random live behavior over ``ACTIONS``; every state has a move.

    The sequence of ``rng`` calls must stay exactly as it is: the instance
    sizes pinned in ``EXPECTED`` depend on it.
    """
    states = ["s%d" % i for i in range(n_states)]
    n_trans = rng.randint(n_states, 3 * n_states)
    triples = []
    used = set()
    for _ in range(n_trans):
        s = rng.choice(states)
        a = rng.choice(ACTIONS)
        d = rng.choice(states)
        key = (s, a) if deterministic else (s, a, d)
        if key in used:
            continue
        used.add(key)
        triples.append((s, a, d))
    covered = {s for s, _, _ in triples}
    for s in states:
        if s not in covered:
            a = rng.choice(ACTIONS)
            triples.append((s, a, rng.choice(states)))
    return validate_behavior(RawBehavior.make(name, states, "s0", triples))


def build_instance(params):
    """(SystemSpec, target Ltfs) for one parameter record.

    The construction of acceptance criterion 10: behaviors first, then a
    deterministic target, all drawn from one ``random.Random(seed)``.
    """
    rng = random.Random(params["instance_seed"])
    behaviors = [
        random_ltfs(rng, "b%d" % k, params["states"],
                    deterministic=params["deterministic"])
        for k in range(params["behaviors"])]
    target = random_ltfs(rng, "target", params["target_states"],
                         deterministic=True)
    return SystemSpec.make(behaviors, name="bench"), target


# Full-size instances, and the small "smoke" instances of the same shape
# that the benchmark's own tests run in seconds.
WORKLOADS = {
    "nondet-56k": {
        "instance_seed": 7, "behaviors": 6, "states": 6,
        "deterministic": False, "target_states": 8},
    "det-game": {
        "instance_seed": 1, "behaviors": 6, "states": 6,
        "deterministic": True, "target_states": 8},
    "sessions-5x6": {
        "instance_seed": 7, "behaviors": 5, "states": 6,
        "deterministic": False, "target_states": 6},
}

SMOKE = {
    "nondet-56k": {
        "instance_seed": 7, "behaviors": 3, "states": 4,
        "deterministic": False, "target_states": 4},
    "det-game": {
        "instance_seed": 1, "behaviors": 3, "states": 3,
        "deterministic": True, "target_states": 5},
    # Exact, like the full-size instance.
    "sessions-5x6": {
        "instance_seed": 6, "behaviors": 4, "states": 3,
        "deterministic": False, "target_states": 4},
}

#: (product states, product transitions) per instance, as first measured.
EXPECTED = {
    "nondet-56k": (56641, 368031),
    "det-game": (4953, 17179),
    "sessions-5x6": (9456, 39148),
}


def instance_params(workload, smoke=False):
    table = SMOKE if smoke else WORKLOADS
    if workload not in table:
        raise KeyError("unknown workload %r (known: %s)"
                       % (workload, ", ".join(sorted(table))))
    return table[workload]
