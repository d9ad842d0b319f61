"""Record the reference outputs every benchmark run is checked against.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 bench/record_digests.py

It writes ``bench/digests.json``: for each workload, full-size and smoke,
the product sizes, the exit code and sha256 of stdout, stderr and output
file of every measured CLI command, and the controller comparison. The
CLI must stay byte-identical, so these are meant to be recorded once.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from behapprox import full_enacted_system, serialize_problem  # noqa: E402

from instances import SMOKE, WORKLOADS, build_instance  # noqa: E402
from ops import cli_commands, compare, controller_rule, run_command  # noqa: E402


def record(params, work_dir):
    system, target = build_instance(params)
    problem = os.path.join(work_dir, "problem.yaml")
    with open(problem, "w") as handle:
        handle.write(serialize_problem(system, target))
    full = full_enacted_system(system, target)
    entry = {"sizes": [len(full.states), len(full.transitions)]}
    del full
    for name, (argv, output) in cli_commands(problem, work_dir).items():
        entry[name] = run_command(argv, output)[1]
    entry["compare"] = compare(system, target,
                               controller_rule(system, target))[1]
    return entry


def main():
    work_dir = os.path.join(ROOT, ".bench_out", "record")
    os.makedirs(work_dir, exist_ok=True)
    try:
        digests = {
            mode: {name: record(params, work_dir)
                   for name, params in table.items()}
            for mode, table in (("smoke", SMOKE), ("full", WORKLOADS))}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
