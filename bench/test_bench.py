"""Tests of the benchmark harness itself, on the small smoke instances.

Run from the root of a checkout:

    python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from behapprox import full_enacted_system  # noqa: E402

import run  # noqa: E402
from instances import EXPECTED, SMOKE, WORKLOADS, build_instance  # noqa: E402
from speed import HALO, REFERENCE_S, Speed  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)


def test_benchmark_json_lists_what_the_harness_reports():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    assert set(run.NAMES) == set(WORKLOADS) == set(SMOKE)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.NAMES)
def test_smoke_run_is_correct_and_complete(workload, trace):
    done = run_bench("--workload", workload, "--seed", "5", "--seconds",
                     "0.5", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else PER_LAYER
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_frozen_generator_reproduces_the_pinned_sizes(workload):
    system, target = build_instance(WORKLOADS[workload])
    full = full_enacted_system(system, target)
    assert (len(full.states), len(full.transitions)) == EXPECTED[workload]


def test_speed_scales_by_the_probes_around_an_interval():
    speed = Speed()
    speed.stamps = [0.0, 1.0, 1.0 + HALO]
    speed.probes = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    # Only the probe at 0.0 is near; the machine ran at reference speed.
    assert speed.scaled([(0.0, 0.1)]) == [pytest.approx(0.1)]
    # The probes at 1.0 and 1.0 + HALO count: three times the reference.
    assert speed.scaled([(1.0 + HALO, 1.0 + 2 * HALO)]) \
        == [pytest.approx(HALO / 3)]
    # No probe near: the last one counts, at a quarter speed.
    assert speed.scaled([(9.0, 10.0)]) == [pytest.approx(0.25)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "det-game", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
