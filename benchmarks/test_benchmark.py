"""Tests of the benchmark harness itself, on a few cheap instances each.

    python -m pytest benchmarks/test_benchmark.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run
import workloads

run.import_program()

import checks  # noqa: E402
import probe  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = workloads.DEFAULT_SEED
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")

# Cheap slots of each default batch: corpus instances, low-k0 templates,
# rootless-mod-101 and degree-16 instances.
CHEAP = {
    "oracle-verify": [0, 2, 6, 13, 14],
    "deep-lift": [0, 2, 4, 5],
    "accept-d10": None,  # the roots=0 slots, found below
    "highdeg-rootless": [0],
}


def _cheap(workload):
    batch = workloads.generate(workload, SEED)
    idx = CHEAP[workload]
    if idx is None:
        idx = [i for i, x in enumerate(batch) if x.label == "roots=0"][:3]
    return idx, [batch[i] for i in idx]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_results_identical_with_tracing_on_and_off(workload):
    _, batch = _cheap(workload)
    request = run.make_request(workload)
    _, _, plain = run.run_pass(batch, request)
    _, _, traced = run.run_pass(batch, request, Tracer())
    assert plain == traced
    assert not any(isinstance(r, BaseException) for r in plain)


@pytest.mark.parametrize("workload", ["deep-lift", "oracle-verify"])
def test_two_traced_runs_give_equal_counts(workload):
    _, batch = _cheap(workload)
    request = run.make_request(workload)
    tracers = [Tracer(), Tracer()]
    for t in tracers:
        run.run_pass(batch, request, t)
    calls = [{n: c["calls"] for n, c in t.totals().items()} for t in tracers]
    assert calls[0] == calls[1]
    assert tracers[0].quantity_totals() == tracers[1].quantity_totals()
    assert calls[0]["exactpoly.compose_linear"] > 0


def _loop(workload, corrupt=None):
    idx, batch = _cheap(workload)
    expected = checks.load_expected(workload, SEED)
    expected = [dict(expected[i]) for i in idx]
    if corrupt is not None:
        expected[corrupt]["sha256"] = "0" * 64
    loop = run.Loop(workload, batch, expected, run.make_request(workload))
    loop.run(0, traced=False)
    return loop, loop.check()


@pytest.mark.parametrize("workload", ["deep-lift", "oracle-verify"])
def test_corrupted_expected_result_counts_as_failed(workload):
    loop, problems = _loop(workload)
    assert (loop.failed, problems) == (0, [])
    loop, problems = _loop(workload, corrupt=1)
    assert loop.failed == loop.passes >= 1
    assert "differs from the recorded expected output" in problems[0]


def test_wrong_result_fails_for_any_seed():
    inst = workloads.deep_lift(1)[0]
    result = run.make_request("deep-lift")(inst)
    assert checks.problem("deep-lift", inst, result, None) is None
    wrong = json.loads(json.dumps(result))
    wrong["poincare"]["num"][0] = str(int(wrong["poincare"]["num"][0]) + 1)
    assert checks.problem("deep-lift", inst, wrong, None) is not None

    inst = workloads.oracle_verify(1)[0]
    result = run.make_request("oracle-verify")(inst)
    assert checks.problem("oracle-verify", inst, result, None) is None
    result["checks"].pop()
    assert "checks, expected" in checks.problem("oracle-verify", inst, result, None)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_expected_outputs_belong_to_the_default_batch(workload):
    batch = workloads.generate(workload, SEED)
    expected = checks.load_expected(workload, SEED)
    assert [(e["text"], e["p"]) for e in expected] == [(x.text, x.p) for x in batch]
    assert checks.load_expected(workload, SEED + 1) is None


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generators_are_seeded_and_stratified(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert a == workloads.generate(workload, 1)
    assert [x.text for x in a] != [x.text for x in b]
    assert sorted(x.label for x in a) == sorted(x.label for x in b)
    assert len(a) == 32


def test_accept_d10_default_batch_holds_criterion_9_instance():
    import random

    rng = random.Random(9)
    coeffs = tuple(rng.choice((-1, 1)) * rng.randrange(10**29, 10**30) for _ in range(11))
    assert workloads.accept_d10(9)[0].coeffs == coeffs


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(32)]) == (68, 21.0)
    assert run.tail_percentile([float(i) for i in range(100)]) == (90, 89.0)


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    _, batch = _cheap("oracle-verify")
    loop = run.Loop("oracle-verify", batch[:1], None, run.make_request("oracle-verify"))
    loop.run(0, traced=True)
    layer, _ = run.per_layer(loop)
    e2e, _ = run.end_to_end(_e2e_loop(), [0.2])
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(units[k] == u for k, (_, u) in {**layer, **e2e}.items())


def _e2e_loop():
    loop = run.Loop("oracle-verify", [None] * 32, None, None)
    loop.latencies = [[0.01 * i] for i in range(32)]
    loop.walls["plain"] = [1.0]
    loop.passes = 1
    return loop


def test_probe_reports_exceeded_instead_of_hanging():
    assert probe.probe("x6-4096", limit=0.3)["status"] == "exceeded"


def test_refuses_to_run_without_program_sources():
    # A directory holding only BENCHMARK.json and the benchmark, kept under
    # the benchmark's own (ignored) output directory.
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copytree(run.HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCHMARK_JSON, bare)
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "oracle-verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
