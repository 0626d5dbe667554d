"""Self-tests of the benchmark itself.

    python3 -m pytest bench/selftest.py -q

They check that a seed fixes the inputs, that every workload's check rejects a
perturbed result, that the printed metric names match BENCHMARK.json, and
that the benchmark refuses to run without the library's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import roughpath  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_repeat_for_a_seed(name, tmp_path):
    workload = workloads.make(name, tmp_path / "work")
    first = workload.input_digest(workload.build(5))
    assert workload.input_digest(workload.build(5)) == first
    assert workload.input_digest(workload.build(6)) != first


def test_integrate_check_rejects_perturbed_result():
    workload = workloads.IntegrateRough()
    inputs = workload.build(5)
    i = 6                                   # sin_t_x on [0, 0.5]: one Green evaluation
    result = workload.op(inputs, i)
    assert workload.check_first(inputs, i, result) == []
    # Shift the whole level history, so the level-to-level changes stay as they were.
    shifted = dataclasses.replace(
        result, value=result.value + 1e-4, level_values=result.level_values + 1e-4
    )
    assert workload.check_first(inputs, i, shifted)


def test_picard_check_rejects_perturbed_result():
    workload = workloads.PicardSolve()
    inputs = workload.build(5)
    i = 1                                   # linear F: no inner quadrature
    solution = workload.op(inputs, i)
    assert workload.check_first(inputs, i, solution) == []
    assert workload.check_first(inputs, i, dataclasses.replace(solution, y=solution.y * 1.5))
    assert workload.check_first(inputs, i, dataclasses.replace(solution, residual=1e-6))


def test_brownian_check_rejects_perturbed_result():
    workload = workloads.BrownianEnsemble()
    inputs = workload.build(5)
    report, ito = workload.op(inputs, 0)
    assert workload.check_first(inputs, 0, (report, ito)) == []
    bad_report = json.loads(json.dumps(report))
    bad_report["levels"][1]["mean"] *= 1.0 + 1e-6
    assert workload.check_first(inputs, 0, (bad_report, ito))
    bad_ito = dict(ito, residuals=ito["residuals"] + 1e-6)
    assert workload.check_first(inputs, 0, (report, bad_ito))


def test_cli_check_rejects_perturbed_result(tmp_path):
    workload = workloads.CliFiles(tmp_path / "work")
    inputs = workload.build(5)
    results = {i: workload.op(inputs, i) for i in range(5)}
    for i, result in results.items():
        assert workload.check_first(inputs, i, result) == [], workload.COMMANDS[i]
    code, stdout = results[3]               # integrate: printed JSON must match the library
    payload = json.loads(stdout)
    payload["value"] += 1e-9
    assert workload.check_first(inputs, 3, (code, json.dumps(payload)))
    assert workload.check_first(inputs, 3, (2, stdout))
    gen_csv = Path(workload._file("gen", 0, "csv"))   # gen-path: the written CSV is checked
    gen_csv.write_text(gen_csv.read_text().replace("\n1,", "\n1.0000000000000002,"))
    assert workload.check_first(inputs, 0, results[0])


def test_every_op_is_compared_with_the_first_op_of_its_input():
    class Fake(workloads.Workload):
        def key(self, i):
            return 0

        def op(self, inputs, i):
            return i

        def digest(self, inputs, i, result):
            return str(result)

        def check_first(self, inputs, i, result):
            return []

    log = run.OpLog(Fake())
    for i in range(3):
        log.run(None, i)
    assert len(log.check()) == 2


def test_tracer_wraps_the_attributes_callers_look_up_and_restores_them():
    originals = (roughpath.integrator.refine_batch, roughpath.ode.cumulative_increments,
                 roughpath.integrate)
    t = tracer.Tracer()
    t.install()
    try:
        assert roughpath.integrator.refine_batch.__wrapped__ is originals[0]
        assert roughpath.ode.cumulative_increments.__wrapped__ is originals[1]
        assert roughpath.integrate.__wrapped__ is originals[2]
    finally:
        t.uninstall()
    assert (roughpath.integrator.refine_batch, roughpath.ode.cumulative_increments,
            roughpath.integrate) == originals


def test_metric_names_match_benchmark_json(spec):
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert spec["command"] == ["python3", "bench/run.py"]


def test_traced_pass_prints_every_per_layer_metric(spec, tmp_path):
    workload = workloads.CliFiles(tmp_path / "work")
    t = tracer.Tracer()
    t.install()
    try:
        inputs = workload.build(5, t.count_field)
        for i in range(5):
            t.op = i
            assert workload.op(inputs, i)[0] == 0
    finally:
        t.uninstall()
    summary = t.pass_summary()
    assert summary["exact_counts"]["io.bytes_written"] > 0
    assert summary["exact_counts"]["io.bytes_read"] > 0
    criteria = {name: 1.0 for name in roughpath.experiments.CRITERIA_ORDER}
    metrics = run.trace_metrics([summary, summary], [1.0, 1.0], [1.0, 1.0], criteria)
    assert [(name, unit) for name, (_value, unit) in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]
    ]


def test_printed_end_to_end_metrics(spec):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "brownian-ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-files", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_bridge_matches_generator():
    assert np.array_equal(workloads.reference_brownian(10, 42), roughpath.gen_brownian(10, 42).samples)
