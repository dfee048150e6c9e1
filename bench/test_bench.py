"""Tests of the benchmark itself: pinned inputs, the correctness gate, the
span arithmetic, and counts that repeat exactly across interpreters.

    python -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC_DIR)]

import tracer  # noqa: E402
import workloads  # noqa: E402

# small pinned jobs, one per route, that run in well under a second
SMALL_JOBS = (
    workloads.Job("table", spec="g2", twist=1, loop=True),
    workloads.Job("characters", spec="g2_swapped", twist=1, loop=True),
    workloads.Job("verify", group="U(1)", torus="[[6]]", epsilon="1"),
)


def test_every_job_a_seed_can_pick_is_pinned():
    expected = workloads.load_expected()
    for name in workloads.WORKLOADS:
        for job in workloads.all_jobs(name):
            if job.route != "verify":
                assert job.input_label in expected["tables"], job.label


def test_seed_picks_inputs_and_repeats():
    for name in workloads.WORKLOADS:
        assert workloads.jobs_for(name, 5) == workloads.jobs_for(name, 5)
        lists = {tuple(workloads.jobs_for(name, seed)) for seed in range(20)}
        assert len(lists) > 1, name


def test_small_jobs_pass_the_gate():
    expected = workloads.load_expected()
    for job in SMALL_JOBS:
        workloads.run_job(job, expected)


def test_gate_catches_a_perturbed_digest():
    expected = workloads.load_expected()
    job = SMALL_JOBS[0]
    digest = expected["tables"][job.input_label]
    expected["tables"][job.input_label] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    with pytest.raises(workloads.GateFailure):
        workloads.run_job(job, expected)
    import worker
    _, outcomes = worker.run_pass([job], expected)
    assert not outcomes[0]["ok"] and "digest" in outcomes[0]["reason"]


def test_gate_catches_a_wrong_table():
    _, text = workloads.run_cli(["table", "--group", "SU(2)", "--twist", "6"])
    table = json.loads(text)["table"]
    basis, constants = table["basis"], table["constants"]
    workloads.check_su2_oracle(6, workloads.products_by_weight(basis, constants))
    constants[1][1][0] += 1
    with pytest.raises(workloads.GateFailure):
        workloads.check_su2_oracle(6, workloads.products_by_weight(basis, constants))

    _, text = workloads.run_cli(["table"] + SMALL_JOBS[0].options())
    table = json.loads(text)["table"]
    basis, constants = table["basis"], table["constants"]
    workloads.check_fibonacci(workloads.products_by_weight(basis, constants))
    constants[1][1][1] += 1
    with pytest.raises(workloads.GateFailure):
        workloads.check_fibonacci(workloads.products_by_weight(basis, constants))


def test_self_and_total_time_from_spans():
    # outer(0..10) > inner(1..4) > outer(2..3): recursion counts once in total
    spans = [
        ("fusion.delta_eval", 0.0, 10.0, -1, 0, None),
        ("affineweyl.box_reduce", 1.0, 4.0, 0, 0, None),
        ("fusion.delta_eval", 2.0, 3.0, 1, 0, None),
    ]
    assert tracer.self_times(spans) == [7.0, 2.0, 1.0]
    metrics = tracer.summarize(spans)
    assert metrics["fusion.delta_eval.calls"] == 2
    assert metrics["fusion.delta_eval.self_s"] == 8.0
    assert metrics["fusion.delta_eval.total_s"] == 10.0
    assert metrics["affineweyl.box_reduce.self_s"] == 2.0


TRACED_PASS = """
import json, sys
sys.path[:0] = {paths!r}
import tracer, worker, workloads
jobs = [workloads.Job(**spec) for spec in {jobs!r}]
t = tracer.Tracer()
t.install()
_, outcomes = worker.run_pass(jobs, workloads.load_expected(), t)
t.uninstall()
print(json.dumps({{"ok": all(o["ok"] for o in outcomes), "layers": tracer.summarize(t.spans)}}))
"""


def traced_pass_in_fresh_interpreter():
    jobs = [{k: v for k, v in vars(job).items() if v is not None} for job in SMALL_JOBS]
    code = TRACED_PASS.format(paths=[str(BENCH_DIR), str(SRC_DIR)], jobs=jobs)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_and_ratios_repeat_exactly():
    first = traced_pass_in_fresh_interpreter()
    second = traced_pass_in_fresh_interpreter()
    assert first["ok"] and second["ok"]
    counts = [{k: v for k, v in run["layers"].items() if not k.endswith("_s")}
              for run in (first, second)]
    assert counts[0] == counts[1]
    # every route ran through the wrappers, including the re-exported names
    layers = first["layers"]
    for name in ("cli.render.calls", "fusion.structure_constants_via_characters.calls",
                 "fusion.delta_eval.calls", "affineweyl.orbit_normal_form.calls",
                 "cyclo.CyclotomicInt.init.calls", "fusion.FusionRing.init.calls"):
        assert layers[name] > 0, name
    assert layers["checks.check_delta_identity.total_s"] > 0


def test_per_layer_metrics_match_the_benchmark_file():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    listed = {metric["name"] for metric in spec["per_layer"]}
    assert listed == set(tracer.summarize([])) | {"trace.overhead_s"}
