"""Tests of the benchmark's own code: output checks, digests, span accounting
and the workload configs.  Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker.import_program()
from qcadc import ca, experiments  # noqa: E402

TINY_CA = dict(backend="ca", scheme="tlv", grid=[[10, "1/8"], [12, "1/6"]], trials=40, max_steps=30)
TINY_232 = dict(backend="ca", scheme="232", grid=[[70, "1/10"]], trials=30, max_steps=1000)
TINY_QCA = dict(backend="qca", scheme="tlv", grid=[[4, "1/8"]], noise="coherent",
                trials=5, max_steps=6)
TINY_DEP = dict(backend="qca", scheme="232", grid=[[4, "1/10"]], noise="depolarizing",
                trials=4, max_steps=5)


def campaign(options: dict, seed: int, tmp_path: Path, traced: bool = False):
    """Run a campaign through the CLI as the worker does; returns outputs and the tracer."""
    workload = workloads.Workload("tiny", "", "campaign", options)
    output = tmp_path / "out"
    config = workloads.config_for(workload, seed, output)
    worker.validate(workload, config, cli)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    try:
        start = time.perf_counter()
        code = cli.main(workloads.cli_args(workload, config_path))
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    outputs = {label: path.read_bytes()
               for label, path in workloads.output_files(workload, output).items()}
    return config, outputs, code, tracer, wall


@pytest.mark.parametrize("options", [TINY_CA, TINY_232, TINY_QCA, TINY_DEP])
def test_self_times_nonnegative_and_within_traced_wall(tmp_path, options):
    original = cli.main
    _, _, code, tracer, wall = campaign(options, 3, tmp_path, traced=True)
    assert code == 0
    assert cli.main is original and all(span is not None for span in tracer.spans)
    times = tracing.self_times(tracer.spans)
    assert all(value >= 0.0 for value in times.values()), times
    assert sum(times.values()) <= wall
    busy = "rng.bernoulli_matrix" if options["backend"] == "ca" else "circuits.QcaStepper.step_with_zsum"
    assert times[busy] > 0.0


def test_heisenberg_spans_nest_inside_the_report(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        code = cli.main(["heisenberg-check", "--scheme", "q232", "--output", str(tmp_path / "r")])
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    assert code == 0
    times = tracing.self_times(tracer.spans)
    assert all(value >= 0.0 for value in times.values())
    assert sum(times.values()) <= wall
    assert times["heisenberg.conjugate_pauli"] > 0.0
    parents = {tracer.spans[parent][0] for name, _, _, parent in tracer.spans
               if name == "heisenberg.conjugate_pauli"}
    assert parents == {"heisenberg.heisenberg_report"}


def test_perturbed_output_fails_the_digest_check(tmp_path):
    config, outputs, code, _, _ = campaign(TINY_CA, 11, tmp_path)
    good = {label: workloads.digest(data) for label, data in outputs.items()}
    perturbed = bytearray(outputs["csv"])
    perturbed[-2] = ord("0") if perturbed[-2] != ord("0") else ord("1")
    bad = dict(good, csv=workloads.digest(bytes(perturbed)))
    check = vars(workloads.check_campaign(config, outputs, code))
    calls = [(False, {"digests": good, "check": check}),
             (False, {"digests": bad, "check": check})]
    attempted, failed, problems = run.verify("ca-tlv-tail", 11, calls)
    assert (attempted, failed) == (4, 2) and "digest mismatch" in problems[0]

    stored = workloads.stored_digests("ca-tlv-tail", workloads.DEFAULT_SEED)
    calls = [(False, {"digests": dict(stored), "check": check}),
             (False, {"digests": dict(stored, json=good["json"]), "check": check})]
    assert run.verify("ca-tlv-tail", workloads.DEFAULT_SEED, calls)[1] == 2


def test_inconsistent_output_fails_the_output_check(tmp_path):
    config, outputs, code, _, _ = campaign(TINY_CA, 5, tmp_path)
    assert workloads.check_campaign(config, outputs, code).failed == 0
    payload = json.loads(outputs["json"])
    row = payload["rows"][0]
    first = next(iter(row["histogram"]))
    row["histogram"][first] += 1
    broken = dict(outputs, json=json.dumps(payload).encode())
    assert workloads.check_campaign(config, broken, code).failed == len(config["grid"])
    assert workloads.check_campaign(config, outputs, 2).failed == len(config["grid"])


def test_heisenberg_report_check_counts_fail_lines():
    lines = [f"q232: PASS check {i} (ok)" for i in range(11)] + ["qtlv: FAIL last (bad)"]
    report = ("\n".join(lines) + "\n").encode()
    assert workloads.check_heisenberg({"report": report}, 2).failed == 1
    assert workloads.check_heisenberg({"report": report[:40]}, 0).failed == 12


def test_trial_steps_match_flip_times_from_the_histogram(tmp_path):
    seed = 4
    config, outputs, _, tracer, _ = campaign(TINY_CA, seed, tmp_path, traced=True)
    rows = json.loads(outputs["json"])["rows"]
    max_steps = config["max_steps"]
    expected = 0
    for index, (n, p) in enumerate(config["grid"]):
        point = experiments.point_seed(seed, index)
        for trial in range(config["trials"]):
            t = ca.flip_time_trial(n, "tlv", cli.parse_probability(p), point, trial, max_steps)
            expected += max_steps if t is None else t
    work = workloads.check_campaign(config, outputs, 0).work
    assert sum(workloads.trial_steps(row, max_steps) for row in rows) == work == expected
    assert tracer.layer_metrics()["ca.trial_steps"] == expected


def test_qca_trial_steps_match_traced_step_count(tmp_path):
    config, outputs, _, tracer, _ = campaign(TINY_QCA, 9, tmp_path, traced=True)
    work = workloads.check_campaign(config, outputs, 0).work
    assert tracer.layer_metrics()["circuits.QcaStepper.step_with_zsum.calls"] == work


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_validate(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    for seed in (0, workloads.DEFAULT_SEED, 2**40 + 1):
        config = workloads.config_for(workload, seed, tmp_path / "out")
        worker.validate(workload, config, cli)
        assert set(config) <= {"backend", "scheme", "grid", "noise", "trials", "seed",
                               "max_steps", "output"}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS)
    assert set(workloads.WORKLOADS) == set(json.loads(workloads.DIGESTS_FILE.read_text()))


def test_benchmark_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ca-tlv-tail",
                           "--seed", "7", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
