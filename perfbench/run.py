"""Benchmark of the qcadc campaign runner and Heisenberg checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ca-tlv-tail --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each measured call is a fresh worker process (perfbench/worker.py) that
imports qcadc from src/, writes the generated config and calls
``qcadc.cli.main`` once: ``campaign --workers 1`` for the four campaign
workloads, ``heisenberg-check`` for the fifth.  Calls repeat with the
same inputs until ``--seconds`` is used up (at least three), and each
metric is the median over the calls:

* ``wall_s`` (s): the ``cli.main`` call, set-up excluded.
* ``setup_s`` (s): ``import qcadc`` plus building and validating the config.
* ``work_per_s`` (units/s): trial-steps (sum of min(flip time, max_steps)
  over trials, from the output histogram) per second for campaigns,
  Heisenberg checks per second for heisenberg-check.
* ``peak_rss_mb`` (MB): ``ru_maxrss`` of the worker process.

Failed operations (grid points or checks) over attempted ones are the
``failed`` and ``attempted`` of the result line, and the error rate is
printed above it.  An operation fails on a row error, a FAIL check, a
nonzero exit, an inconsistent output or a digest mismatch.  Outputs are
compared byte for byte with perfbench/digests.json at the default seed
(always, for the seedless Heisenberg report) and across the calls of a run
at every other seed.

With ``--trace 1`` the run alternates untraced and traced calls (see
tracing.py) and reports the per-layer metrics instead; the tracing
overhead is the median traced wall time minus the median untraced one.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 when every output is correct, 1 when one is wrong, 2 when the
benchmark cannot run (for example without src/qcadc).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKER = HERE / "worker.py"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("work_per_s", "units/s"), ("peak_rss_mb", "MB"))
MIN_CALLS = 3        # untraced calls per run; a traced run makes two of each kind
RUN_LIMIT_S = 170    # every worker is killed before a run takes longer than this


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def call_worker(name: str, seed: int, traced: bool, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{name}: out of time after {RUN_LIMIT_S} s")
    env = {k: v for k, v in os.environ.items() if k != "QCADC_WORKERS"}
    cmd = [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
           "--trace", str(int(traced)), "--out", str(WORK / name)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited with {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def collect(name: str, seed: int, seconds: float, trace: bool) -> list[tuple[bool, dict]]:
    """Fresh-process calls until the time is used up; traced runs alternate kinds."""
    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    calls: list[tuple[bool, dict]] = []
    while True:
        traced = trace and len(calls) % 2 == 1
        started = time.monotonic()
        calls.append((traced, call_worker(name, seed, traced, deadline)))
        last = time.monotonic() - started
        enough = len(calls) >= (4 if trace else MIN_CALLS)
        if enough and time.monotonic() - begin + last > seconds:
            return calls


def verify(name: str, seed: int, calls: list[tuple[bool, dict]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems); a digest mismatch fails every operation of its call."""
    stored = workloads.stored_digests(name, seed)
    reference = stored or calls[0][1]["digests"]
    source = "stored" if stored else "first call"
    attempted = failed = 0
    problems: list[str] = []
    for _, call in calls:
        check = call["check"]
        attempted += check["attempted"]
        call_failed = check["failed"]
        problems += check["problems"]
        if call["digests"] != reference:
            problems.append(f"digest mismatch: {call['digests']} vs {source} {reference}")
            call_failed = check["attempted"]
        failed += call_failed
    return attempted, failed, problems


def end_to_end(calls: list[tuple[bool, dict]]) -> dict[str, float]:
    untraced = [call for traced, call in calls if not traced]
    return {
        "wall_s": statistics.median(c["wall_s"] for c in untraced),
        "setup_s": statistics.median(c["setup_s"] for _, c in calls),
        "work_per_s": statistics.median(c["check"]["work"] / c["wall_s"] for c in untraced),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
    }


def per_layer(calls: list[tuple[bool, dict]]) -> dict[str, float]:
    traced = [call["layers"] for is_traced, call in calls if is_traced]
    untraced_wall = statistics.median(c["wall_s"] for t, c in calls if not t)
    traced_wall = statistics.median(layers["trace.wall_s"] for layers in traced)
    metrics = {name: statistics.median(layers[name] for layers in traced)
               for name, _, _ in tracing.LAYER_METRICS if not name.startswith("trace.")}
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_fraction"] = (traced_wall - untraced_wall) / untraced_wall
    return metrics


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def environment(numpy_version: str, python_version: str) -> dict:
    """What the machine and the code are, so that every figure says where it came from."""
    cpu_model = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                      if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcadc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "caches": caches,
            "numpy": numpy_version, "python": python_version,
            "git_commit": commit, "src_sha256": src.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    calls = collect(name, seed, seconds, trace)
    attempted, failed, problems = verify(name, seed, calls)
    units = dict(END_TO_END) if not trace else {n: u for n, u, _ in tracing.LAYER_METRICS}
    values = per_layer(calls) if trace else end_to_end(calls)
    first = calls[0][1]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    record = {"workload": name, "seed": seed, "trace": trace,
              "environment": environment(first["numpy"], first["python"]),
              "problems": problems, "calls": [c for _, c in calls], "result": result}
    (WORK / name / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print("env " + json.dumps(record["environment"]))
    print(f"digest {name} seed={seed} " + " ".join(f"{k}={v}" for k, v in first["digests"].items()))
    for problem in problems:
        print(f"problem {name}: {problem}")
    print(f"{name}: {len(calls)} calls, error_rate {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qcadc benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcadc" / "__init__.py").is_file():
        print(f"error: no qcadc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
