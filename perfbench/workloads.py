"""Workload definitions, output checks and digests for the qcadc benchmark.

Standard library only: the orchestrator imports this module without
paying for numpy or scipy, and the worker imports it before its set-up
clock starts.

Campaign sizes are chosen so that one call takes about three seconds on a
2-core Xeon and so that its work barely depends on the seed: ``max_steps``
censors the heavy flip-time tail, which otherwise makes the step count
(and so the wall time) vary by tens of percent from seed to seed.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 7
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"
HEISENBERG_CHECKS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                      # "campaign" | "heisenberg-check"
    options: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload(
        "ca-tlv-tail",
        "TLV at n=20, p=1/16: many steps on small shrinking single-word batches, "
        "so per-call numpy overhead and active-set compaction dominate",
        "campaign",
        dict(backend="ca", scheme="tlv", grid=[[20, "1/16"]], trials=1500, max_steps=8000),
    ),
    Workload(
        "ca-232-wide",
        "rule 232 at n=256, p=1/20: large 4-word batches through the generic "
        "elementary kernel, where noise hashing dominates",
        "campaign",
        dict(backend="ca", scheme="232", grid=[[256, "1/20"]], trials=4000,
             max_steps=1_000_000),
    ),
    Workload(
        "qca-coherent",
        "QTLV on 16 qubits under coherent noise: the permutation-gather path "
        "of the trajectory stepper with RX on every now qubit",
        "campaign",
        dict(backend="qca", scheme="tlv", grid=[[8, "11/72"]], noise="coherent",
             trials=56, max_steps=12),
    ),
    Workload(
        "qca-depolarizing",
        "Q232 on 16 qubits under per-gate depolarizing noise: gate-by-gate "
        "statevector updates with Pauli kicks",
        "campaign",
        dict(backend="qca", scheme="232", grid=[[8, "1/12"]], noise="depolarizing",
             trials=96, max_steps=6),
    ),
    Workload(
        "heisenberg-check",
        "all 12 Heisenberg window checks: the only workload that runs "
        "heisenberg.py and the only one with a large memory peak",
        "heisenberg-check",
        dict(scheme="both"),
    ),
)}


def config_for(workload: Workload, seed: int, output: Path) -> dict:
    """The JSON config the program receives; the seed reaches campaigns only."""
    if workload.command == "campaign":
        return {**workload.options, "seed": seed, "output": str(output)}
    return {**workload.options, "output": str(output)}


def cli_args(workload: Workload, config_path: Path) -> list[str]:
    args = [workload.command, "--config", str(config_path)]
    if workload.command == "campaign":
        args += ["--workers", "1"]
    return args


def output_files(workload: Workload, output: Path) -> dict[str, Path]:
    """Outputs that are compared byte for byte (never the timestamped meta file)."""
    if workload.command == "campaign":
        return {"csv": output.with_name(output.name + ".csv"),
                "json": output.with_name(output.name + ".json")}
    return {"report": output}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stored_digests(name: str, seed: int) -> dict[str, str] | None:
    """Digests recorded at the default seed; the Heisenberg report has no seed."""
    if seed != DEFAULT_SEED and WORKLOADS[name].command == "campaign":
        return None
    return json.loads(DIGESTS_FILE.read_text())[name]


@dataclass
class CheckResult:
    attempted: int        # grid points or Heisenberg checks
    failed: int
    work: int             # trial-steps for campaigns, checks for heisenberg-check
    censored: int = 0
    trials: int = 0
    problems: list[str] = field(default_factory=list)


def trial_steps(row: dict, max_steps: int) -> int:
    """Sum over trials of min(flip time, max_steps), from a JSON campaign row."""
    hist = row["histogram"]
    return sum(int(t) * count for t, count in hist.items()) + row["censored"] * max_steps


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_campaign(config: dict, outputs: dict[str, bytes | None], exit_code: int) -> CheckResult:
    """Consistency of the CSV and JSON outputs with each other and the config."""
    points = len(config["grid"])
    result = CheckResult(points, 0, 0)
    if exit_code != 0:
        result.problems.append(f"campaign exited with code {exit_code}")
    if outputs["csv"] is None or outputs["json"] is None:
        result.problems.append("campaign output missing")
        result.failed = points
        return result
    payload = json.loads(outputs["json"])
    rows = payload["rows"]
    csv_rows = list(csv.DictReader(io.StringIO(outputs["csv"].decode())))
    echoed = payload.get("config", {})
    if (echoed.get("master_seed") != config["seed"] or echoed.get("trials") != config["trials"]
            or echoed.get("max_steps") != config["max_steps"]):
        result.problems.append(f"program did not run the generated config: {echoed}")
    if len(rows) != points or len(csv_rows) != points:
        result.problems.append(f"expected {points} rows, got {len(rows)} JSON / {len(csv_rows)} CSV")
    max_steps = config["max_steps"]
    for row, csv_row in zip(rows, csv_rows):
        if row["error"] is not None:
            result.failed += 1
            result.problems.append(f"row error: {row['error']}")
            continue
        hist = {int(t): count for t, count in row["histogram"].items()}
        observed = sum(hist.values())
        if observed + row["censored"] != row["trials"] or row["trials"] != config["trials"]:
            result.problems.append("histogram and censored count do not add up to the trials")
        if hist and (min(hist) < 1 or max(hist) > max_steps):
            result.problems.append("flip time outside 1..max_steps")
        if observed and not _close(sum(t * c for t, c in hist.items()) / observed, row["mean"]):
            result.problems.append("mean does not match the histogram")
        if (int(csv_row["censored"]) != row["censored"] or int(csv_row["trials"]) != row["trials"]
                or (observed and not _close(float(csv_row["mean"]), row["mean"]))):
            result.problems.append("CSV row disagrees with the JSON row")
        result.work += trial_steps(row, max_steps)
        result.censored += row["censored"]
        result.trials += row["trials"]
    if result.problems:
        result.failed = points
    return result


_CHECK_LINE = re.compile(r"^(q232|qtlv): (PASS|FAIL) ")


def check_heisenberg(outputs: dict[str, bytes | None], exit_code: int) -> CheckResult:
    """Every one of the 12 checks must be reported, and PASS."""
    result = CheckResult(HEISENBERG_CHECKS, 0, HEISENBERG_CHECKS)
    report = outputs["report"]
    lines = report.decode().splitlines() if report is not None else []
    matches = [_CHECK_LINE.match(line) for line in lines]
    if len(lines) != HEISENBERG_CHECKS or not all(matches):
        result.problems.append(f"expected {HEISENBERG_CHECKS} check lines, got {len(lines)}")
        result.failed = HEISENBERG_CHECKS
        return result
    result.failed = sum(m.group(2) == "FAIL" for m in matches)
    result.problems += [line for line, m in zip(lines, matches) if m.group(2) == "FAIL"]
    if exit_code != 0 and result.failed == 0:
        result.problems.append(f"heisenberg-check exited with code {exit_code}")
        result.failed = HEISENBERG_CHECKS
    return result


def check_outputs(workload: Workload, config: dict, outputs: dict[str, bytes | None],
                  exit_code: int) -> CheckResult:
    if workload.command == "campaign":
        return check_campaign(config, outputs, exit_code)
    return check_heisenberg(outputs, exit_code)
