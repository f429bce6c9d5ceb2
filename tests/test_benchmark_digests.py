"""Every benchmark workload's seed-7 outputs, byte for byte against perfbench/digests.json.

Each workload's config goes through ``qcadc.cli.main`` in process and
untimed, as perfbench/worker.py runs it, so an output change fails here
before a benchmark run does.  Only reads perfbench/.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from qcadc.cli import main  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_match_the_recorded_digests(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    output = tmp_path / ("out" if workload.command == "campaign" else "report.txt")
    config = workloads.config_for(workload, workloads.DEFAULT_SEED, output)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(workloads.cli_args(workload, config_path)) == 0
    digests = {label: workloads.digest(path.read_bytes())
               for label, path in workloads.output_files(workload, output).items()}
    assert digests == workloads.stored_digests(name, workloads.DEFAULT_SEED)
