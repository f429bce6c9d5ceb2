"""One call of one workload in a fresh process; prints one JSON line.

Set-up is timed from before ``import qcadc`` to a validated config on
disk.  The wall time covers only the ``qcadc.cli.main`` call.  With
``--trace 1`` the layer wrappers are installed around that call and the
spans are written next to the outputs.

Run by perfbench/run.py; by hand:

    python3 perfbench/worker.py --workload ca-tlv-tail --seed 7 --trace 0 --out DIR
"""
from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    """Import qcadc from the checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    qcadc = importlib.import_module("qcadc")
    if not Path(qcadc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qcadc was imported from {qcadc.__file__}, not from {SRC}")
    return importlib.import_module("qcadc.cli")


def validate(workload: workloads.Workload, config: dict, cli) -> None:
    """Reject a config the program would refuse, before anything is timed."""
    if workload.command != "campaign":
        return
    from qcadc.experiments import CampaignConfig
    grid = tuple((int(n), cli.parse_probability(str(p))) for n, p in config["grid"])
    CampaignConfig(config["backend"], config["scheme"], grid, config.get("noise", "bitflip"),
                   config["trials"], config["seed"], config["max_steps"], config["output"])


def run(name: str, seed: int, trace: bool, out_dir: Path) -> dict:
    workload = workloads.WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    output = out_dir / ("out" if workload.command == "campaign" else "report.txt")
    files = workloads.output_files(workload, output)
    for path in files.values():
        path.unlink(missing_ok=True)

    start = time.perf_counter()
    cli = import_program()
    config = workloads.config_for(workload, seed, output)
    validate(workload, config, cli)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    setup_s = time.perf_counter() - start

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        exit_code = cli.main(workloads.cli_args(workload, config_path))
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = {label: path.read_bytes() if path.is_file() else None
               for label, path in files.items()}
    check = workloads.check_outputs(workload, config, outputs, exit_code)
    import numpy
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "exit_code": exit_code,
        "peak_rss_mb": peak_rss_mb,
        "digests": {label: workloads.digest(data) if data is not None else None
                    for label, data in outputs.items()},
        "check": vars(check),
        "numpy": numpy.__version__, "python": platform.python_version(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["experiments.censored_fraction"] = check.censored / max(check.trials, 1)
        layers["trace.wall_s"] = wall_s
        result["layers"] = layers
        tracer.write(out_dir / "spans.json")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, bool(args.trace), args.out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
