"""Command-line interface.

Subcommands cover classical orbits, flip-time Monte Carlo, quantum-circuit
trajectory runs, the global-voting closed forms, the locality checks, the
all-rules audit, the flip-time fit, and full campaigns.  Flags can also be
supplied through a JSON config file (--config); explicit flags win.
Probabilities accept decimals or exact fractions like 11/72.

Exit codes: 0 success, 1 invalid arguments, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import ca, experiments, heisenberg, reversible, voting
from .circuits import build_step, circuit_to_text, decompose_toffoli


class CliError(Exception):
    """Invalid input; reported as one line on stderr with exit code 1."""


def parse_probability(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse probability {text!r}: {exc}") from None


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < JSON config file < explicit flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _rule_kind(text: str) -> ca.RuleKind:
    if text == "tlv":
        return "tlv"
    try:
        code = int(text)
    except ValueError:
        raise CliError(f"rule must be 'tlv' or a Wolfram code 0..255, got {text!r}") from None
    if not 0 <= code <= 255:
        raise CliError(f"Wolfram code out of range: {code}")
    return code


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_ca_orbit(args) -> int:
    opts = _merge_config(args, dict(rule="232", n=12, p="0.1", steps=40, seed=0,
                                    trial=0, output=None))
    rule = _rule_kind(str(opts["rule"]))
    p = parse_probability(str(opts["p"]))
    orbit = ca.noisy_orbit(rule, int(opts["n"]), p, int(opts["steps"]),
                           int(opts["seed"]), int(opts["trial"]))
    _write_output("\n".join(ca.orbit_lines(orbit)) + "\n", opts["output"])
    return 0


def _stats_text(rows: list[experiments.CampaignRow], fmt: str,
                config: experiments.CampaignConfig | None = None) -> str:
    if fmt == "json":
        return experiments.rows_to_json(rows, config)
    return experiments.rows_to_csv(rows)


def _cmd_flip_time(args) -> int:
    opts = _merge_config(args, dict(rule="tlv", n=12, p="11/72", trials=10000, seed=0,
                                    max_steps=1_000_000, output=None, format="csv"))
    rule = _rule_kind(str(opts["rule"]))
    p = parse_probability(str(opts["p"]))
    n = int(opts["n"])
    if rule == "tlv" and n % 2:
        raise CliError("two-line voting needs an even total cell count")
    stats = ca.flip_time_stats(n, rule, p, int(opts["trials"]), int(opts["seed"]),
                               int(opts["max_steps"]))
    scheme = "tlv" if rule == "tlv" else str(rule)
    row = experiments.CampaignRow(scheme, "ca", "bitflip", n, p, 0,
                                  int(opts["trials"]), stats.max_steps_hit,
                                  stats.mean, stats.stddev, stats.stderr,
                                  histogram=stats.histogram)
    _write_output(_stats_text([row], opts["format"]), opts["output"])
    return 0


def _cmd_qca_run(args) -> int:
    opts = _merge_config(args, dict(scheme="qtlv", n=8, p="1/12", noise="incoherent",
                                    trials=100, seed=0, max_steps=10_000, phi=None,
                                    output=None, format="csv", dump_circuit=None,
                                    decompose=False))
    scheme = str(opts["scheme"])
    if scheme not in ("q232", "qtlv"):
        raise CliError(f"scheme must be q232 or qtlv, got {scheme!r}")
    n = int(opts["n"])
    if n % 2:
        raise CliError("quantum runs need an even cell count")
    trials = int(opts["trials"])
    if opts["dump_circuit"] is not None:
        circuit = build_step(scheme, n)
        if opts["decompose"]:
            circuit = decompose_toffoli(circuit)
        _write_output(circuit_to_text(circuit), opts["dump_circuit"])
        if trials == 0:
            return 0
    if trials < 1:
        raise CliError("need at least one trial")
    noise_kind = str(opts["noise"])
    p = parse_probability(str(opts["p"]))
    phi = None if opts["phi"] is None else float(opts["phi"])
    row_scheme = "232" if scheme == "q232" else "tlv"
    times = experiments._qca_flip_times(row_scheme, n, p, noise_kind, trials,
                                        int(opts["seed"]), int(opts["max_steps"]), phi)
    stats = ca.summarize_flip_times(times)
    row = experiments.CampaignRow(row_scheme, "qca", noise_kind, n, p, 0, trials,
                                  stats.max_steps_hit, stats.mean, stats.stddev,
                                  stats.stderr, histogram=stats.histogram)
    _write_output(_stats_text([row], opts["format"]), opts["output"])
    return 0


def _cmd_global_voting(args) -> int:
    opts = _merge_config(args, dict(n=10, p="0.1", delta=0, output=None, format="csv"))
    p_fraction = Fraction(str(opts["p"]))
    params = voting.VotingParams(int(opts["n"]), p_fraction, int(opts["delta"]))
    result = voting.mean_flip_time(params)
    values = dict(p=float(p_fraction), n=params.n, delta=params.delta,
                  P=float(result.probability), T_F_periods=float(result.periods),
                  T_F_steps=float(result.steps))
    if opts["format"] == "json":
        text = json.dumps(values, indent=2) + "\n"
    else:
        text = ",".join(values) + "\n" + ",".join(f"{v:.10g}" for v in values.values()) + "\n"
    _write_output(text, opts["output"])
    return 0


def _cmd_heisenberg_check(args) -> int:
    opts = _merge_config(args, dict(scheme="both", output=None))
    schemes = ("q232", "qtlv") if opts["scheme"] == "both" else (str(opts["scheme"]),)
    lines = []
    all_passed = True
    for scheme in schemes:
        for result in heisenberg.heisenberg_report(scheme):
            status = "PASS" if result.passed else "FAIL"
            all_passed = all_passed and result.passed
            lines.append(f"{scheme}: {status} {result.name} ({result.detail})")
    _write_output("\n".join(lines) + "\n", opts["output"])
    return 0 if all_passed else 2


def _cmd_rules_audit(args) -> int:
    opts = _merge_config(args, dict(output=None))
    lines = ["code,self_dual,permutation_ok"]
    for code, self_dual, perm_ok in reversible.audit_all_rules():
        lines.append(f"{code},{str(self_dual).lower()},{str(perm_ok).lower()}")
    _write_output("\n".join(lines) + "\n", opts["output"])
    return 0


def _cmd_fit_eval(args) -> int:
    opts = _merge_config(args, dict(p="1/10", n=12, constants=None, output=None))
    p = parse_probability(str(opts["p"]))
    params = experiments.DEFAULT_FIT
    if opts["constants"]:
        params = experiments.FitParams(**{**params.__dict__, **dict(opts["constants"])})
    value = experiments.evaluate_fit(p, int(opts["n"]), params)
    _write_output(f"{value:.10g}\n", opts["output"])
    return 0


def _cmd_campaign(args) -> int:
    opts = _merge_config(args, dict(backend="ca", scheme="tlv", grid=None,
                                    noise=None, trials=1000, seed=0,
                                    max_steps=1_000_000, output=None, workers=None))
    if not opts["grid"]:
        raise CliError("a campaign needs a grid of [n, p] points (config key 'grid')")
    grid = tuple((int(n), parse_probability(str(p))) for n, p in opts["grid"])
    noise = opts["noise"] or ("bitflip" if opts["backend"] == "ca" else "incoherent")
    try:
        config = experiments.CampaignConfig(str(opts["backend"]), str(opts["scheme"]),
                                            grid, noise, int(opts["trials"]),
                                            int(opts["seed"]), int(opts["max_steps"]),
                                            opts["output"])
    except ValueError as exc:
        raise CliError(str(exc)) from None
    workers = int(opts["workers"]) if opts["workers"] is not None else None
    rows = experiments.run_campaign(config, workers)
    if config.output:
        with open(config.output + ".csv", "w") as fh:
            fh.write(experiments.rows_to_csv(rows))
        with open(config.output + ".json", "w") as fh:
            fh.write(experiments.rows_to_json(rows, config))
        with open(config.output + ".meta.json", "w") as fh:
            json.dump({"finished_at": time.strftime("%Y-%m-%dT%H:%M:%S")}, fh)
            fh.write("\n")
    else:
        sys.stdout.write(experiments.rows_to_csv(rows))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcadc",
        description="Density-classifying cellular automata and their "
                    "quantum-circuit counterparts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file with default values for the flags")
        p.add_argument("--output", help="write the primary output to this file")
        return p

    p = add("ca-orbit", _cmd_ca_orbit,
            "Dump a noisy classical orbit, one 0/1 line per step "
            "(two-line voting rows as upper|lower).")
    p.add_argument("--rule", "--scheme", help="Wolfram code 0..255 or 'tlv'")
    p.add_argument("--n", type=int, help="total cell count")
    p.add_argument("--p", help="per-cell per-step flip probability")
    p.add_argument("--steps", type=int, help="number of noise+rule steps")
    p.add_argument("--seed", type=int)
    p.add_argument("--trial", type=int, help="trial index within the noise stream")

    p = add("flip-time", _cmd_flip_time,
            "Monte Carlo mean flip time of a classical rule: steps until a "
            "strict majority of cells reads 1, starting from all-0.")
    p.add_argument("--rule", "--scheme", help="Wolfram code 0..255 or 'tlv'")
    p.add_argument("--n", type=int)
    p.add_argument("--p", help="flip probability (decimal or fraction like 11/72)")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--format", choices=("csv", "json"))

    p = add("qca-run", _cmd_qca_run,
            "Trajectory flip times of the quantized rules on 2n qubits under "
            "incoherent/coherent bit-flip or per-gate depolarizing noise.")
    p.add_argument("--scheme", choices=("q232", "qtlv"))
    p.add_argument("--n", type=int, help="cells per time slice (even)")
    p.add_argument("--p", help="noise strength")
    p.add_argument("--noise", choices=("incoherent", "coherent", "depolarizing", "none"))
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--phi", type=float, help="fixed logical angle (default: sampled)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--dump-circuit", dest="dump_circuit",
                   help="write the step circuit as a plain-text gate list")
    p.add_argument("--decompose", action="store_true",
                   help="dump with Toffolis decomposed into 1- and 2-qubit gates")

    p = add("global-voting", _cmd_global_voting,
            "Closed-form repetition-code baseline: per-cell flip probability, "
            "logical flip probability and mean flip time at readout delay delta.")
    p.add_argument("--n", type=int)
    p.add_argument("--p")
    p.add_argument("--delta", type=int, help="readout delay in CA steps")
    p.add_argument("--format", choices=("csv", "json"))

    p = add("heisenberg-check", _cmd_heisenberg_check,
            "Verify locality and invariance of the quantized rules by "
            "conjugating Paulis through finite-window unitaries.")
    p.add_argument("--scheme", choices=("q232", "qtlv", "both"))

    add("rules-audit", _cmd_rules_audit,
        "CSV audit of all 256 elementary rules: self-duality and "
        "reversible-extension bijectivity.")

    p = add("fit-eval", _cmd_fit_eval,
            "Evaluate the closed-form two-line-voting flip-time fit at (p, n).")
    p.add_argument("--p")
    p.add_argument("--n", type=int)

    p = add("campaign", _cmd_campaign,
            "Run a flip-time sweep over an (n, p) grid and emit CSV/JSON rows.")
    p.add_argument("--backend", choices=("ca", "qca"))
    p.add_argument("--scheme", choices=("232", "tlv"))
    p.add_argument("--noise")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--workers", type=int, help="grid-point worker processes "
                   "(default: QCADC_WORKERS or 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
