"""Command-line interface.

Subcommands cover classical orbits, flip-time Monte Carlo, quantum-circuit
trajectory runs, the global-voting closed forms, the locality checks, the
all-rules audit, the flip-time fit, and full campaigns.  Each flag carries
its default; a JSON config file (--config) replaces those defaults and
explicit flags still win.  Probabilities accept decimals or exact fractions
like 11/72.  global-voting prints each exact value as a float unless it lies
outside the float range; then it prints from the Fraction, so only P = 0
gives an infinite flip time.

Exit codes: 0 success, 1 invalid arguments, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import decimal
import json
import sys
import time
from fractions import Fraction

from . import ca, experiments, heisenberg, reversible, voting
from .circuits import build_step, circuit_to_text, decompose_toffoli


class CliError(Exception):
    """Invalid input; reported as one line on stderr with exit code 1."""


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse probability {text!r}: {exc}") from None


def parse_probability(text: str) -> float:
    return float(parse_fraction(text))


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _config_value(key: str, value, action: argparse.Action):
    """``value`` checked with the type and choices of the flag ``action``."""
    try:
        if isinstance(value, bool) != (action.nargs == 0) or not isinstance(value, (str, int, float)):
            raise ValueError  # a store_true flag takes a bool, any other flag a string or number
        checked = value if action.nargs == 0 else (action.type or str)(str(value))
        if action.choices is not None and checked not in action.choices:
            raise ValueError
    except ValueError:
        wanted = ("true or false" if action.nargs == 0 else " or ".join(map(str, action.choices))
                  if action.choices else (action.type or str).__name__)
        raise CliError(f"config key {key!r} takes {wanted}, got {value!r}") from None
    return checked


def _load_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the JSON object in ``path`` the defaults of ``parser``; a null keeps the default."""
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise CliError(f"config file must hold a JSON object of flag values, "
                       f"got {type(loaded).__name__}")
    flags = {action.dest: action for action in parser._actions}
    # Parser internals are not config keys: set_defaults(func=...) would replace the command.
    known = (set(flags) | set(parser._defaults)) - {"help", "config", "func", "command_parser"}
    unknown = set(loaded) - known
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    parser.set_defaults(**{key: _config_value(key, value, flags[key]) if key in flags else value
                           for key, value in loaded.items() if value is not None})


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
    rule = _rule_kind(args.rule)
    p = parse_probability(args.p)
    orbit = ca.noisy_orbit(rule, args.n, p, args.steps, args.seed, args.trial)
    _write_output("\n".join(ca.orbit_lines(rule, orbit)) + "\n", args.output)
    return 0


def _stats_text(rows: list[experiments.CampaignRow], fmt: str,
                config: experiments.CampaignConfig | None = None) -> str:
    if fmt == "json":
        return experiments.rows_to_json(rows, config)
    return experiments.rows_to_csv(rows)


def _cmd_flip_time(args) -> int:
    rule = _rule_kind(args.rule)
    p = parse_probability(args.p)
    row = experiments.point_row("ca", str(rule), "bitflip", args.n, p, args.trials, args.seed,
                                args.max_steps)
    _write_output(_stats_text([row], args.format), args.output)
    return 0


def _cmd_qca_run(args) -> int:
    if args.dump_circuit is not None:
        circuit = build_step(args.scheme, args.n)
        if args.decompose:
            circuit = decompose_toffoli(circuit)
        _write_output(circuit_to_text(circuit), args.dump_circuit)
        if args.trials == 0:
            return 0
    if args.trials < 1:
        raise CliError("need at least one trial")
    p = parse_probability(args.p)
    row = experiments.point_row("qca", "232" if args.scheme == "q232" else "tlv", args.noise,
                                args.n, p, args.trials, args.seed, args.max_steps, args.phi)
    _write_output(_stats_text([row], args.format), args.output)
    return 0


def _cmd_global_voting(args) -> int:
    p = parse_fraction(args.p)
    result = voting.mean_flip_time(voting.VotingParams(args.n, p, args.delta))
    values = dict(p=p, n=args.n, delta=args.delta, P=result.probability,
                  T_F_periods=result.periods, T_F_steps=result.steps)
    tokens = {key: _number_token(value, args.format) for key, value in values.items()}
    if args.format == "json":
        text = "{\n" + ",\n".join(f'  "{key}": {v}' for key, v in tokens.items()) + "\n}\n"
    else:
        text = ",".join(tokens) + "\n" + ",".join(tokens.values()) + "\n"
    _write_output(text, args.output)
    return 0


def _number_token(value, fmt: str) -> str:
    """``value`` printed as CSV ``.10g`` or a JSON number (null for inf), ints as ints.

    A nonzero Fraction outside the normal float range, which float() would
    round to 0 or refuse, prints exactly in ``.10g`` style at any exponent.
    """
    exact = isinstance(value, Fraction) and value != 0
    if exact and not sys.float_info.min <= value <= sys.float_info.max:
        context = decimal.Context(prec=10, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
        quotient = context.divide(value.numerator, value.denominator)
        return f"{quotient.normalize(context):.10g}"
    number = value if isinstance(value, int) else float(value)
    if fmt == "json":
        return json.dumps(experiments.finite_or_none(number), allow_nan=False)
    return f"{number:.10g}"


def _cmd_heisenberg_check(args) -> int:
    schemes = ("q232", "qtlv") if args.scheme == "both" else (args.scheme,)
    lines = []
    all_passed = True
    for scheme in schemes:
        for result in heisenberg.heisenberg_report(scheme):
            status = "PASS" if result.passed else "FAIL"
            all_passed = all_passed and result.passed
            lines.append(f"{scheme}: {status} {result.name} ({result.detail})")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0 if all_passed else 2


def _cmd_rules_audit(args) -> int:
    lines = ["code,self_dual,permutation_ok"]
    for code, self_dual, perm_ok in reversible.audit_all_rules():
        lines.append(f"{code},{str(self_dual).lower()},{str(perm_ok).lower()}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_fit_eval(args) -> int:
    value = experiments.evaluate_fit(parse_probability(args.p), args.n)
    _write_output(f"{value:.10g}\n", args.output)
    return 0


def _cmd_campaign(args) -> int:
    points = args.grid
    if not points:
        raise CliError("a campaign needs a grid of [n, p] points (config key 'grid')")
    if not isinstance(points, list) or not all(
            isinstance(point, list) and len(point) == 2 and type(point[0]) is int
            for point in points):
        raise CliError(f"config key 'grid' must be a list of [n, p] points, got {points!r}")
    grid = tuple((n, parse_probability(str(p))) for n, p in points)
    noise = args.noise or ("bitflip" if args.backend == "ca" else "incoherent")
    config = experiments.CampaignConfig(args.backend, args.scheme, grid, noise, args.trials,
                                        args.seed, args.max_steps, args.output)
    rows = experiments.run_campaign(config)
    for row in rows:
        if row.error is not None:
            print(f"error at grid point n = {row.n}, p = {row.p}: {row.error}", file=sys.stderr)
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
        p = sub.add_parser(name, help=help_text, description=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func, command_parser=p)
        p.add_argument("--config", help="JSON file with default values for the flags")
        p.add_argument("--output", help="write the primary output to this file")
        return p

    p = add("ca-orbit", _cmd_ca_orbit,
            "Dump a noisy classical orbit, one 0/1 line per step "
            "(two-line voting rows as upper|lower).")
    p.add_argument("--rule", "--scheme", default="232", help="Wolfram code 0..255 or 'tlv'")
    p.add_argument("--n", type=int, default=12, help="total cell count")
    p.add_argument("--p", default="0.1", help="per-cell per-step flip probability")
    p.add_argument("--steps", type=int, default=40, help="number of noise+rule steps")
    p.add_argument("--seed", type=int, default=0, help="master seed of the noise stream")
    p.add_argument("--trial", type=int, default=0, help="trial index within the noise stream")

    p = add("flip-time", _cmd_flip_time,
            "Monte Carlo mean flip time of a classical rule: steps until a "
            "strict majority of cells reads 1, starting from all-0.")
    p.add_argument("--rule", "--scheme", default="tlv", help="Wolfram code 0..255 or 'tlv'")
    p.add_argument("--n", type=int, default=12, help="total cell count")
    p.add_argument("--p", default="11/72", help="per-cell per-step flip probability")
    p.add_argument("--trials", type=int, default=10000, help="Monte Carlo trials")
    p.add_argument("--seed", type=int, default=0, help="master seed of the noise stream")
    p.add_argument("--max-steps", type=int, default=1_000_000,
                   help="censor a trial still unflipped after this many steps")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="row format")

    p = add("qca-run", _cmd_qca_run,
            "Trajectory flip times of the quantized rules on 2n qubits under "
            "incoherent/coherent bit-flip or per-gate depolarizing noise.")
    p.add_argument("--scheme", choices=("q232", "qtlv"), default="qtlv", help="quantized rule")
    p.add_argument("--n", type=int, default=8, help="cells per time slice (even)")
    p.add_argument("--p", default="1/12", help="noise strength")
    p.add_argument("--noise", choices=("incoherent", "coherent", "depolarizing", "none"),
                   default="incoherent", help="noise model")
    p.add_argument("--trials", type=int, default=100, help="trajectories")
    p.add_argument("--seed", type=int, default=0, help="master seed of the trajectories")
    p.add_argument("--max-steps", type=int, default=10_000,
                   help="censor a trajectory still unflipped after this many steps")
    p.add_argument("--phi", type=float,
                   help="fixed logical angle; unset samples one per trajectory")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="row format")
    p.add_argument("--dump-circuit", help="write the step circuit as a plain-text gate list")
    p.add_argument("--decompose", action="store_true",
                   help="dump with Toffolis decomposed into 1- and 2-qubit gates")

    p = add("global-voting", _cmd_global_voting,
            "Closed-form repetition-code baseline: per-cell flip probability, "
            "logical flip probability and mean flip time at readout delay delta.")
    p.add_argument("--n", type=int, default=10, help="total cell count")
    p.add_argument("--p", default="0.1", help="per-cell per-step flip probability")
    p.add_argument("--delta", type=int, default=0, help="readout delay in CA steps")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="row format")

    p = add("heisenberg-check", _cmd_heisenberg_check,
            "Verify locality and invariance of the quantized rules by "
            "conjugating Paulis through finite-window unitaries.")
    p.add_argument("--scheme", choices=("q232", "qtlv", "both"), default="both",
                   help="quantized rule to check")

    add("rules-audit", _cmd_rules_audit,
        "CSV audit of all 256 elementary rules: self-duality and "
        "reversible-extension bijectivity.")

    p = add("fit-eval", _cmd_fit_eval,
            "Evaluate the closed-form two-line-voting flip-time fit at (p, n).")
    p.add_argument("--p", default="1/10", help="per-cell per-step flip probability")
    p.add_argument("--n", type=int, default=12, help="total cell count")

    p = add("campaign", _cmd_campaign,
            "Run a flip-time sweep over an (n, p) grid and emit CSV/JSON rows.")
    p.set_defaults(grid=None)  # config key only: a list of [n, p] points
    p.add_argument("--backend", choices=("ca", "qca"), default="ca", help="simulator")
    p.add_argument("--scheme", choices=("232", "tlv"), default="tlv", help="rule")
    p.add_argument("--noise", help="noise model; unset means bitflip on ca, incoherent on qca")
    p.add_argument("--trials", type=int, default=1000, help="trials per grid point")
    p.add_argument("--seed", type=int, default=0, help="master seed of the campaign")
    p.add_argument("--max-steps", type=int, default=1_000_000,
                   help="censor a trial still unflipped after this many steps")
    p.add_argument("--workers", type=int, choices=(1,), default=1,
                   help="grid points run in order in one process; only 1 is accepted")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.config is not None:
            _load_config(args.command_parser, args.config)
            args = parser.parse_args(argv)  # explicit flags win over the config's defaults
        return args.func(args)
    except (CliError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
