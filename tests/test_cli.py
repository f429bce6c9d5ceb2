"""Command-line interface: subcommands, exit codes, determinism, config merge."""
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qcadc import experiments, voting
from qcadc.cli import build_parser, main, parse_probability


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_probability_fractions():
    assert parse_probability("11/72") == pytest.approx(11 / 72)
    assert parse_probability("0.25") == 0.25
    with pytest.raises(Exception):
        parse_probability("abc")


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1


def test_bad_probability_exits_1(capsys):
    code, _, err = run_cli(capsys, "flip-time", "--rule", "tlv", "--n", "8",
                           "--p", "nope", "--trials", "10")
    assert code == 1
    assert "error:" in err


def test_odd_n_for_tlv_exits_1(capsys):
    code, _, err = run_cli(capsys, "flip-time", "--rule", "tlv", "--n", "7",
                           "--p", "0.1", "--trials", "10")
    assert code == 1 and "even" in err


def test_flip_time_csv_and_determinism(capsys):
    args = ("flip-time", "--rule", "tlv", "--n", "10", "--p", "1/5",
            "--trials", "200", "--seed", "3")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    header, row = out1.strip().split("\n")
    assert header.startswith("scheme,backend,noise,n,p,delta,trials")
    fields = row.split(",")
    assert fields[0] == "tlv" and fields[3] == "10" and fields[6] == "200"


def test_flip_time_json_format(capsys):
    code, out, _ = run_cli(capsys, "flip-time", "--rule", "232", "--n", "8",
                           "--p", "0.2", "--trials", "50", "--seed", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["backend"] == "ca"


def test_global_voting_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "global-voting", "--n", "10", "--p", "0.1",
                           "--delta", "1")
    assert code == 0
    header, row = out.strip().split("\n")
    values = dict(zip(header.split(","), row.split(",")))
    result = voting.mean_flip_time(voting.VotingParams(10, 0.1, 1))
    assert float(values["P"]) == pytest.approx(float(result.probability), rel=1e-9)
    assert float(values["T_F_periods"]) == pytest.approx(float(result.periods), rel=1e-9)
    assert float(values["T_F_steps"]) == pytest.approx(float(result.steps), rel=1e-9)


def test_global_voting_prints_a_flip_time_past_the_float_range(capsys):
    code, out, err = run_cli(capsys, "global-voting", "--n", "1400", "--p", "0.1")
    assert code == 0, err
    values = dict(zip(*(line.split(",") for line in out.splitlines())))
    assert values["T_F_periods"] == values["T_F_steps"] == "2.909008731e+312"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_global_voting_prints_a_probability_below_the_float_range(capsys, fmt):
    code, out, err = run_cli(capsys, "global-voting", "--n", "10000", "--p", "0.1",
                             "--format", fmt)
    assert code == 0, err
    if fmt == "csv":
        values = dict(zip(*(line.split(",") for line in out.splitlines())))
    else:
        values = json.loads(out, parse_float=str)  # bare numbers
    assert values["P"] == "1.622888329e-2221"
    assert values["T_F_periods"] == values["T_F_steps"] == "6.161853418e+2220"


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_output_is_strict_for_non_finite_values(capsys):
    # every trial is censored, so the row has no mean
    code, out, err = run_cli(capsys, "flip-time", "--rule", "tlv", "--n", "20", "--p", "0.01",
                             "--trials", "3", "--max-steps", "5", "--format", "json")
    assert code == 0, err
    row = _strict_json(out)["rows"][0]
    assert row["censored"] == 3 and row["mean"] is row["stddev"] is row["stderr"] is None
    # no flip ever happens, so the flip time is infinite
    code, out, err = run_cli(capsys, "global-voting", "--n", "10", "--p", "0", "--format", "json")
    assert code == 0, err
    values = _strict_json(out)
    assert values["P"] == 0.0 and values["T_F_periods"] is values["T_F_steps"] is None


@pytest.mark.parametrize("p", ["1/0", "nope"])
def test_global_voting_refuses_an_unparseable_probability(capsys, p):
    code, out, err = run_cli(capsys, "global-voting", "--n", "10", "--p", p)
    assert code == 1 and out == ""
    assert f"cannot parse probability {p!r}" in err


def test_rules_audit(capsys):
    code, out, _ = run_cli(capsys, "rules-audit")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 257
    row_232 = lines[1 + 232].split(",")
    assert row_232 == ["232", "true", "true"]
    row_184 = lines[1 + 184].split(",")
    assert row_184 == ["184", "false", "true"]


def test_fit_eval(capsys):
    code, out, _ = run_cli(capsys, "fit-eval", "--p", "11/72", "--n", "12")
    assert code == 0
    assert float(out) == pytest.approx(27.416, rel=1e-3)


def test_heisenberg_check_q232(capsys):
    code, out, _ = run_cli(capsys, "heisenberg-check", "--scheme", "q232")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_ca_orbit_format(capsys):
    code, out, _ = run_cli(capsys, "ca-orbit", "--rule", "tlv", "--n", "8",
                           "--p", "0.3", "--steps", "4", "--seed", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5 and all("|" in line for line in lines)


def test_qca_run_and_circuit_dump(tmp_path, capsys):
    dump = tmp_path / "circuit.txt"
    code, out, _ = run_cli(capsys, "qca-run", "--scheme", "q232", "--n", "4",
                           "--p", "0.3", "--noise", "incoherent", "--trials", "20",
                           "--seed", "5", "--max-steps", "500",
                           "--dump-circuit", str(dump))
    assert code == 0
    text = dump.read_text()
    assert text.startswith("LAYER 0 | GATE TOFFOLI")
    assert out.splitlines()[1].split(",")[1] == "qca"


def test_qca_run_decomposed_dump(tmp_path, capsys):
    dump = tmp_path / "decomposed.txt"
    code, _, _ = run_cli(capsys, "qca-run", "--scheme", "qtlv", "--n", "4",
                         "--trials", "0", "--dump-circuit", str(dump), "--decompose")
    assert code == 0
    assert "TOFFOLI" not in dump.read_text()


@pytest.mark.parametrize("decompose, lines", [(True, 184), (False, 16)])
def test_qca_run_reads_decompose_from_the_config(tmp_path, capsys, decompose, lines):
    config, dump = tmp_path / "cfg.json", tmp_path / "circuit.txt"
    config.write_text(json.dumps({"scheme": "q232", "n": 4, "decompose": decompose}))
    code, _, _ = run_cli(capsys, "qca-run", "--config", str(config),
                         "--dump-circuit", str(dump), "--trials", "0")
    assert code == 0
    assert len(dump.read_text().splitlines()) == lines
    assert ("TOFFOLI" in dump.read_text()) != decompose


@pytest.mark.parametrize("noise", ["none", "incoherent", "coherent", "depolarizing"])
def test_qca_run_refuses_p_outside_unit_interval(capsys, noise):
    code, out, err = run_cli(capsys, "qca-run", "--scheme", "q232", "--n", "4",
                             "--noise", noise, "--p", "1.5", "--trials", "2")
    assert code == 1 and out == ""
    assert "noise strength must lie in [0, 1], got 1.5" in err


def test_qca_run_refuses_zero_trials_without_a_circuit_dump(capsys):
    code, out, err = run_cli(capsys, "qca-run", "--scheme", "q232", "--n", "4",
                             "--noise", "none", "--trials", "0")
    assert code == 1 and out == ""
    assert "need at least one trial" in err


@pytest.mark.parametrize("phi", ["2.0", "-0.8", "0.7853981633974483"])
def test_qca_run_refuses_a_logical_angle_outside_pi_over_4(capsys, phi):
    code, out, err = run_cli(capsys, "qca-run", "--scheme", "qtlv", "--n", "4",
                             "--noise", "coherent", "--p", "0.1", "--trials", "2",
                             "--phi", phi)
    assert code == 1 and out == ""
    assert "|phi| < pi/4" in err


@pytest.mark.parametrize("noise, n, code", [("coherent", "30", 1), ("depolarizing", "64", 0),
                                           ("depolarizing", "40000", 1), ("incoherent", "64", 0)])
def test_qca_run_refuses_a_stepper_over_the_memory_budget(capsys, noise, n, code):
    # A depolarizing stepper holds two 2n-bit indices, so only its n^2 gate masks count.
    got, out, err = run_cli(capsys, "qca-run", "--scheme", "qtlv", "--n", n, "--noise", noise,
                            "--p", "0.3", "--trials", "2", "--max-steps", "20")
    assert got == code
    if code:
        assert out == "" and f"a stepper on n = {n} cells needs ~" in err
    else:
        assert out.splitlines()[1].startswith(f"tlv,qca,{noise},{n},0.3,0,2,")


@pytest.mark.parametrize("max_steps", ["0", "-3"])
def test_qca_run_refuses_non_positive_max_steps(capsys, max_steps):
    code, out, err = run_cli(capsys, "qca-run", "--scheme", "q232", "--n", "4",
                             "--noise", "incoherent", "--p", "0.1", "--trials", "2",
                             "--max-steps", max_steps)
    assert code == 1 and out == ""
    assert "max_steps must be positive" in err


@pytest.mark.parametrize("backend, noise", [("qca", "incoherent"), ("ca", "bitflip")])
def test_campaign_refuses_non_positive_max_steps(tmp_path, capsys, backend, noise):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({"backend": backend, "scheme": "232", "grid": [[4, 0.1]],
                               "noise": noise, "trials": 2, "max_steps": 0}))
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg),
                             "--output", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert "max_steps must be positive" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("p", ["1.5", "-0.5"])
def test_flip_time_refuses_p_outside_unit_interval(capsys, p):
    code, out, err = run_cli(capsys, "flip-time", "--rule", "232", "--n", "5",
                             "--p", p, "--trials", "3")
    assert code == 1 and out == ""
    assert f"flip probability must lie in [0, 1], got {float(p)}" in err


@pytest.mark.parametrize("rule, n", [("232", "0"), ("232", "-4"), ("tlv", "0")])
def test_flip_time_refuses_lattices_without_cells(capsys, rule, n):
    code, out, err = run_cli(capsys, "flip-time", "--rule", rule, "--n", n, "--trials", "3")
    assert code == 1 and out == ""
    assert f"the cell count n must be at least {2 if rule == 'tlv' else 1}, got {n}" in err


@pytest.mark.parametrize("backend, noise, n", [("ca", "bitflip", 0), ("qca", "depolarizing", 2)])
def test_campaign_refuses_lattices_below_the_backend_minimum(tmp_path, capsys, backend,
                                                             noise, n):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({"backend": backend, "scheme": "232", "grid": [[n, "0.1"]],
                               "noise": noise, "trials": 2}))
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg),
                             "--output", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert (f"the cell count n must be at least 1, got {n}" if backend == "ca" else
            f"a quantized rule needs an even cell count >= 4, got {n}") in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-3", "2"])
def test_campaign_accepts_only_one_worker(tmp_path, capsys, workers):
    cfg = tmp_path / "campaign.json"
    campaign = {"backend": "ca", "scheme": "232", "grid": [[4, 0.1]], "trials": 2}
    cfg.write_text(json.dumps(campaign))
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg), "--workers", workers,
                             "--output", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert f"argument --workers: invalid choice: {workers}" in err
    cfg.write_text(json.dumps({**campaign, "workers": int(workers)}))
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg),
                             "--output", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert f"config key 'workers' takes 1, got {workers}" in err
    assert not (tmp_path / "out.csv").exists()


def test_campaign_refuses_odd_tlv_lattices(tmp_path, capsys):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({"backend": "ca", "scheme": "tlv", "grid": [[8, "0.1"], [7, "0.1"]],
                               "trials": 2}))
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg),
                             "--output", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert "two-line voting needs an even total cell count, got 7" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("dump", [False, True])
def test_qca_run_refuses_odd_n(tmp_path, capsys, dump):
    extra = ("--dump-circuit", str(tmp_path / "circuit.txt")) if dump else ()
    code, out, err = run_cli(capsys, "qca-run", "--scheme", "qtlv", "--n", "7",
                             "--trials", "2", *extra)
    assert code == 1 and out == ""
    assert "needs an even cell count >= 4" in err
    assert not (tmp_path / "circuit.txt").exists()


# Orbit dumps recorded from the unpacked orbit engine that ca-orbit used
# before it moved onto the packed kernels.
ORBITS = json.loads((Path(__file__).parent / "data" / "ca_orbits.json").read_text())


@pytest.mark.parametrize("case", ORBITS, ids=[f"{c['rule']}-{c['n']}-{c['p']}" for c in ORBITS])
def test_ca_orbit_dumps_are_pinned(capsys, case):
    code, out, _ = run_cli(capsys, "ca-orbit", "--rule", case["rule"], "--n", str(case["n"]),
                           "--p", case["p"], "--steps", "60", "--seed", "5", "--trial", "3")
    assert code == 0
    assert out == "\n".join(case["lines"]) + "\n"


def test_ca_orbit_refuses_negative_steps(capsys):
    code, out, err = run_cli(capsys, "ca-orbit", "--rule", "232", "--steps", "-3")
    assert code == 1 and out == ""
    assert "steps must be non-negative, got -3" in err


@pytest.mark.parametrize("args, message", [
    (("ca-orbit", "--rule", "232", "--trial", "-1"), "trial index must be non-negative, got -1"),
    (("ca-orbit", "--rule", "tlv", "--seed", "-2"), "seed must be non-negative, got -2"),
    (("flip-time", "--rule", "tlv", "--n", "8", "--trials", "3", "--seed", "-3"),
     "seed must be non-negative, got -3"),
    (("qca-run", "--scheme", "q232", "--n", "4", "--trials", "2", "--seed", "-3"),
     "seed must be non-negative, got -3"),
])
def test_negative_seeds_and_trial_indices_exit_1(capsys, args, message):
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("backend, noise", [("qca", "depolarizing"), ("ca", "bitflip")])
def test_campaign_refuses_a_negative_seed(tmp_path, capsys, backend, noise):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({"backend": backend, "scheme": "232", "grid": [[4, 0.1]],
                               "noise": noise, "trials": 2, "seed": -4}))
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg),
                             "--output", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert "seed must be non-negative, got -4" in err
    assert not (tmp_path / "out.csv").exists()


# The coherent row was recorded from the qca-run trajectory loop before it
# was routed through the campaign's; a sampled angle and a fixed --phi draw
# different amounts from each trajectory's stream.  The incoherent row is
# flip-time's at the same seed.
@pytest.mark.parametrize("args, expected", [
    (("--scheme", "qtlv", "--n", "6", "--p", "1/12", "--noise", "incoherent",
      "--trials", "60", "--seed", "3", "--max-steps", "400"),
     "tlv,qca,incoherent,6,0.08333333333,0,60,0,66.75,61.73854797,7.97041227\n"),
    (("--scheme", "q232", "--n", "6", "--p", "1/8", "--noise", "coherent",
      "--trials", "60", "--seed", "5", "--max-steps", "400", "--phi", "0.3"),
     "232,qca,coherent,6,0.125,0,60,0,21.46666667,18.1551381,2.343818251\n"),
])
def test_qca_run_rows_are_pinned(capsys, args, expected):
    code, out, _ = run_cli(capsys, "qca-run", *args)
    assert code == 0
    assert out == "scheme,backend,noise,n,p,delta,trials,censored,mean,stddev,stderr\n" + expected


def test_incoherent_qca_run_prints_the_flip_time_row(capsys):
    # Incoherent trajectory k is trial k of flip-time at the same seed.
    common = ("--n", "6", "--p", "1/12", "--trials", "60", "--seed", "3", "--max-steps", "400")
    code, qca_out, _ = run_cli(capsys, "qca-run", "--scheme", "qtlv", "--noise", "incoherent",
                               *common)
    assert code == 0
    code, ca_out, _ = run_cli(capsys, "flip-time", "--rule", "tlv", *common)
    assert code == 0
    qca_row, ca_row = qca_out.splitlines()[1].split(","), ca_out.splitlines()[1].split(",")
    assert qca_row[1:3] == ["qca", "incoherent"] and ca_row[1:3] == ["ca", "bitflip"]
    assert qca_row[3:] == ca_row[3:]
    assert qca_row[-3:] == ["66.75", "61.73854797", "7.97041227"]


def test_config_file_merge_flags_win(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"rule": "232", "n": 8, "p": "0.3", "trials": 30,
                                  "seed": 4}))
    code, out_cfg, _ = run_cli(capsys, "flip-time", "--config", str(config))
    assert code == 0
    code, out_override, _ = run_cli(capsys, "flip-time", "--config", str(config),
                                    "--trials", "60")
    assert code == 0
    assert out_cfg.splitlines()[1].split(",")[6] == "30"
    assert out_override.splitlines()[1].split(",")[6] == "60"


def config_case(label, command, loaded, message):
    """A case whose id its label fixes, so adding or deleting a case renames no other."""
    return pytest.param(command, loaded, message, id=f"{command}-{label}-{message}")


# The first thirteen labels are the positional ids these cases were first listed under.
@pytest.mark.parametrize("command, loaded, message", [
    config_case("loaded0", "fit-eval", {"constants": {"a1": 2.0}},
                "unknown config keys: ['constants']"),
    config_case("loaded1", "fit-eval", {"p": [0.1]}, "config key 'p' takes str, got [0.1]"),
    config_case("loaded2", "campaign", {"grid": [[4, "abc"]]}, "cannot parse probability 'abc'"),
    config_case("loaded3", "campaign", {"grid": 5},
                "config key 'grid' must be a list of [n, p] points, got 5"),
    config_case("loaded4", "campaign", {"grid": [[4, "0.1", 3]]},
                "config key 'grid' must be a list of [n, p] points"),
    config_case("loaded5", "flip-time", [1, 2],
                "config file must hold a JSON object of flag values, got list"),
    # Each value goes through its flag's type and choices, and a bool flag takes a bool.
    config_case("loaded6", "flip-time", {"format": "xml"},
                "config key 'format' takes csv or json, got 'xml'"),
    config_case("loaded7", "flip-time", {"n": "abc"}, "config key 'n' takes int, got 'abc'"),
    config_case("loaded8", "flip-time", {"trials": 2.9, "seed": True},
                "config key 'trials' takes int, got 2.9"),
    config_case("loaded9", "flip-time", {"seed": True}, "config key 'seed' takes int, got True"),
    config_case("loaded10", "campaign",
                {"backend": "qca", "scheme": "tlv", "grid": [[8.7, "1/12"]]},
                "config key 'grid' must be a list of [n, p] points, got [[8.7, '1/12']]"),
    config_case("loaded11", "qca-run", {"decompose": "no", "dump_circuit": "-", "trials": 0},
                "config key 'decompose' takes true or false, got 'no'"),
    config_case("loaded12", "qca-run", {"phi": [0.3]}, "config key 'phi' takes float, got [0.3]"),
    # A grid point's p is checked by its backend's engine, which names the value.
    config_case("ca-p-above-1", "campaign", {"backend": "ca", "grid": [[4, "1.5"]]},
                "flip probability must lie in [0, 1], got 1.5"),
    config_case("qca-p-above-1", "campaign",
                {"backend": "qca", "noise": "depolarizing", "grid": [[4, "1.5"]]},
                "noise strength must lie in [0, 1], got 1.5"),
])
def test_malformed_config_values_exit_1(tmp_path, capsys, command, loaded, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(loaded))
    code, out, err = run_cli(capsys, command, "--config", str(config))
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("command, shared, written", [("flip-time", {}, "1"),
                                                     ("campaign", {"grid": [[4, "0.1"]]}, "1.csv")],
                         ids=["flip-time-shared0-1", "campaign-shared1-1.csv"])
def test_config_numbers_for_string_flags_read_as_tokens(tmp_path, monkeypatch, capsys,
                                                        command, shared, written):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**shared, "output": 1, "trials": 5}))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command, "--config", str(config))
    assert code == 0, err
    assert out == "" and (tmp_path / written).read_text().startswith("scheme,backend")


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "flip-time", "--config", str(config))
    assert code == 1 and "unknown config keys" in err


# One case per subcommand: config-only keys every run shares, a set of flag
# values, one flag given explicitly over the config, and a key set to null.
CONFIG_CASES = [
    ("ca-orbit", {}, {"rule": "tlv", "n": 8, "p": "0.3", "steps": 4, "seed": 2, "trial": 1},
     ("seed", 3), "steps"),
    ("flip-time", {}, {"rule": "232", "n": 8, "p": "0.3", "trials": 30, "seed": 4,
                       "max_steps": 500, "format": "json"}, ("trials", 60), "seed"),
    ("qca-run", {}, {"scheme": "q232", "n": 4, "p": "0.3", "noise": "coherent", "trials": 6,
                     "seed": 5, "max_steps": 200, "phi": 0.3, "format": "csv",
                     "dump_circuit": "step.txt", "decompose": True}, ("seed", 6), "seed"),
    ("global-voting", {}, {"n": 10, "p": "0.1", "delta": 1, "format": "json"},
     ("delta", 2), "delta"),
    ("heisenberg-check", {}, {"scheme": "q232"}, ("scheme", "qtlv"), "scheme"),
    ("rules-audit", {}, {"output": "audit.csv"}, ("output", "other.csv"), "output"),
    ("fit-eval", {}, {"p": "11/72", "n": 20}, ("p", "1/10"), "n"),
    ("campaign", {"grid": [[8, "1/5"]]}, {"backend": "ca", "scheme": "232", "noise": "bitflip",
                                          "trials": 40, "seed": 9, "max_steps": 5000,
                                          "workers": 1}, ("trials", 60), "seed"),
]


def as_flags(values):
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, str(value)]
    return flags


@pytest.mark.parametrize("command, shared, values, override, null_key", CONFIG_CASES,
                         ids=[case[0] for case in CONFIG_CASES])
def test_config_values_act_as_flag_defaults(tmp_path, monkeypatch, capsys, command, shared,
                                            values, override, null_key):
    runs = itertools.count()

    def run(config, *flags):
        """Stdout and every file written, from a fresh working directory."""
        path = tmp_path / f"cfg{next(runs)}.json"
        path.write_text(json.dumps(config))
        workdir = path.with_suffix("")
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code, out, err = run_cli(capsys, command, "--config", str(path), *flags)
        assert code == 0, err
        return out, {f.name: f.read_bytes() for f in sorted(workdir.iterdir())}

    from_flags = run(shared, *as_flags(values))
    assert run({**shared, **values}) == from_flags
    key, value = override
    overridden = run(shared, *as_flags({**values, key: value}))
    assert run({**shared, **values}, *as_flags({key: value})) == overridden != from_flags
    defaulted = run(shared, *as_flags({k: v for k, v in values.items() if k != null_key}))
    assert run({**shared, **values, null_key: None}) == defaulted != from_flags


@pytest.mark.parametrize("key", ["func", "command_parser", "config", "help"])
def test_config_refuses_parser_internals(tmp_path, capsys, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: "rules-audit"}))
    code, out, err = run_cli(capsys, "fit-eval", "--config", str(config))
    assert code == 1 and out == ""
    assert f"unknown config keys: [{key!r}]" in err


def _readme_blocks(language):
    """The bodies of README's fenced code blocks in ``language``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return re.findall(rf"```{language}\n(.*?)```", readme.read_text(), flags=re.S)


def test_readme_cli_examples_parse(tmp_path, monkeypatch, capsys):
    examples = [line for block in _readme_blocks("sh") for line in block.splitlines()
                if line.startswith("qcadc ")]
    assert len(examples) >= 9
    parser = build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])  # an unknown flag or value exits here
    # the campaign config goes through the same loading and validation as a real run
    (campaign,) = _readme_blocks("json")
    config = tmp_path / "campaign.json"
    config.write_text(campaign)
    monkeypatch.setattr(experiments, "run_campaign", lambda config: [])
    code, _, err = run_cli(capsys, "campaign", "--config", str(config))
    assert code == 0, err


def test_help_lists_the_defaults():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-m", "qcadc", "flip-time", "--help"],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0
    assert "default: 11/72" in " ".join(result.stdout.split())


def test_campaign_writes_deterministic_files(tmp_path, capsys):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({
        "backend": "ca", "scheme": "tlv", "grid": [[8, "1/5"], [10, 0.15]],
        "trials": 200, "seed": 9, "max_steps": 100000,
    }))
    base_a = tmp_path / "out_a"
    base_b = tmp_path / "out_b"
    for base in (base_a, base_b):
        code, _, _ = run_cli(capsys, "campaign", "--config", str(cfg),
                             "--output", str(base))
        assert code == 0
    csv_a = (tmp_path / "out_a.csv").read_text()
    csv_b = (tmp_path / "out_b.csv").read_text()
    assert csv_a == csv_b
    assert len(csv_a.strip().split("\n")) == 3
    summary = json.loads((tmp_path / "out_a.json").read_text())
    assert summary["config"]["master_seed"] == 9
    meta = json.loads((tmp_path / "out_a.meta.json").read_text())
    assert "finished_at" in meta


def test_campaign_reports_failed_grid_points_on_stderr(tmp_path, capsys):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({"backend": "qca", "scheme": "tlv", "noise": "coherent",
                               "grid": [[30, "0.1"], [4, "0.1"]], "trials": 2, "max_steps": 5}))
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[1] == "tlv,qca,coherent,30,0.1,0,2,,,,"
    for text in (err, run_cli(capsys, "campaign", "--config", str(cfg),
                              "--output", str(tmp_path / "out"))[2]):
        assert text.splitlines() == [
            "error at grid point n = 30, p = 0.1: ValueError: a stepper on n = 30 cells needs "
            "~412,316,860,416 bytes, over the 2,147,483,648-byte budget"]
    assert (tmp_path / "out.csv").read_text() == out


def test_campaign_requires_grid(capsys):
    code, _, err = run_cli(capsys, "campaign", "--backend", "ca", "--scheme", "tlv")
    assert code == 1 and "grid" in err


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "audit.csv"
    code, out, _ = run_cli(capsys, "rules-audit", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("code,self_dual")
