"""Command-line interface: subcommands, exit codes, determinism, config merge."""
import json
from pathlib import Path

import pytest

from qcadc import voting
from qcadc.cli import main, parse_probability


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


@pytest.mark.parametrize("noise", ["none", "incoherent", "coherent", "depolarizing"])
def test_qca_run_refuses_p_outside_unit_interval(capsys, noise):
    code, out, err = run_cli(capsys, "qca-run", "--scheme", "q232", "--n", "4",
                             "--noise", noise, "--p", "1.5", "--trials", "2")
    assert code == 1 and out == ""
    assert "noise strength must lie in [0, 1]" in err


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
    assert "flip probability must lie in [0, 1]" in err


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
    assert f"the {backend} backend needs n >= {1 if backend == 'ca' else 4}, got {n}" in err
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


# Rows recorded from the qca-run trajectory loop before it was routed
# through the campaign's; a sampled angle and a fixed --phi draw different
# amounts from each trajectory's stream.
@pytest.mark.parametrize("args, expected", [
    (("--scheme", "qtlv", "--n", "6", "--p", "1/12", "--noise", "incoherent",
      "--trials", "60", "--seed", "3", "--max-steps", "400"),
     "tlv,qca,incoherent,6,0.08333333333,0,60,0,68.06666667,59.4251749,7.671757092\n"),
    (("--scheme", "q232", "--n", "6", "--p", "1/8", "--noise", "coherent",
      "--trials", "60", "--seed", "5", "--max-steps", "400", "--phi", "0.3"),
     "232,qca,coherent,6,0.125,0,60,0,21.46666667,18.1551381,2.343818251\n"),
])
def test_qca_run_rows_are_pinned(capsys, args, expected):
    code, out, _ = run_cli(capsys, "qca-run", *args)
    assert code == 0
    assert out == "scheme,backend,noise,n,p,delta,trials,censored,mean,stddev,stderr\n" + expected


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


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "flip-time", "--config", str(config))
    assert code == 1 and "unknown config keys" in err


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


def test_campaign_requires_grid(capsys):
    code, _, err = run_cli(capsys, "campaign", "--backend", "ca", "--scheme", "tlv")
    assert code == 1 and "grid" in err


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "audit.csv"
    code, out, _ = run_cli(capsys, "rules-audit", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("code,self_dual")
