"""Fit law, campaigns, and backend comparisons."""
import json
import math
import re

import pytest

from qcadc import experiments
from qcadc.experiments import (CampaignConfig, CampaignRow, compare_backends,
                               evaluate_fit, point_seed, rows_to_csv, rows_to_json,
                               run_campaign)


def fit_reference(p, n):
    # independent transcription of the closed form
    f1 = 0.71 - 0.36 * math.exp(-0.036 * n)
    f2 = 0.53 - 0.72 * math.exp(-0.04 * n)
    exponent = 1.5 + (f1 + f2 * math.tanh(0.136 * (1 / p - 9.3))) * math.log2(1 / p) ** 2
    return 2.0 ** exponent


def test_fit_matches_reference_form():
    for p, n in ((11 / 72, 12), (0.1, 20), (1 / 16, 20), (0.05, 100)):
        assert evaluate_fit(p, n) == pytest.approx(fit_reference(p, n), rel=1e-12)


def test_fit_anchor_value():
    assert evaluate_fit(11 / 72, 12) == pytest.approx(27.416, rel=1e-3)


def test_fit_large_n_limit():
    # exponential terms vanish: coefficient tends to a1 + a2 tanh(s (1/p - x0))
    p = 0.1
    coeff_inf = 0.71 + 0.53 * math.tanh(0.136 * (1 / p - 9.3))
    expect = 2.0 ** (1.5 + coeff_inf * math.log2(1 / p) ** 2)
    assert evaluate_fit(p, 10_000) == pytest.approx(expect, rel=1e-9)


def test_fit_monotone_in_inverse_p():
    values = [evaluate_fit(1 / ip, 20) for ip in (6, 10, 16, 24)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        evaluate_fit(0.0, 10)
    with pytest.raises(ValueError):
        evaluate_fit(1.0, 10)
    with pytest.raises(ValueError):
        evaluate_fit(0.1, 0)


def test_point_seed_is_order_free_and_distinct():
    seeds = [point_seed(99, i) for i in range(10)]
    assert len(set(seeds)) == 10
    assert point_seed(99, 3) == seeds[3]


def test_campaign_is_deterministic():
    config = CampaignConfig("ca", "tlv", ((8, 0.2), (10, 0.15)), trials=500, seed=12,
                            max_steps=100_000)
    assert rows_to_csv(run_campaign(config)) == rows_to_csv(run_campaign(config))


def test_campaign_row_histogram_consistency():
    config = CampaignConfig("ca", "232", ((10, 0.2),), trials=800, seed=5)
    row = run_campaign(config)[0]
    hist_mean = sum(t * c for t, c in row.histogram.items()) / sum(row.histogram.values())
    assert abs(hist_mean - row.mean) < 1e-9


def _fail_at_n6(monkeypatch):
    # a grid point whose engine call raises, as a lattice the engine refuses would
    flip_time_stats = experiments.ca.flip_time_stats

    def stats(n, *args):
        if n == 6:
            raise ValueError("two-line voting needs an even total cell count")
        return flip_time_stats(n, *args)
    monkeypatch.setattr(experiments.ca, "flip_time_stats", stats)


def test_campaign_records_failures_in_row(monkeypatch):
    _fail_at_n6(monkeypatch)
    config = CampaignConfig("ca", "tlv", ((6, 0.1), (8, 0.1)), trials=3, seed=1, max_steps=50)
    rows = run_campaign(config)
    assert rows[0].error is not None and rows[0].mean is None
    assert rows[1].error is None


def test_campaign_error_rows_keep_the_exception_type(monkeypatch):
    _fail_at_n6(monkeypatch)
    config = CampaignConfig("ca", "tlv", ((6, 0.1),), trials=2, seed=1)
    row = run_campaign(config)[0]
    assert row.error == "ValueError: two-line voting needs an even total cell count"
    assert json.loads(rows_to_json([row]))["rows"][0]["error"] == row.error


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig("ca", "tlv", ((8, 0.2),), noise="incoherent")
    with pytest.raises(ValueError):
        CampaignConfig("qca", "tlv", ((7, 0.2),), noise="incoherent")
    with pytest.raises(ValueError):
        CampaignConfig("ca", "tlv", ((8, 1.2),))
    with pytest.raises(ValueError):
        CampaignConfig("xx", "tlv", ((8, 0.2),))
    for backend, noise in (("ca", "bitflip"), ("qca", "coherent")):
        with pytest.raises(ValueError, match="max_steps must be positive"):
            CampaignConfig(backend, "tlv", ((8, 0.2),), noise=noise, max_steps=0)
    for backend, noise, n in (("ca", "bitflip", 0), ("ca", "bitflip", -4),
                              ("qca", "coherent", 2), ("qca", "depolarizing", 0)):
        message = (f"the cell count n must be at least 1, got {n}" if backend == "ca" else
                   f"a quantized rule needs an even cell count >= 4, got {n}")
        with pytest.raises(ValueError, match=re.escape(message)):
            CampaignConfig(backend, "232", ((8, 0.2), (n, 0.2)), noise=noise)
    CampaignConfig("ca", "232", ((1, 0.2),))
    CampaignConfig("qca", "232", ((4, 0.2),), noise="depolarizing")


def test_qca_campaign_smoke():
    config = CampaignConfig("qca", "232", ((4, 0.25),), noise="incoherent",
                            trials=40, seed=3, max_steps=2000)
    row = run_campaign(config)[0]
    assert row.error is None
    assert row.trials == 40 and row.mean > 0


def test_csv_and_json_serialization():
    config = CampaignConfig("ca", "tlv", ((8, 0.25),), trials=100, seed=7)
    rows = run_campaign(config)
    csv_text = rows_to_csv(rows)
    header = csv_text.splitlines()[0].split(",")
    assert header == list(experiments.CSV_COLUMNS)
    assert len(csv_text.splitlines()) == 2
    payload = json.loads(rows_to_json(rows, config))
    assert payload["config"]["master_seed"] == 7
    assert payload["rows"][0]["mean"] == rows[0].mean
    assert payload["rows"][0]["histogram"]


def test_compare_backends():
    def row(mean, stderr):
        return CampaignRow("tlv", "ca", "bitflip", 8, 0.1, 0, 10, 0, mean, 1.0, stderr)

    assert compare_backends(row(5.0, 0.1), row(5.0, 0.1)).z_score == 0.0
    near = compare_backends(row(28.8, 0.3), row(28.3, 0.3))
    assert near.passed and near.z_score == pytest.approx(1.1785, rel=1e-3)
    far = compare_backends(row(10.0, 0.1), row(20.0, 0.1))
    assert not far.passed
    degenerate = compare_backends(row(1.0, 0.0), row(2.0, 0.0))
    assert not degenerate.passed and math.isinf(degenerate.z_score)
    with pytest.raises(ValueError):
        compare_backends(
            CampaignRow("tlv", "ca", "bitflip", 8, 0.1, 0, 10, None, None, None, None),
            row(1.0, 0.1))


def test_compare_backends_refuses_rows_without_an_observed_flip():
    # p = 0 never flips: every trial is censored, so the row's mean and stderr are NaN.
    censored = experiments.point_row("ca", "tlv", "bitflip", 12, 0.0, 5, 1, 10)
    assert censored.censored == 5 and math.isnan(censored.mean)
    observed = CampaignRow("tlv", "ca", "bitflip", 12, 0.1, 0, 10, 0, 5.0, 1.0, 0.3)
    for pair in ((censored, censored), (censored, observed), (observed, censored)):
        with pytest.raises(ValueError, match="no observed flip"):
            compare_backends(*pair)
