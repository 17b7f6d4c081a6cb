import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismlab import objectives
from ismlab import (
    ConfigError,
    GuidanceSpec,
    MixtureOracle,
    decomposition_check,
    ism_gradient,
    multistep_bias,
    naive_gradient,
    sds_gradient,
)
from ismlab.objectives import REPORT_CSV_HEADER


def test_sds_zero_at_fixed_point(point_oracle, schedule):
    g = GuidanceSpec(positive="m", scale=1.0)
    mu = np.array([0.6, -0.3])
    eps = np.array([0.8, -1.1])
    report = sds_gradient(point_oracle, schedule, mu, 500, eps, g)
    assert np.linalg.norm(report.grad_x0) < 1e-5


def test_sds_two_forms_agree(mixture3, schedule, guide_a):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x0 = rng.uniform(-2, 2, size=2)
        t = int(rng.integers(1, 1001))
        eps = rng.standard_normal(2)
        report = sds_gradient(mixture3, schedule, x0, t, eps, guide_a)
        alt = (schedule.omega[t] / schedule.nsr[t]) * (x0 - report.pseudo_gt)
        assert np.abs(report.grad_x0 - alt).max() < 1e-10


def test_sds_mean_matches_mean_target_direction(mixture3, schedule, guide_a):
    # over many draws the mean update equals the pull toward the mean target
    rng = np.random.default_rng(4)
    x0 = np.array([0.3, -0.1])
    t = 500
    grads, targets = [], []
    for _ in range(10_000):
        report = sds_gradient(mixture3, schedule, x0, t, rng.standard_normal(2), guide_a)
        grads.append(report.grad_x0)
        targets.append(report.pseudo_gt)
    grads = np.stack(grads)
    w = schedule.omega[t] / schedule.nsr[t]
    implied = w * (x0 - np.mean(targets, axis=0))
    se = grads.std(axis=0) / math.sqrt(len(grads))
    assert np.all(np.abs(grads.mean(axis=0) - implied) <= 3 * se + 1e-12)


def test_sds_varies_with_noise(mixture3, schedule, guide_a):
    x0 = np.array([0.2, 0.2])
    a = sds_gradient(mixture3, schedule, x0, 400, np.array([1.0, 0.0]), guide_a)
    b = sds_gradient(mixture3, schedule, x0, 400, np.array([0.0, 1.0]), guide_a)
    assert not np.allclose(a.grad_x0, b.grad_x0)


def test_interval_gradient_zero_at_fixed_point(point_oracle, schedule):
    g = GuidanceSpec(positive="m", scale=1.0)
    mu = np.array([0.6, -0.3])
    report = ism_gradient(point_oracle, schedule, mu, 600, 50, 50, g)
    assert np.linalg.norm(report.grad_x0) < 1e-5
    assert report.s == 550


def test_interval_gradient_unconditional_collapse(bimodal, schedule):
    # null positive at unit scale: the update is the raw unconditional
    # interval score along the inversion path
    g = GuidanceSpec(positive=None, scale=1.0)
    x0 = np.array([0.3, 0.4])
    t, dt, ds = 600, 50, 50
    report = ism_gradient(bimodal, schedule, x0, t, dt, ds, g)

    x = x0.copy()
    grid = [0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600]
    eps_prev = None
    for a, b in zip(grid, grid[1:]):
        eps_prev = bimodal.eps_predict(schedule, x, a)
        x0_hat = (x - schedule.s1mab[a] * eps_prev) / schedule.sab[a]
        x = schedule.sab[b] * x0_hat + schedule.s1mab[b] * eps_prev
    expected = schedule.omega[t] * (bimodal.eps_predict(schedule, x, t) - eps_prev)
    assert np.abs(report.grad_x0 - expected).max() < 1e-10


def test_interval_gradient_matches_straight_line_rewrite(bimodal, schedule):
    # independent flat reimplementation: invert midway point with the stride
    # grid, one extra hop, difference of predictions
    g = GuidanceSpec(positive="right", scale=7.5)
    x0 = np.array([0.0, 0.0])
    t, dt, ds = 600, 50, 50
    report = ism_gradient(bimodal, schedule, x0, t, dt, ds, g)

    s = t - dt
    grid = list(range(0, s, ds)) + [s, t]
    x = x0.copy()
    eps_s = None
    for a, b in zip(grid, grid[1:]):
        eps_s = bimodal.eps_predict(schedule, x, a)
        x0_hat = (x - schedule.s1mab[a] * eps_s) / schedule.sab[a]
        x = schedule.sab[b] * x0_hat + schedule.s1mab[b] * eps_s
    eps_t = bimodal.eps_guided(schedule, x, t, g)
    expected = schedule.omega[t] * (eps_t - eps_s)
    assert np.abs(report.grad_x0 - expected).max() < 1e-10


def test_interval_gradient_is_deterministic(mixture3, schedule, guide_a):
    x0 = np.array([0.25, -0.05])
    a = ism_gradient(mixture3, schedule, x0, 500, 100, 50, guide_a)
    b = ism_gradient(mixture3, schedule, x0, 500, 100, 50, guide_a)
    assert np.array_equal(a.grad_x0, b.grad_x0)
    assert np.array_equal(a.pseudo_gt, b.pseudo_gt)


def test_interval_cost_orderings(mixture3, schedule, guide_a):
    x0 = np.array([0.3, -0.2])
    fast = ism_gradient(mixture3, schedule, x0, 600, 50, 550, guide_a)
    slow = ism_gradient(mixture3, schedule, x0, 600, 50, 1, guide_a)
    assert fast.oracle_calls <= slow.oracle_calls
    accel = ism_gradient(mixture3, schedule, x0, 600, 50, 200, guide_a)
    naive = naive_gradient(mixture3, schedule, x0, 600, 50, guide_a)
    assert accel.oracle_calls < naive.oracle_calls


def test_multistep_cost_scales_with_interval_count(mixture3, schedule, guide_a):
    report = naive_gradient(mixture3, schedule, np.array([0.1, 0.1]), 600, 50, guide_a)
    # one unconditional prediction per upward hop, a guided pair per downward
    assert report.oracle_calls == 12 + 2 * 12


def test_single_interval_collapse(mixture3, schedule, guide_a):
    x0 = np.array([0.4, -0.3])
    t = 400
    bias = multistep_bias(mixture3, schedule, x0, t, t, guide_a)
    assert np.linalg.norm(bias) < 1e-12
    assert decomposition_check(mixture3, schedule, x0, t, t, guide_a) < 1e-12
    # the update equals the loss weight times the interval score exactly
    report = naive_gradient(mixture3, schedule, x0, t, t, guide_a)
    xt = schedule.sab[t] * x0
    eps_t = mixture3.eps_guided(schedule, xt, t, guide_a)
    assert np.abs(report.grad_x0 - schedule.omega[t] * eps_t).max() < 1e-10


def test_multistep_bias_zero_on_mode(point_oracle, schedule):
    g = GuidanceSpec(positive="m", scale=1.0)
    mu = np.array([0.6, -0.3])
    assert np.linalg.norm(multistep_bias(point_oracle, schedule, mu, 400, 50, g)) < 1e-5


def test_multistep_gradient_zero_on_mode(point_oracle, schedule):
    g = GuidanceSpec(positive="m", scale=1.0)
    mu = np.array([0.6, -0.3])
    report = naive_gradient(point_oracle, schedule, mu, 400, 50, g)
    assert np.linalg.norm(report.grad_x0) < 1e-5


def test_bias_residual_matches_series(mixture3, schedule, guide_a):
    # dual evaluation agreement, including intervals that do not divide t
    rng = np.random.default_rng(6)
    for _ in range(15):
        x0 = rng.uniform(-1.5, 1.5, size=2)
        dt = int(rng.choice([25, 50, 100, 130]))
        t = int(rng.integers(dt, 951))
        bias = multistep_bias(mixture3, schedule, x0, t, dt, guide_a)
        assert np.isfinite(bias).all()
        assert decomposition_check(mixture3, schedule, x0, t, dt, guide_a) < 1e-9


def test_decomposition_sweep(mixture3, schedule, guide_a):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        x0 = rng.uniform(-2, 2, size=2)
        dt = int(rng.choice([10, 25, 50, 100]))
        t = int(rng.integers(dt, 951))
        worst = max(worst, decomposition_check(mixture3, schedule, x0, t, dt, guide_a))
    assert worst < 1e-9


@st.composite
def decomposition_cases(draw):
    """(oracle, x0, t, delta_t, guidance) with K in 1..4 components in D in
    1..8 dimensions, sigmas in [0.05, 1], means and x0 in [-2, 2]."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 8))
    coords = st.floats(-2.0, 2.0, allow_nan=False)
    o = MixtureOracle(
        means=[[draw(coords) for _ in range(d)] for _ in range(k)],
        sigmas=[draw(st.floats(0.05, 1.0)) for _ in range(k)],
        weights=[draw(st.floats(0.1, 1.0)) for _ in range(k)],
        labels={"c0": [0],
                "sub": draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k,
                                     unique=True))})
    x0 = np.array([draw(coords) for _ in range(d)])
    dt = draw(st.sampled_from([10, 25, 50, 100]))
    t = draw(st.integers(dt, 950))
    g = GuidanceSpec(positive=draw(st.sampled_from([None, "c0", "sub"])),
                     negative=draw(st.sampled_from([None, "c0"])),
                     scale=draw(st.sampled_from([0.0, 1.0, 7.5])))
    return o, x0, t, dt, g


@settings(max_examples=200, deadline=None)
@given(case=decomposition_cases())
def test_decomposition_identity_property(schedule, case):
    # the multi-step direction is the interval score plus the telescoping
    # bias series; multistep_bias raises if its two evaluations disagree
    o, x0, t, dt, g = case
    assert decomposition_check(o, schedule, x0, t, dt, g) <= 1e-9
    multistep_bias(o, schedule, x0, t, dt, g)


def test_gradient_report_rows(mixture3, schedule, guide_a):
    report = ism_gradient(mixture3, schedule, np.array([0.2, 0.2]), 300, 50, 50, guide_a)
    row = report.csv_row("ism")
    assert len(row) == len(REPORT_CSV_HEADER)
    assert row[0] == 300 and row[1] == 250 and row[4] == "ism"
    sds = sds_gradient(mixture3, schedule, np.array([0.2, 0.2]), 300,
                       np.zeros(2), guide_a)
    assert sds.csv_row("sds")[1] == ""


def test_precondition_errors(mixture3, schedule, guide_a):
    x0 = np.zeros(2)
    with pytest.raises(ConfigError):
        ism_gradient(mixture3, schedule, x0, 100, 100, 10, guide_a)
    with pytest.raises(ConfigError):
        ism_gradient(mixture3, schedule, x0, 100, 50, 60, guide_a)
    with pytest.raises(ConfigError):
        naive_gradient(mixture3, schedule, x0, 100, 101, guide_a)
    with pytest.raises(IndexError):
        sds_gradient(mixture3, schedule, x0, 0, np.zeros(2), guide_a)


def test_interval_pieces_rejects_mismatched_grids(monkeypatch, mixture3, schedule, guide_a):
    real = objectives.denoise_path

    def skewed(*args):
        path = real(*args)
        return dataclasses.replace(path, timesteps=path.timesteps[:-2] + (1, 0))

    monkeypatch.setattr(objectives, "denoise_path", skewed)
    with pytest.raises(RuntimeError, match="inversion grid"):
        decomposition_check(mixture3, schedule, [0.3, -0.2], 300, 50, guide_a)


def test_interval_pieces_evaluate_the_series_once(mixture3, schedule, guide_a):
    """The pieces hold their schedule; bias and decomposition read one
    telescoping series and give what multistep_bias and decomposition_check
    give."""
    x0 = np.array([0.3, -0.2])
    pieces = objectives._interval_pieces(mixture3, schedule, x0, 300, 40, guide_a)
    bias = pieces.bias()
    series = pieces.series
    assert pieces.decomposition() == decomposition_check(mixture3, schedule, x0, 300, 40, guide_a)
    assert pieces.series is series
    assert np.array_equal(bias, multistep_bias(mixture3, schedule, x0, 300, 40, guide_a))
