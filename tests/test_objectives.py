import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismlab import objectives
from ismlab import (
    ConfigError,
    DecompositionError,
    GuidanceSpec,
    MixtureOracle,
    hop,
    interval_pieces,
    ism_gradient,
    make_schedule,
    naive_gradient,
    sds_gradient,
)
from ismlab.config import gaussian_blob_template

# constant beta 0.1: gamma(t) passes 3e6 at t = 284 and 1e9 at t = 394, so the
# gap of a double-precision multi-step estimate, which grows as gamma(t) * 2^-53,
# often exceeds 1e-9
STEEP = make_schedule(1000, 0.1, 0.1)


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


@st.composite
def cost_cases(draw):
    """(t, delta_t, delta_s, guidance, rows): delta_s fits below t - delta_t
    whenever delta_t < t, and the scale is 0, 1 or another value."""
    t = draw(st.integers(2, 1000))
    dt = draw(st.integers(1, t))
    ds = draw(st.integers(1, max(t - dt, 1)))
    scale = draw(st.sampled_from([0.0, 1.0, 7.5]))
    return t, dt, ds, GuidanceSpec(positive="r", scale=scale), draw(st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(case=cost_cases())
def test_oracle_calls_follow_the_cost_model(schedule, case):
    """The paper's cost unit in closed form, with g = 1 guided branch at scale
    0 or 1 and g = 2 otherwise: B rows cost B * (ceil(s / delta_S) + 1 + g)
    for ISM, B * g for SDS and B * ceil(t / delta_T) * (1 + g) for the naive
    objective, each the change in the oracle's count of evaluated rows."""
    t, dt, ds, g, b = case
    o = MixtureOracle(means=[[1.0, 0.0], [-1.0, 0.0]], sigmas=[0.2, 0.2], weights=[0.5, 0.5],
                      labels={"r": [0]})
    x0 = np.linspace(-0.5, 0.5, 2 * b).reshape(b, 2)
    branches = 1 if g.scale in (0.0, 1.0) else 2
    runs = [(lambda: sds_gradient(o, schedule, x0, t, np.ones((b, 2)), g), b * branches),
            (lambda: naive_gradient(o, schedule, x0, t, dt, g),
             b * math.ceil(t / dt) * (1 + branches))]
    if dt < t:
        runs.append((lambda: ism_gradient(o, schedule, x0, t, dt, ds, g),
                     b * (math.ceil((t - dt) / ds) + 1 + branches)))
    for run, expected in runs:
        before = o.eps_evals
        assert run().oracle_calls == o.eps_evals - before == expected


def test_single_interval_collapse(mixture3, schedule, guide_a):
    x0 = np.array([0.4, -0.3])
    t = 400
    pieces = interval_pieces(mixture3, schedule, x0, t, t, guide_a)
    assert np.linalg.norm(pieces.bias()) < 1e-12
    assert pieces.gap < 1e-12
    # the update equals the loss weight times the interval score exactly
    report = naive_gradient(mixture3, schedule, x0, t, t, guide_a)
    xt = schedule.sab[t] * x0
    eps_t = mixture3.eps_guided(schedule, xt, t, guide_a)
    assert np.abs(report.grad_x0 - schedule.omega[t] * eps_t).max() < 1e-10


def test_multistep_bias_zero_on_mode(point_oracle, schedule):
    g = GuidanceSpec(positive="m", scale=1.0)
    mu = np.array([0.6, -0.3])
    assert np.linalg.norm(interval_pieces(point_oracle, schedule, mu, 400, 50, g).bias()) < 1e-5


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
        pieces = interval_pieces(mixture3, schedule, x0, t, dt, guide_a)
        assert np.isfinite(pieces.bias()).all()
        assert pieces.gap < 1e-9


def test_decomposition_sweep(mixture3, schedule, guide_a):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        x0 = rng.uniform(-2, 2, size=2)
        dt = int(rng.choice([10, 25, 50, 100]))
        t = int(rng.integers(dt, 951))
        worst = max(worst, interval_pieces(mixture3, schedule, x0, t, dt, guide_a).gap)
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
    # bias series; gap is the norm of the identity's failure, evaluated once
    # in that summation order, and bias() raises exactly when it is not
    # within 1e-9. On a steep schedule both outcomes occur.
    o, x0, t, dt, g = case
    for sch in (schedule, STEEP):
        pieces = interval_pieces(o, sch, x0, t, dt, g)
        assert "gap" not in vars(pieces)
        gap = pieces.gap
        lhs = x0 - pieces.x0_tilde
        assert gap == float(np.linalg.norm(lhs - (sch.nsr[t] * pieces.interval + pieces.series)))
        if sch is schedule:
            assert gap <= 1e-9
        if gap <= 1e-9:
            assert np.array_equal(pieces.bias(), lhs - sch.nsr[t] * pieces.interval)
        else:
            message = re.escape(f"disagree by {gap:.3e} at t={t}, ")
            with pytest.raises(DecompositionError, match=message):
                pieces.bias()
        assert pieces.gap is gap


def same_report(got, want) -> bool:
    """Two gradient reports agree bit for bit, oracle calls included."""
    return (got.grad_x0.tobytes() == want.grad_x0.tobytes()
            and got.pseudo_gt.tobytes() == want.pseudo_gt.tobytes()
            and got.oracle_calls == want.oracle_calls)


def test_precondition_errors(mixture3, schedule, guide_a):
    """An interval reaching t, a zero stride and t = 0 are refused; a stride
    above its span (delta_S above s = t - delta_T, delta_T above t) is the
    one-hop walk of the stride equal to the span, bit for bit."""
    x0 = np.array([0.3, -0.2])
    with pytest.raises(ConfigError):
        ism_gradient(mixture3, schedule, x0, 100, 100, 10, guide_a)
    with pytest.raises(ConfigError):
        ism_gradient(mixture3, schedule, x0, 100, 50, 0, guide_a)
    with pytest.raises(ConfigError):
        naive_gradient(mixture3, schedule, x0, 100, 0, guide_a)
    with pytest.raises(IndexError):
        sds_gradient(mixture3, schedule, x0, 0, np.zeros(2), guide_a)
    assert same_report(ism_gradient(mixture3, schedule, x0, 100, 50, 60, guide_a),
                       ism_gradient(mixture3, schedule, x0, 100, 50, 50, guide_a))
    assert same_report(naive_gradient(mixture3, schedule, x0, 100, 101, guide_a),
                       naive_gradient(mixture3, schedule, x0, 100, 100, guide_a))


@settings(max_examples=100, deadline=None)
@given(t=st.integers(2, 1000), over=st.integers(1, 2000), data=st.data())
def test_a_stride_above_its_span_is_the_stride_of_the_span(schedule, t, over, data):
    """For the interval and multi-step objectives and the multi-step pieces,
    a stride longer than the walk it strides (delta_S past s = t - delta_T,
    delta_T past t) gives, bit for bit, what the stride equal to the walk
    gives: one hop, the same latents, caches, directions and oracle calls."""
    o = MixtureOracle(means=[[1.0, 0.0], [-0.5, 0.8]], sigmas=[0.3, 0.2], weights=[0.6, 0.4],
                      labels={"a": [0]})
    g = GuidanceSpec(positive="a", scale=7.5)
    x0 = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=2, max_size=2)))
    dt = data.draw(st.integers(1, t - 1))
    s = t - dt
    assert same_report(ism_gradient(o, schedule, x0, t, dt, s + over, g),
                       ism_gradient(o, schedule, x0, t, dt, s, g))
    assert same_report(naive_gradient(o, schedule, x0, t, t + over, g),
                       naive_gradient(o, schedule, x0, t, t, g))
    above, at = (interval_pieces(o, schedule, x0, t, k, g) for k in (t + over, t))
    assert above.grid == at.grid == (0, t) and above.oracle_calls == at.oracle_calls
    for got, want in ((above.inv, at.inv), (above.deno, at.deno)):
        assert ([x.tobytes() for x in got.latents + got.eps_cache]
                == [x.tobytes() for x in want.latents + want.eps_cache])
    assert above.bias().tobytes() == at.bias().tobytes()


def test_a_denoising_walk_off_the_inversion_grid_fails_the_series_check(
        monkeypatch, mixture3, schedule, guide_a):
    """The series telescopes only over shared nodes: a denoising walk with as
    many nodes as the inversion grid but other timesteps (stride 51 from 300,
    against 50) makes bias() raise."""
    real = objectives.denoise_path

    def skewed(oracle, schedule, xt, t, stride, g):
        return real(oracle, schedule, xt, t, stride + 1, g)

    monkeypatch.setattr(objectives, "denoise_path", skewed)
    pieces = interval_pieces(mixture3, schedule, [0.3, -0.2], 300, 50, guide_a)
    deno, nodes = pieces.deno, pieces.grid[::-1]
    assert len(deno.latents) == len(pieces.grid)
    # its first hop, 300 -> 249, is not the grid's 300 -> 250
    assert not np.array_equal(hop(schedule, deno.latents[0], *nodes[:2], deno.eps_cache[0]),
                              deno.latents[1])
    with pytest.raises(DecompositionError, match="disagree"):
        pieces.bias()


def test_bias_raises_on_a_nan_gap(mixture3, schedule, guide_a):
    """A NaN in an inversion cache makes the residual and the series
    disagree by NaN, which bias() refuses as it refuses a gap above 1e-9."""
    pieces = interval_pieces(mixture3, schedule, [0.3, -0.2], 300, 50, guide_a)
    cache = list(pieces.inv.eps_cache)
    cache[1] = np.full(2, np.nan)
    broken = dataclasses.replace(pieces, inv=dataclasses.replace(pieces.inv, eps_cache=tuple(cache)))
    with pytest.raises(ArithmeticError, match="disagree by nan"):
        broken.bias()


def test_interval_pieces_evaluate_the_series_once(mixture3, schedule, guide_a):
    """The pieces hold their schedule; gap and bias read one telescoping
    series and give what a second walk's pieces give, and bias reads the
    cached gap."""
    x0 = np.array([0.3, -0.2])
    pieces = interval_pieces(mixture3, schedule, x0, 300, 40, guide_a)
    again = interval_pieces(mixture3, schedule, x0, 300, 40, guide_a)
    bias = pieces.bias()
    series = pieces.series
    assert pieces.gap == again.gap
    assert pieces.series is series
    assert np.array_equal(bias, again.bias())
    vars(again)["gap"] = math.nan
    with pytest.raises(DecompositionError, match="disagree by nan"):
        again.bias()


# one-component, two-component and image-template oracles, each labelling "a"
GRID_ORACLES = {
    "one": MixtureOracle(means=[[0.6, -0.3]], sigmas=[0.2], weights=[1.0], labels={"a": [0]}),
    "two": MixtureOracle(means=[[1.0, 0.0], [-0.5, 0.8]], sigmas=[0.3, 0.2],
                         weights=[0.6, 0.4], labels={"a": [0]}),
    "blob": MixtureOracle(
        means=[gaussian_blob_template(8, 8, 1, (x, 0.0), 0.35, 0.9) for x in (-0.45, 0.45)],
        sigmas=[0.1, 0.1], weights=[0.5, 0.5], labels={"a": [0]}),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(GRID_ORACLES)), dt=st.integers(1, 500), data=st.data())
def test_ism_on_the_multistep_grid_is_the_interval_score(schedule, name, dt, data):
    """Where delta_S = delta_T and delta_T divides t, ISM's inversion grid is
    the multi-step grid, so its direction is omega(t) times the pieces'
    interval score bit for bit, on either schedule."""
    o = GRID_ORACLES[name]
    t = dt * data.draw(st.integers(2, 1000 // dt))
    x0 = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).uniform(-2, 2, o.dim)
    g = GuidanceSpec(positive="a", scale=data.draw(st.sampled_from([0.0, 1.0, 7.5])))
    for sch in (schedule, STEEP):
        want = sch.omega[t] * interval_pieces(o, sch, x0, t, dt, g).interval
        assert ism_gradient(o, sch, x0, t, dt, dt, g).grad_x0.tobytes() == want.tobytes()
