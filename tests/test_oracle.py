import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismlab import (
    SIGMA_MIN,
    ConfigError,
    DecompositionError,
    GuidanceSpec,
    MixtureOracle,
    interval_pieces,
    make_schedule,
)


def fd_log_density_grad(oracle, schedule, x, t, label=None, step=1e-5):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (oracle.log_density(schedule, hi, t, label)
                - oracle.log_density(schedule, lo, t, label)) / (2 * step)
    return g


def test_unit_variance_component_prediction(tiny_schedule):
    # mean 0, sigma 1: the noised marginal has unit variance at every t,
    # so the prediction is sqrt(1 - alpha_bar) * x
    o = MixtureOracle(means=[[0.0, 0.0]], sigmas=[1.0], weights=[1.0])
    got = o.eps_predict(tiny_schedule, np.array([2.0, 0.0]), 2)
    assert got == pytest.approx([math.sqrt(0.75) * 2.0, 0.0], abs=1e-12)


def test_narrow_component_limit(tiny_schedule):
    o = MixtureOracle(means=[[0.0, 0.0]], sigmas=[SIGMA_MIN], weights=[1.0])
    got = o.eps_predict(tiny_schedule, np.array([1.0, 0.0]), 1)
    # limit formula (x - sqrt(ab) mu) / sqrt(1 - ab) at alpha_bar = 0.5
    assert got == pytest.approx([1.0 / math.sqrt(0.5), 0.0], abs=1e-6)


def test_prediction_matches_density_gradient(mixture3, schedule):
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform(-3, 3, size=2)
        t = int(rng.integers(1, 1001))
        fd = fd_log_density_grad(mixture3, schedule, x, t)
        expected = -schedule.s1mab[t] * fd
        got = mixture3.eps_predict(schedule, x, t)
        assert np.linalg.norm(got - expected) < 1e-5 * max(np.linalg.norm(expected), 1e-9)


def test_zero_timestep_returns_zero(mixture3, schedule):
    assert mixture3.eps_predict(schedule, np.array([0.3, 0.7]), 0).tolist() == [0.0, 0.0]


def test_mode_is_exact_zero(schedule):
    o = MixtureOracle(means=[[0.7, -0.2]], sigmas=[0.3], weights=[1.0], labels={"m": [0]})
    for t in (1, 57, 500, 1000):
        x = schedule.sab[t] * np.array([0.7, -0.2])
        assert np.all(o.eps_predict(schedule, x, t, "m") == 0.0)


def test_log_density_standard_normal_mode(schedule):
    o = MixtureOracle(means=[[0.0, 0.0]], sigmas=[1.0], weights=[1.0])
    for t in (1, 250, 990):
        got = o.log_density(schedule, np.zeros(2), t)
        assert got == pytest.approx(math.log(1.0 / (2 * math.pi)), abs=1e-12)


def test_duplicate_components_collapse(schedule):
    single = MixtureOracle(means=[[0.4, 0.1]], sigmas=[0.5], weights=[1.0])
    double = MixtureOracle(means=[[0.4, 0.1]] * 2, sigmas=[0.5] * 2, weights=[0.5, 0.5])
    x = np.array([-0.3, 0.9])
    assert double.log_density(schedule, x, 321) == pytest.approx(
        single.log_density(schedule, x, 321), abs=1e-12)


def test_log_density_against_direct_sum(mixture3, schedule):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        t = int(rng.integers(1, 1001))
        ab = np.longdouble(schedule.ab[t])
        total = np.longdouble(0.0)
        for mu, sig, w in zip(mixture3.means, mixture3.sigmas, mixture3.weights):
            var = ab * np.longdouble(sig) ** 2 + (1 - ab)
            diff = np.asarray(x, dtype=np.longdouble) - np.sqrt(ab) * np.asarray(mu, dtype=np.longdouble)
            total += np.longdouble(w) * np.exp(-(diff @ diff) / (2 * var)) / (2 * np.pi * var)
        assert mixture3.log_density(schedule, x, t) == pytest.approx(
            float(np.log(total)), rel=1e-12)


# Bound on a float64 evaluation of the multi-step bias at a timestep with
# gamma(t) >= 1, in units of gamma(t) * 2^-53 times the largest entry it
# reads (the view and the walks' predictions): each evaluation rounds a few
# terms of that size. Below gamma(t) = 1 the view's own size sets the scale.
BIAS_ROUNDING_UNITS = 8


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("steep", [False, True])
def test_bias_evaluations_match_long_double(mixture3, schedule, guide_a, steep):
    """From one interval_pieces object's float64 caches, the residual
    (x0 - x0_tilde) - gamma(t) * interval and the telescoping series are
    recomputed in long double, gamma included; both float64 evaluations lie
    within BIAS_ROUNDING_UNITS of it. On the steep schedule (constant beta
    0.1) the two differ by more than bias()'s 1e-9 at large gamma(t), which
    is the check's bound, not an error of the series."""
    ld = np.longdouble
    sch = make_schedule(1000, 0.1, 0.1) if steep else schedule
    x0 = np.random.default_rng(3).normal(size=(4, 2))
    raised = 0
    for t in ((20, 100, 200, 300, 400) if steep else (300, 600, 1000)):
        for delta_t in (t, t // 2, t // 5, t // 20):
            p = interval_pieces(mixture3, sch, x0, t, delta_t, guide_a)
            n = len(p.grid) - 1
            gammas = [np.sqrt(1 - ld(sch.ab[tau])) / np.sqrt(ld(sch.ab[tau]))
                      for tau in p.grid]
            inv = [e.astype(ld) for e in p.inv.eps_cache]
            deno = [e.astype(ld) for e in p.deno.eps_cache]
            residual = (x0.astype(ld) - p.x0_tilde.astype(ld)) - gammas[-1] * (deno[0] - inv[-1])
            series = sum(gammas[i] * (inv[i] - inv[i - 1]) for i in range(1, n)) \
                - sum(gammas[j - 1] * (deno[n - j] - deno[n - j + 1]) for j in range(2, n + 1))
            scale = max(np.abs(e).max() for e in (x0, *p.inv.eps_cache, *p.deno.eps_cache))
            tol = BIAS_ROUNDING_UNITS * float(gammas[-1]) * 2.0 ** -53 * scale
            float64_residual = (x0 - p.x0_tilde) - sch.nsr[t] * p.interval
            assert float(np.abs(float64_residual - residual).max()) <= tol, (t, delta_t)
            assert float(np.abs(p.series - series).max()) <= tol, (t, delta_t)
            try:
                assert np.array_equal(p.bias(), float64_residual)
            except DecompositionError:
                raised += 1
    assert raised > 0 if steep else raised == 0


def test_guided_scale_one_is_positive_branch(mixture3, schedule):
    x = np.array([0.2, -0.5])
    g = GuidanceSpec(positive="a", negative="b", scale=1.0)
    assert np.array_equal(mixture3.eps_guided(schedule, x, 400, g),
                          mixture3.eps_predict(schedule, x, 400, "a"))


def test_guided_scale_zero_is_negative_branch(mixture3, schedule):
    x = np.array([0.2, -0.5])
    g = GuidanceSpec(positive="a", negative="b", scale=0.0)
    assert np.array_equal(mixture3.eps_guided(schedule, x, 400, g),
                          mixture3.eps_predict(schedule, x, 400, "b"))


def test_guided_recombination(mixture3, schedule):
    x = np.array([0.6, 0.1])
    g = GuidanceSpec(positive="a", negative=None, scale=7.5)
    pos = mixture3.eps_predict(schedule, x, 333, "a")
    neg = mixture3.eps_predict(schedule, x, 333, None)
    by_hand = neg + 7.5 * (pos - neg)
    assert mixture3.eps_guided(schedule, x, 333, g) == pytest.approx(by_hand, abs=1e-14)


def test_null_positive_reproduces_unconditional_bitwise(mixture3, schedule):
    x = np.array([-1.1, 0.4])
    g = GuidanceSpec(positive=None, scale=1.0)
    assert np.array_equal(mixture3.eps_guided(schedule, x, 710, g),
                          mixture3.eps_predict(schedule, x, 710, None))


def test_label_restriction_weights(schedule):
    o = MixtureOracle(means=[[1.0, 0.0], [-1.0, 0.0]], sigmas=[0.3, 0.3],
                      weights=[0.25, 0.75], labels={"r": [0]})
    # restricted to one component the weight renormalises away
    ref = MixtureOracle(means=[[1.0, 0.0]], sigmas=[0.3], weights=[1.0])
    x = np.array([0.4, 0.2])
    assert o.eps_predict(schedule, x, 200, "r") == pytest.approx(
        ref.eps_predict(schedule, x, 200), abs=1e-14)


def test_unknown_label_raises(mixture3, schedule):
    with pytest.raises(ConfigError, match="unknown label 'nope'"):
        mixture3.eps_predict(schedule, np.zeros(2), 10, "nope")
    with pytest.raises(ConfigError, match="unknown label 'nope'"):
        mixture3.log_density(schedule, np.zeros(2), 10, "nope")
    # guided predictions validate both branches even when the scale
    # short-circuits one of them
    g = GuidanceSpec(positive="a", negative="nope", scale=1.0)
    with pytest.raises(ConfigError, match="unknown label 'nope'"):
        mixture3.eps_guided(schedule, np.zeros(2), 10, g)
    # an unknown label raises before any branch is counted, at every scale
    for positive, negative, scale in [("nope", None, 0.0), ("nope", None, 7.5),
                                      ("a", "nope", 1.0), ("a", "nope", 7.5)]:
        g = GuidanceSpec(positive=positive, negative=negative, scale=scale)
        before = mixture3.eps_evals
        with pytest.raises(ConfigError, match="unknown label 'nope'"):
            mixture3.eps_guided(schedule, np.zeros((3, 2)), 10, g)
        assert mixture3.eps_evals == before, (positive, negative, scale)


def test_non_finite_input_raises(mixture3, schedule):
    with pytest.raises(ValueError):
        mixture3.eps_predict(schedule, np.array([np.nan, 0.0]), 10)
    with pytest.raises(ValueError):
        mixture3.log_density(schedule, np.array([np.inf, 0.0]), 10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_constructor_validation():
    with pytest.raises(ConfigError):
        MixtureOracle(means=[[0, 0]], sigmas=[0.1], weights=[-1.0])
    # a sum that overflows, and a share of it that underflows
    for weights in ([1e308, 1e308], [1e-200, 1e200]):
        with pytest.raises(ConfigError, match="shares of a finite sum"):
            MixtureOracle(means=[[0, 0], [1, 1]], sigmas=[0.1, 0.1], weights=weights)
    with pytest.raises(ConfigError):
        MixtureOracle(means=[[0, 0]], sigmas=[0.1], weights=[1.0], labels={"x": []})
    with pytest.raises(ConfigError):
        MixtureOracle(means=[[0, 0]], sigmas=[0.1], weights=[1.0], labels={"x": [4]})
    # a repeated index would weigh its component twice in the label's mixture
    with pytest.raises(ConfigError, match="out-of-range or repeated component index"):
        MixtureOracle(means=[[0, 0], [1, 1]], sigmas=[0.1, 0.1], weights=[1.0, 1.0],
                      labels={"x": [0, 1, 1]})
    with pytest.raises(ConfigError, match="agree in length"):
        MixtureOracle(means=[[0, 0], [1, 1]], sigmas=[0.1], weights=[1.0, 1.0])
    for means, sigmas in (([[0, math.nan]], [0.1]), ([[0, 0]], [math.inf])):
        with pytest.raises(ConfigError, match="must be finite"):
            MixtureOracle(means=means, sigmas=sigmas, weights=[1.0])
    with pytest.raises(ConfigError, match="guidance scale must be finite"):
        GuidanceSpec(positive=None, scale=math.inf)


def test_sigma_clamped_to_floor():
    o = MixtureOracle(means=[[0, 0]], sigmas=[0.0], weights=[1.0])
    assert o.sigmas[0] == SIGMA_MIN


def test_weights_normalised():
    o = MixtureOracle(means=[[0, 0], [1, 1]], sigmas=[0.1, 0.1], weights=[2.0, 6.0])
    assert o.weights.tolist() == [0.25, 0.75]


def test_sample_shapes_and_determinism(mixture3):
    a = mixture3.sample(np.random.default_rng(5), 8, "ab")
    b = mixture3.sample(np.random.default_rng(5), 8, "ab")
    assert a.shape == (8, 2)
    assert np.array_equal(a, b)


def test_eval_counter_tracks_predictions(mixture3, schedule):
    before = mixture3.eps_evals
    mixture3.eps_predict(schedule, np.zeros(2), 5)
    mixture3.eps_guided(schedule, np.zeros(2), 5, GuidanceSpec(positive="a", scale=7.5))
    mixture3.eps_guided(schedule, np.zeros(2), 5, GuidanceSpec(positive="a", scale=1.0))
    assert mixture3.eps_evals - before == 1 + 2 + 1


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_prediction_consistency_property(seed):
    rng = np.random.default_rng(seed)
    means = rng.uniform(-1.5, 1.5, size=(3, 2))
    o = MixtureOracle(means=means, sigmas=rng.uniform(0.15, 0.6, 3),
                      weights=rng.uniform(0.2, 1.0, 3))
    sch = make_schedule(50, 0.002, 0.08)
    x = rng.uniform(-2.5, 2.5, size=2)
    t = int(rng.integers(1, 51))
    fd = fd_log_density_grad(o, sch, x, t)
    expected = -sch.s1mab[t] * fd
    got = o.eps_predict(sch, x, t)
    # absolute floor keeps finite-difference noise out of the comparison at
    # near-zero-score points (mixture balance loci)
    assert np.linalg.norm(got - expected) <= 1e-5 * max(np.linalg.norm(expected), 1e-3)
