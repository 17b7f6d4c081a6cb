"""The affine case in closed form: a judge of the transport's values.

A one-component oracle (mean mu, standard deviation sigma) predicts

    eps(x, a) = c_a * (x - sqrt(ab_a) * mu),  c_a = sqrt(1 - ab_a) / v_a,
    v_a = ab_a * sigma^2 + 1 - ab_a,

which is affine in x, so one DDIM hop a -> b scales the offset
y = x - sqrt(ab_a) * mu from the noised mean by

    k(a, b) = (sqrt(ab_a * ab_b) * sigma^2 + sqrt((1 - ab_a) * (1 - ab_b))) / v_a,

and every walk and objective is a product of such factors. Here they are
evaluated in long double from the schedule's signal levels ab, without the hop
formula or the oracle's score, and the float64 results must lie within stated
units of 2^-53 of them. Both guidance branches select the one component, so
the guided prediction is the unconditional one exactly.

The SDS moments need only that each guidance branch selects one component:
the guided prediction is then affine in x whatever the oracle, and the SDS
pseudo-target moves with the injected noise by a closed-form gain.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ismlab import (
    GuidanceSpec,
    MixtureOracle,
    interval_pieces,
    ism_gradient,
    make_schedule,
    naive_gradient,
    sds_gradient,
)
from ismlab.config import build_guidance, build_oracle
from ismlab.experiments import build_experiment, run_consistency
from ismlab.trajectory import denoise_path, descent_grid, inversion_grid, invert_along

pytestmark = pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                                reason="np.longdouble is no wider than float64 here")

ld = np.longdouble
UNIT = ld(2.0) ** -53
# Bound on a float64 walk's error at any node, per hop, in units of UNIT times
# the walk's scale (closed_walk): one hop and the prediction it uses round
# about eight terms, each no larger than that scale.
HOP_UNITS = 8
SCHEDULES = {"default": make_schedule(1000), "steep": make_schedule(1000, 0.1, 0.1)}
SIGMAS = (1e-4, 0.05, 0.3, 1.0, 3.0)
GUIDANCE = GuidanceSpec(positive="m", scale=7.5)


def one_component(sigma: float, seed: int) -> MixtureOracle:
    mu = np.random.default_rng(seed).normal(size=3)
    return MixtureOracle([mu], [sigma], [1.0], labels={"m": [0]})


class Affine:
    """The closed form of one component's transport under a schedule."""

    def __init__(self, oracle: MixtureOracle, schedule):
        ab = np.array(schedule.ab, dtype=ld)
        self.sab, self.s1 = np.sqrt(ab), np.sqrt(1 - ab)
        self.sig2 = ld(oracle.sigmas[0]) ** 2
        self.v = ab * self.sig2 + (1 - ab)
        self.mu = oracle.means[0].astype(ld)

    def eps(self, x, a: int):
        return self.s1[a] / self.v[a] * (x - self.sab[a] * self.mu)

    def walk(self, x, nodes):
        """The latents of the walk from x along nodes, its gain (the product
        of its factors k) and its scale: the largest of |x_a|,
        |sqrt(ab_a) * mu| and |sqrt(1 - ab_a) * eps_a| over sqrt(ab_a) at each
        node a it leaves, and of |x_b| at each node it reaches."""
        sab, s1, v = self.sab, self.s1, self.v
        latents, gain, scale = [np.asarray(x, dtype=ld)], ld(1), ld(0)
        y = latents[0] - sab[nodes[0]] * self.mu
        for a, b in zip(nodes, nodes[1:]):
            terms = (latents[-1], sab[a] * self.mu, s1[a] * self.eps(latents[-1], a))
            scale = max(scale, *(np.abs(term).max() / sab[a] for term in terms))
            k = (sab[a] * sab[b] * self.sig2 + s1[a] * s1[b]) / v[a]
            y, gain = y * k, gain * k
            latents.append(sab[b] * self.mu + y)
            scale = max(scale, np.abs(latents[-1]).max())
        return latents, abs(gain), scale


def error(got, exact) -> ld:
    return np.abs(np.asarray(got, dtype=ld) - exact).max()


def cases(seed: int, count: int, top: int = 1000):
    """(t, stride, offset) draws with t <= top, and the longest walk of a unit stride."""
    rng = np.random.default_rng(seed)
    yield top, 1, 1.0
    for _ in range(count):
        t = int(rng.integers(2, top + 1))
        yield t, int(rng.integers(1, t + 1)), float(rng.choice([1e-3, 0.1, 1.0, 10.0]))


@pytest.mark.parametrize("name", SCHEDULES)
@pytest.mark.parametrize("sigma", SIGMAS)
def test_walks_match_the_affine_closed_form(name, sigma):
    """Every latent of invert_along from a view and of denoise_path from a
    noised latent lies within HOP_UNITS per hop of the closed form."""
    schedule, oracle = SCHEDULES[name], one_component(sigma, 0)
    affine = Affine(oracle, schedule)
    rng = np.random.default_rng(1)
    for t, stride, offset in cases(2, 12):
        x0 = oracle.means[0] + offset * rng.normal(size=3)
        nodes = inversion_grid(t, stride)
        latents, _, scale = affine.walk(x0, nodes)
        got = invert_along(oracle, schedule, x0, nodes).latents
        bound = HOP_UNITS * (len(nodes) - 1) * UNIT * scale
        assert max(map(error, got, latents)) <= bound, (t, stride, offset)

        xt = schedule.sab[t] * oracle.means[0] + offset * rng.normal(size=3)
        nodes = descent_grid(t, stride)[::-1]
        latents, _, scale = affine.walk(xt, nodes)
        got = denoise_path(oracle, schedule, xt, t, stride, GUIDANCE).latents
        bound = HOP_UNITS * (len(nodes) - 1) * UNIT * scale
        assert max(map(error, got, latents)) <= bound, (t, stride, offset)


@pytest.mark.parametrize("name", SCHEDULES)
@pytest.mark.parametrize("sigma", SIGMAS)
def test_objective_gradients_match_the_affine_closed_form(name, sigma):
    """The ism and naive grad_x0 lie within the closed form's error budget: a
    prediction's error is c_a times its latent's, and the naive direction's
    clean estimate carries the inversion's error through the denoising gain."""
    schedule, oracle = SCHEDULES[name], one_component(sigma, 3)
    affine = Affine(oracle, schedule)
    rng = np.random.default_rng(4)
    for t, stride, offset in cases(5, 12):
        x0 = oracle.means[0] + offset * rng.normal(size=3)
        dt = int(rng.integers(1, t))
        nodes = inversion_grid(t - dt, stride) + [t]
        (*_, x_s, x_t), _, scale = affine.walk(x0, nodes)
        s = t - dt
        omega = ld(schedule.omega[t])
        exact = omega * (affine.eps(x_t, t) - affine.eps(x_s, s))
        c = affine.s1[[s, t]] / affine.v[[s, t]]
        bound = omega * c.sum() * HOP_UNITS * len(nodes) * UNIT * scale
        got = ism_gradient(oracle, schedule, x0, t, dt, stride, GUIDANCE).grad_x0
        assert error(got, exact) <= bound, (t, dt, stride, offset)

        nodes = descent_grid(t, stride)
        up, _, up_scale = affine.walk(x0, nodes)
        down, gain, down_scale = affine.walk(up[-1], nodes[::-1])
        weight = omega * affine.sab[t] / affine.s1[t]
        exact = weight * (x0.astype(ld) - down[-1])
        hops = len(nodes) - 1
        bound = weight * HOP_UNITS * UNIT * (gain * hops * up_scale + (hops + 1) * down_scale)
        got = naive_gradient(oracle, schedule, x0, t, stride, GUIDANCE).grad_x0
        assert error(got, exact) <= bound, (t, stride, offset)


@pytest.mark.parametrize("name", SCHEDULES)
@pytest.mark.parametrize("sigma", SIGMAS)
def test_sds_gradient_matches_the_affine_closed_form(name, sigma):
    """At a given eps, with x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps and e_t its
    prediction, sds_gradient's pseudo_gt (x_t - sqrt(1 - ab_t) e_t) / sqrt(ab_t)
    lies within HOP_UNITS for each of its two hops (noising, then the
    single-step estimate) of the scale of the terms it divides by sqrt(ab_t),
    and its grad_x0 omega(t) (e_t - eps) within HOP_UNITS of the prediction's
    error, c_t times x_t's scale, and of the difference's terms."""
    schedule, oracle = SCHEDULES[name], one_component(sigma, 6)
    affine = Affine(oracle, schedule)
    rng = np.random.default_rng(7)
    for t, _, offset in cases(8, 12):
        x0 = oracle.means[0] + offset * rng.normal(size=3)
        eps = rng.normal(size=3)
        sab, s1 = affine.sab[t], affine.s1[t]
        x_t = sab * x0.astype(ld) + s1 * eps.astype(ld)
        e_t = affine.eps(x_t, t)
        pseudo_gt = (x_t - s1 * e_t) / sab
        terms = (x0, sab * affine.mu, s1 * eps, x_t, s1 * e_t)
        scale = max(np.abs(term).max() for term in terms) / sab
        got = sds_gradient(oracle, schedule, x0, t, eps, GUIDANCE)
        assert error(got.pseudo_gt, pseudo_gt) <= 2 * HOP_UNITS * UNIT * scale, (t, offset)
        omega, c = ld(schedule.omega[t]), s1 / affine.v[t]
        bound = omega * HOP_UNITS * UNIT * (c * sab * scale + np.abs(e_t).max()
                                            + np.abs(eps).max())
        assert error(got.grad_x0, omega * (e_t - eps)) <= bound, (t, offset)


@pytest.mark.parametrize("name", SCHEDULES)
@pytest.mark.parametrize("sigma", SIGMAS)
def test_ism_and_naive_pseudo_gt_match_the_affine_closed_form(name, sigma):
    """ism's pseudo_gt x0 - gamma(t) * interval lies within gamma(t) times the
    interval's budget (as for its grad_x0) plus HOP_UNITS of its two terms;
    naive's, the multi-step clean estimate, within the budget of its two
    walks (as for its grad_x0, without the weight)."""
    schedule, oracle = SCHEDULES[name], one_component(sigma, 9)
    affine = Affine(oracle, schedule)
    rng = np.random.default_rng(10)
    for t, stride, offset in cases(11, 12):
        x0 = oracle.means[0] + offset * rng.normal(size=3)
        dt = int(rng.integers(1, t))
        s = t - dt
        nodes = inversion_grid(s, stride) + [t]
        (*_, x_s, x_t), _, scale = affine.walk(x0, nodes)
        gamma = affine.s1[t] / affine.sab[t]
        pseudo_gt = x0.astype(ld) - gamma * (affine.eps(x_t, t) - affine.eps(x_s, s))
        c = affine.s1[[s, t]] / affine.v[[s, t]]
        bound = HOP_UNITS * UNIT * (gamma * c.sum() * len(nodes) * scale
                                    + np.abs(pseudo_gt).max() + np.abs(x0).max())
        got = ism_gradient(oracle, schedule, x0, t, dt, stride, GUIDANCE).pseudo_gt
        assert error(got, pseudo_gt) <= bound, (t, dt, stride, offset)

        nodes = descent_grid(t, stride)
        up, _, up_scale = affine.walk(x0, nodes)
        down, gain, down_scale = affine.walk(up[-1], nodes[::-1])
        hops = len(nodes) - 1
        bound = HOP_UNITS * UNIT * (gain * hops * up_scale + (hops + 1) * down_scale)
        got = naive_gradient(oracle, schedule, x0, t, stride, GUIDANCE).pseudo_gt
        assert error(got, down[-1]) <= bound, (t, stride, offset)


@pytest.mark.parametrize("name", SCHEDULES)
@pytest.mark.parametrize("sigma", SIGMAS)
def test_interval_pieces_bias_matches_the_affine_closed_form(name, sigma):
    """bias(), (x0 - x0_tilde) - gamma(t) * interval on the stride-delta_t
    descent grid, lies within the naive estimate's budget plus gamma(t) times
    the interval's. t stays where gamma(t) <= 1e5, so that bias()'s 1e-9
    check of the identity holds in double precision."""
    schedule, oracle = SCHEDULES[name], one_component(sigma, 12)
    affine = Affine(oracle, schedule)
    rng = np.random.default_rng(13)
    top = max(t for t in range(2, 1001) if schedule.nsr[t] <= 1e5)
    for t, dt, offset in cases(14, 12, top):
        x0 = oracle.means[0] + offset * rng.normal(size=3)
        nodes = descent_grid(t, dt)
        up, _, up_scale = affine.walk(x0, nodes)
        down, gain, down_scale = affine.walk(up[-1], nodes[::-1])
        s, gamma = nodes[-2], affine.s1[t] / affine.sab[t]
        bias = x0.astype(ld) - down[-1] - gamma * (affine.eps(up[-1], t) - affine.eps(up[-2], s))
        c = affine.s1[[s, t]] / affine.v[[s, t]]
        hops = len(nodes) - 1
        bound = HOP_UNITS * UNIT * (gain * hops * up_scale + (hops + 1) * down_scale
                                    + gamma * c.sum() * len(nodes) * up_scale)
        got = interval_pieces(oracle, schedule, x0, t, dt, GUIDANCE).bias()
        assert error(got, bias) <= bound, (t, dt, offset)


def consistency_config() -> dict:
    """configs/consistency.json with guidance.negative "left": each guidance
    branch selects one component, so the guided prediction is affine in x."""
    path = Path(__file__).resolve().parent.parent / "configs" / "consistency.json"
    cfg = json.loads(path.read_text())
    cfg["guidance"]["negative"] = "left"
    return cfg


def sds_gain(oracle: MixtureOracle, schedule, g: GuidanceSpec, t: int) -> ld:
    """k(t), the change of sds_gradient's pseudo_gt per unit of eps in the
    affine case: the guided prediction's slope is A = sqrt(1 - ab_t) *
    ((1 - scale) / v_neg + scale / v_pos), and pseudo_gt = (x_t - sqrt(1 -
    ab_t) e_t) / sqrt(ab_t) with x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps, so
    k = (1 - sqrt(1 - ab_t) A) sqrt(1 - ab_t) / sqrt(ab_t)."""
    ab = ld(schedule.ab[t])
    sab, s1 = np.sqrt(ab), np.sqrt(1 - ab)
    v = {label: ab * ld(oracle.sigmas[oracle.labels[label][0]]) ** 2 + 1 - ab
         for label in (g.positive, g.negative)}
    slope = s1 * ((1 - ld(g.scale)) / v[g.negative] + ld(g.scale) / v[g.positive])
    return (1 - s1 * slope) * s1 / sab


@pytest.mark.parametrize("name", SCHEDULES)
def test_sds_pseudo_gt_moves_with_eps_by_the_affine_gain(name):
    """With each guidance branch on one component, pseudo_gt at eps minus
    pseudo_gt at 0 is k(t) * eps: within HOP_UNITS per hop (two per
    evaluation) of the scale of the terms each evaluation divides by
    sqrt(ab_t), the guided branches' terms included."""
    cfg = consistency_config()
    schedule, oracle, g = SCHEDULES[name], build_oracle(cfg), build_guidance(cfg)
    affine = Affine(oracle, schedule)
    gscale = ld(abs(g.scale))
    rng = np.random.default_rng(15)
    for t, _, offset in cases(16, 24):
        x0 = oracle.means[0] + offset * rng.normal(size=2)
        draws = (rng.normal(size=2), np.zeros(2))
        sab, s1 = affine.sab[t], affine.s1[t]
        scale = ld(0)
        for eps in draws:
            x_t = sab * x0.astype(ld) + s1 * eps.astype(ld)
            terms = (x0, s1 * eps, x_t, gscale * x_t, *(gscale * sab * mu for mu in oracle.means))
            scale = max(scale, max(np.abs(term).max() for term in terms) / sab)
        got = [sds_gradient(oracle, schedule, x0, t, eps, g).pseudo_gt for eps in draws]
        exact = sds_gain(oracle, schedule, g, t) * draws[0].astype(ld)
        bound = 2 * 2 * HOP_UNITS * UNIT * scale
        assert error(got[0].astype(ld) - got[1], exact) <= bound, (t, offset)


def chi2_tails(x: float, half_dof: int) -> tuple[float, float]:
    """P(X < x) and P(X > x) for X chi-squared with 2 * half_dof degrees of
    freedom: the Poisson(x / 2) probabilities of at least, and of fewer
    than, half_dof events."""
    term, upper, lower = math.exp(-x / 2), 0.0, 0.0
    for j in range(half_dof):
        upper += term
        term *= x / 2 / (j + 1)
    j = half_dof
    while lower + term > lower:
        lower += term
        j += 1
        term *= x / 2 / j
    return lower, upper


def chi2_quantiles(p: float, half_dof: int) -> tuple[float, float]:
    """The chi-squared values with p below and p above, by bisection."""
    bounds = []
    for tail in (0, 1):
        lo, hi = 0.0, 8.0 * half_dof + 200.0
        for _ in range(100):
            mid = (lo + hi) / 2
            if (chi2_tails(mid, half_dof)[tail] < p) == (tail == 0):
                lo = mid
            else:
                hi = mid
        bounds.append(lo)
    return bounds[0], bounds[1]


def test_consistency_sds_noise_variance_is_chi_squared():
    """consistency's sds_noise_variance at a timestep is k(t)^2 times the
    draws' mean squared deviation, which is chi-squared with D (N - 1)
    degrees of freedom over N for N standard normal draws: at the shipped
    32 draws and seed 0, each N * variance / k(t)^2 lies between the
    chi-squared quantiles of 2 * 31 degrees of freedom with 1e-6 in each tail."""
    spec = build_experiment(consistency_config(), "consistency")
    assert spec.noise_draws == 32 and spec.seeds == [0] and spec.oracle.dim == 2
    low, high = chi2_quantiles(1e-6, 31)
    summary = run_consistency(spec).summary
    for t, variance in zip(summary["t_values"], summary["sds_noise_variance"]):
        k = float(sds_gain(spec.oracle, spec.schedule, spec.guidance, t))
        assert low < 32 * variance / (k * k) < high, t
