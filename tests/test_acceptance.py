"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line with its measured statistic and wall time.

Heavy distillation runs are shared between the outcome and race criteria
through a module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from ismlab import (
    DistillConfig,
    GuidanceSpec,
    IdentityLatent,
    MixtureOracle,
    ViewJitterSpec,
    canonical_view,
    ddim_denoise,
    ddim_invert,
    ism_gradient,
    make_schedule,
    multistep_bias,
    naive_gradient,
    run_distillation,
)
from ismlab.config import gaussian_blob_template
from ismlab.experiments import (
    ExperimentSpec,
    decomposition_sweep_check,
    gradient_forms_check,
    renderer_fd_check,
    run_consistency,
    run_quality,
    score_fd_check,
)
from ismlab.generators import random_scene
from ismlab.trajectory import hop


def report(num, name, ok, detail):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def default_schedule():
    return make_schedule(1000)


@pytest.fixture(scope="module")
def mixture3():
    return MixtureOracle(
        means=[[1.0, 0.0], [-0.5, 0.8], [0.2, -1.0]],
        sigmas=[0.3, 0.2, 0.4],
        weights=[0.5, 0.3, 0.2],
        labels={"a": [0], "b": [1], "c": [2]},
    )


@pytest.fixture(scope="module")
def matched_runs():
    """Ten matched-seed interval/noise-matching pairs on the bimodal prior.

    The gentle beta ramp keeps the labelled mode identifiable over the
    sampled timestep band (t > 200 is forced by the annealing start), so the
    guided objective has its fixed point at the mode.
    """
    schedule = make_schedule(1000, 2e-5, 4.5e-4)
    oracle = MixtureOracle(
        means=[[1.0, 0.0], [-1.0, 0.0]], sigmas=[0.05, 0.05],
        weights=[0.5, 0.5], labels={"right": [0], "left": [1]})
    guidance = GuidanceSpec(positive="right", scale=7.5)
    logs = {}
    started = time.perf_counter()
    for seed in range(10):
        for objective in ("ism", "sds"):
            cfg = DistillConfig(
                objective=objective, iterations=2000, t_min=220, t_max=980,
                delta_t_start=200, delta_t_end=50, delta_s=50,
                guidance=guidance, seed=seed)
            gen = IdentityLatent([0.0, 0.0])
            logs[(seed, objective)] = run_distillation(gen, oracle, schedule, cfg)
    return logs, time.perf_counter() - started


def test_criterion_1_score_oracle(mixture3, default_schedule):
    t0 = time.perf_counter()
    err = score_fd_check(mixture3, default_schedule, n_draws=100, seed=0)
    elapsed = time.perf_counter() - t0
    report(1, "score oracle vs finite differences",
           err < 1e-5 and elapsed < 5.0,
           f"max rel err {err:.2e} (tol 1e-5), {elapsed:.2f}s (budget 5s)")


def test_criterion_2_algebraic_identities(mixture3, default_schedule):
    t0 = time.perf_counter()
    g = GuidanceSpec(positive="a", scale=7.5)
    forms = gradient_forms_check(mixture3, default_schedule, g, n_draws=50, seed=0)
    decomp = decomposition_sweep_check(mixture3, default_schedule, g, n_cases=50, seed=1)
    rng = np.random.default_rng(2)
    collapse = 0.0
    for _ in range(5):
        x0 = rng.uniform(-1.5, 1.5, 2)
        t = int(rng.integers(100, 900))
        collapse = max(collapse, float(np.linalg.norm(
            multistep_bias(mixture3, default_schedule, x0, t, t, g))))
    elapsed = time.perf_counter() - t0
    report(2, "gradient-form and decomposition identities",
           forms < 1e-10 and decomp < 1e-9 and collapse < 1e-12 and elapsed < 10.0,
           f"forms {forms:.2e} (1e-10), decomposition {decomp:.2e} (1e-9), "
           f"single-interval bias {collapse:.2e} (1e-12), {elapsed:.2f}s (budget 10s)")


def test_criterion_3_invertibility(default_schedule):
    t0 = time.perf_counter()
    narrow = MixtureOracle(means=[[0.6, -0.3]], sigmas=[1e-4], weights=[1.0],
                           labels={"m": [0]})
    g1 = GuidanceSpec(positive="m", scale=1.0)
    x_start = np.array([0.9, 0.1])
    x_up = hop(default_schedule, x_start, 50, 500,
               narrow.eps_predict(default_schedule, x_start, 50))
    x_back = hop(default_schedule, x_up, 500, 50,
                 narrow.eps_guided(default_schedule, x_up, 500, g1))
    hop_err = float(np.abs(x_back - x_start).max())

    smooth = MixtureOracle(
        means=[[1.0, 0.0], [-0.5, 0.8], [0.2, -1.0]],
        sigmas=[0.4, 0.4, 0.4], weights=[0.5, 0.3, 0.2])
    uncond = GuidanceSpec(positive=None, scale=1.0)
    x0 = np.random.default_rng(1).uniform(-1.5, 1.5, 2)
    errs = {}
    for stride in (100, 50, 25):
        xt = ddim_invert(smooth, default_schedule, x0, 600, stride).latents[-1]
        errs[stride] = float(np.linalg.norm(
            ddim_denoise(smooth, default_schedule, xt, 600, stride, uncond) - x0))
    r1, r2 = errs[100] / errs[50], errs[50] / errs[25]
    elapsed = time.perf_counter() - t0
    report(3, "deterministic invertibility",
           hop_err < 1e-6 and 1.4 <= r1 <= 2.6 and 1.4 <= r2 <= 2.6 and elapsed < 10.0,
           f"one-hop err {hop_err:.2e} (1e-6), stride ratios {r1:.2f}, {r2:.2f} "
           f"(band [1.4, 2.6]), {elapsed:.2f}s (budget 10s)")


def test_criterion_4_renderer_gradients():
    t0 = time.perf_counter()
    err = renderer_fd_check(n_scenes=20, size=16, channels=1, seed=0)
    elapsed = time.perf_counter() - t0
    report(4, "renderer gradients vs finite differences",
           err < 1e-4 and elapsed < 30.0,
           f"max rel err {err:.2e} (tol 1e-4), {elapsed:.2f}s (budget 30s)")


def test_criterion_5_consistency_finding(default_schedule):
    t0 = time.perf_counter()
    oracle = MixtureOracle(
        means=[[1.0, 0.0], [-1.0, 0.0]], sigmas=[0.2, 0.2], weights=[0.5, 0.5],
        labels={"right": [0], "left": [1]})
    spec = ExperimentSpec(
        schedule=default_schedule, oracle=oracle,
        guidance=GuidanceSpec(positive="right", scale=7.5),
        generator_cfg={"generator": {"kind": "identity", "theta": [0.0, 0.0]}},
        t_values=[100, 300, 500, 700, 900], delta_t_values=[50],
        delta_s_values=[50], noise_draws=32, seeds=[0])
    rep = run_consistency(spec)
    ism_zero = all(v == 0.0 for v in rep.ism_noise_variance)
    sds_var_700 = rep.sds_noise_variance[rep.t_values.index(700)]
    factor = sds_var_700 / max(rep.ism_across_t_variance, 1e-300)
    elapsed = time.perf_counter() - t0
    report(5, "clean-target consistency",
           ism_zero and factor >= 2.0 and elapsed < 30.0,
           f"deterministic spread exactly zero: {ism_zero}, stochastic/deterministic "
           f"variance factor {factor:.1f} (need >= 2), {elapsed:.2f}s (budget 30s)")


def test_criterion_6_quality_finding(default_schedule):
    t0 = time.perf_counter()
    oracle = MixtureOracle(
        means=[[1.0, 0.0], [-0.5, 0.8], [0.2, -1.0]],
        sigmas=[0.15, 0.15, 0.15], weights=[0.4, 0.3, 0.3])
    spec = ExperimentSpec(
        schedule=default_schedule, oracle=oracle,
        guidance=GuidanceSpec(positive=None, scale=1.0),
        generator_cfg={}, t_values=[900], delta_t_values=[50],
        delta_s_values=[50], start_points=20, seeds=[1])
    rep = run_quality(spec)
    (_, err_single, err_multi, _), = rep.rows
    elapsed = time.perf_counter() - t0
    report(6, "multi-step clean-estimate quality",
           err_multi < err_single and elapsed < 60.0,
           f"multi-step err {err_multi:.3f} < single-step err {err_single:.3f} "
           f"over 20 starts at t=900, {elapsed:.2f}s (budget 60s)")


def test_criterion_7_distillation_outcome(matched_runs):
    logs, elapsed = matched_runs
    ism_final = [logs[(s, "ism")].final_mode_distance for s in range(10)]
    sds_final = [logs[(s, "sds")].final_mode_distance for s in range(10)]
    wins = sum(s > i for i, s in zip(ism_final, sds_final))
    ok = max(ism_final) < 0.05 and wins >= 8 and elapsed < 300.0
    report(7, "distillation outcome",
           ok,
           f"interval-objective final distances max {max(ism_final):.3f} (< 0.05), "
           f"noise-matching worse in {wins}/10 matched seeds (need >= 8), "
           f"{elapsed:.1f}s shared budget 300s")


def test_criterion_8_convergence_race(matched_runs):
    logs, elapsed = matched_runs
    def crossing(log):
        c = log.first_crossing(0.2)
        return math.inf if c is None else c
    ism_med = float(np.median([crossing(logs[(s, "ism")]) for s in range(10)]))
    sds_med = float(np.median([crossing(logs[(s, "sds")]) for s in range(10)]))
    ok = ism_med < sds_med and elapsed < 300.0
    report(8, "convergence race",
           ok,
           f"median first crossing of 0.2: interval {ism_med:.0f} vs "
           f"noise-matching {sds_med:.0f} iterations, {elapsed:.1f}s shared budget 300s")


def test_criterion_9_efficiency(mixture3, default_schedule):
    t0 = time.perf_counter()
    g = GuidanceSpec(positive="a", scale=7.5)
    x0 = np.array([0.3, -0.2])
    t, delta_t, delta_s = 600, 50, 200
    accel = ism_gradient(mixture3, default_schedule, x0, t, delta_t, delta_s, g)
    naive = naive_gradient(mixture3, default_schedule, x0, t, delta_t, g)
    # budget: one prediction per accelerated inversion hop (t // delta_s of
    # them), one for the final interval hop, and a guided pair at t
    budget = (t // delta_s + 2) + 1
    elapsed = time.perf_counter() - t0
    report(9, "oracle-call efficiency",
           accel.oracle_calls <= budget and accel.oracle_calls < naive.oracle_calls
           and elapsed < 1.0,
           f"interval objective used {accel.oracle_calls} calls (budget {budget}), "
           f"multi-step used {naive.oracle_calls}, {elapsed:.2f}s (budget 1s)")


def test_criterion_10_splat_distillation(default_schedule):
    t0 = time.perf_counter()
    left = gaussian_blob_template(16, 16, 1, (-0.45, 0.0), 0.35, 0.9)
    right = gaussian_blob_template(16, 16, 1, (0.45, 0.0), 0.35, 0.9)
    oracle = MixtureOracle(means=[left, right], sigmas=[0.1, 0.1],
                           weights=[0.5, 0.5], labels={"left": [0], "right": [1]})
    cfg = DistillConfig(
        objective="ism", iterations=3000, t_min=150, t_max=500,
        delta_t_start=100, delta_t_end=50, delta_s=50,
        guidance=GuidanceSpec(positive="left", scale=3.0), seed=0,
        jitter=ViewJitterSpec(width=16, height=16))
    gen = random_scene(32, 1, seed=0)
    run_distillation(gen, oracle, default_schedule, cfg)
    img = gen.render(canonical_view(16, 16))
    mae_left = float(np.abs(img - left).mean())
    mae_right = float(np.abs(img - right).mean())
    mae_near = min(mae_left, mae_right)
    mae_avg = float(np.abs(img - 0.5 * (left + right)).mean())
    elapsed = time.perf_counter() - t0
    report(10, "splat distillation smoke test",
           mae_near < 0.15 and mae_avg > mae_near and elapsed < 600.0,
           f"MAE to nearer template {mae_near:.3f} (< 0.15), to template average "
           f"{mae_avg:.3f} (strictly greater), {elapsed:.1f}s (budget 600s)")
