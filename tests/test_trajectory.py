import math

import numpy as np
import pytest

from ismlab import (
    ConfigError,
    GuidanceSpec,
    MixtureOracle,
    Trajectory,
    add_noise,
    ddim_denoise,
    ddim_invert,
    pseudo_gt_single,
)
from ismlab.trajectory import denoise_path, descent_grid, hop, inversion_grid, invert_along


def replay_error(traj, schedule) -> float:
    """Max deviation of stored latents from re-applying the hop recursion."""
    worst = 0.0
    for i in range(len(traj.eps_cache)):
        nxt = hop(schedule, traj.latents[i], traj.timesteps[i],
                  traj.timesteps[i + 1], traj.eps_cache[i])
        worst = max(worst, float(np.abs(nxt - traj.latents[i + 1]).max()))
    return worst


def test_add_noise_values(tiny_schedule):
    got = add_noise(tiny_schedule, np.array([1.0, 0.0]), 2, np.array([0.0, 2.0]))
    assert got == pytest.approx([0.5, math.sqrt(3.0)], abs=1e-12)
    noiseless = add_noise(tiny_schedule, np.array([1.0, 0.0]), 2, np.zeros(2))
    assert noiseless == pytest.approx([0.5, 0.0], abs=1e-15)
    basis = add_noise(tiny_schedule, np.zeros(2), 1, np.array([1.0, 0.0]))
    assert basis == pytest.approx([math.sqrt(0.5), 0.0], abs=1e-15)


def test_single_step_estimate_inverts_noising(tiny_schedule):
    got = pseudo_gt_single(tiny_schedule, np.array([0.5, math.sqrt(3.0)]), 2,
                           np.array([0.0, 2.0]))
    assert got == pytest.approx([1.0, 0.0], abs=1e-12)
    assert pseudo_gt_single(tiny_schedule, np.array([0.5, 0.0]), 2,
                            np.zeros(2)) == pytest.approx([1.0, 0.0])


def test_noising_round_trip_exact(schedule):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        x0 = rng.uniform(-3, 3, size=2)
        eps = rng.standard_normal(2)
        t = int(rng.integers(1, 1001))
        back = pseudo_gt_single(schedule, add_noise(schedule, x0, t, eps), t, eps)
        worst = max(worst, float(np.abs(back - x0).max()))
    assert worst < 1e-12


def test_grids():
    assert inversion_grid(600, 200) == [0, 200, 400, 600]
    assert inversion_grid(500, 200) == [0, 200, 400, 500]
    assert inversion_grid(150, 200) == [0, 150]
    assert descent_grid(500, 200) == [0, 100, 300, 500]
    assert descent_grid(600, 200) == [0, 200, 400, 600]


def test_single_hop_inversion_scales_input(mixture3, schedule):
    x0 = np.array([0.4, -0.7])
    traj = ddim_invert(mixture3, schedule, x0, 150, 150)
    assert traj.timesteps == (0, 150)
    # prediction at the clean boundary is zero, so one hop just rescales
    assert np.array_equal(traj.latents[1], schedule.sqrt_alpha_bar(150) * x0)


def test_inversion_stays_on_mode(point_oracle, schedule):
    mu = np.array([0.6, -0.3])
    traj = ddim_invert(point_oracle, schedule, mu, 600, 200)
    for t, x in zip(traj.timesteps, traj.latents):
        assert np.abs(x - schedule.sqrt_alpha_bar(t) * mu).max() < 1e-6


def test_coarse_strides_approach_fine_reference(mixture3, schedule):
    x0 = np.array([0.3, 0.5])
    ref = ddim_invert(mixture3, schedule, x0, 600, 1).latents[-1]
    coarse = ddim_invert(mixture3, schedule, x0, 600, 200).latents[-1]
    fine = ddim_invert(mixture3, schedule, x0, 600, 25).latents[-1]
    d_coarse = np.linalg.norm(coarse - ref)
    d_fine = np.linalg.norm(fine - ref)
    assert d_coarse > d_fine > 0
    assert not np.allclose(coarse, fine)


def test_denoise_fixed_point(schedule):
    o = MixtureOracle(means=[[0.6, -0.3]], sigmas=[1e-4], weights=[1.0], labels={"m": [0]})
    g = GuidanceSpec(positive="m", scale=1.0)
    mu = np.array([0.6, -0.3])
    xt = schedule.sqrt_alpha_bar(700) * mu
    got = ddim_denoise(o, schedule, xt, 700, 100, g)
    assert np.abs(got - mu).max() < 1e-6


def test_one_hop_denoise_is_single_step_estimate(mixture3, schedule, guide_a):
    xt = np.array([1.3, -0.2])
    eps = mixture3.eps_guided(schedule, xt, 400, guide_a)
    expected = pseudo_gt_single(schedule, xt, 400, eps)
    got = ddim_denoise(mixture3, schedule, xt, 400, 400, guide_a)
    assert got == pytest.approx(expected, abs=1e-14)


def test_degenerate_one_hop_round_trip(point_oracle, schedule):
    g = GuidanceSpec(positive="m", scale=1.0)
    x_start = np.array([0.9, 0.1])
    x_up = hop(schedule, x_start, 50, 500, point_oracle.eps_predict(schedule, x_start, 50))
    x_back = hop(schedule, x_up, 500, 50, point_oracle.eps_guided(schedule, x_up, 500, g))
    assert np.abs(x_back - x_start).max() < 1e-6


def test_round_trip_error_halves_with_stride(schedule, unconditional):
    o = MixtureOracle(means=[[1.0, 0.0], [-0.5, 0.8], [0.2, -1.0]],
                      sigmas=[0.4, 0.4, 0.4], weights=[0.5, 0.3, 0.2])
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1.5, 1.5, size=2)
    errs = {}
    for stride in (100, 50, 25):
        xt = ddim_invert(o, schedule, x0, 600, stride).latents[-1]
        back = ddim_denoise(o, schedule, xt, 600, stride, unconditional)
        errs[stride] = np.linalg.norm(back - x0)
    assert 1.4 <= errs[100] / errs[50] <= 2.6
    assert 1.4 <= errs[50] / errs[25] <= 2.6


def test_coarse_denoise_approaches_fine_reference(mixture3, schedule, guide_a):
    xt = ddim_invert(mixture3, schedule, np.array([0.3, 0.5]), 600, 50).latents[-1]
    ref = ddim_denoise(mixture3, schedule, xt, 600, 1, guide_a)
    d50 = np.linalg.norm(ddim_denoise(mixture3, schedule, xt, 600, 50, guide_a) - ref)
    d25 = np.linalg.norm(ddim_denoise(mixture3, schedule, xt, 600, 25, guide_a) - ref)
    assert d50 > d25 > 0


def test_transport_is_deterministic(mixture3, schedule, guide_a):
    x0 = np.array([0.25, -0.4])
    a = ddim_invert(mixture3, schedule, x0, 500, 50)
    b = ddim_invert(mixture3, schedule, x0, 500, 50)
    assert all(np.array_equal(x, y) for x, y in zip(a.latents, b.latents))
    d1 = ddim_denoise(mixture3, schedule, a.latents[-1], 500, 50, guide_a)
    d2 = ddim_denoise(mixture3, schedule, b.latents[-1], 500, 50, guide_a)
    assert np.array_equal(d1, d2)


def test_replay_detects_tampering(mixture3, schedule):
    traj = ddim_invert(mixture3, schedule, np.array([0.4, 0.4]), 300, 100)
    assert replay_error(traj, schedule) == 0.0
    bad = Trajectory(
        traj.timesteps,
        traj.latents[:-1] + (traj.latents[-1] + 1e-3,),
        traj.eps_cache,
    )
    assert replay_error(bad, schedule) > 1e-4


def test_denoise_path_grid_matches_descent(mixture3, schedule, guide_a):
    path = denoise_path(mixture3, schedule, np.array([0.9, 0.2]), 450, 200, guide_a)
    assert path.timesteps == (450, 250, 50, 0)
    assert len(path.eps_cache) == 3


def test_inversion_and_denoising_share_one_type(mixture3, schedule, guide_a):
    up = ddim_invert(mixture3, schedule, np.array([0.1, 0.2]), 400, 100)
    down = denoise_path(mixture3, schedule, up.latents[-1], 400, 100, guide_a)
    assert type(up) is Trajectory and type(down) is Trajectory
    assert up.timesteps == (0, 100, 200, 300, 400)
    assert down.timesteps == up.timesteps[::-1]
    assert replay_error(up, schedule) == 0.0 and replay_error(down, schedule) == 0.0
    with pytest.raises(ValueError, match="inconsistent"):
        Trajectory(up.timesteps, up.latents, up.eps_cache[:-1])


def test_bad_arguments_raise(mixture3, schedule):
    x0 = np.zeros(2)
    with pytest.raises(ConfigError):
        ddim_invert(mixture3, schedule, x0, 100, 0)
    with pytest.raises(ConfigError):
        ddim_invert(mixture3, schedule, x0, 100, 101)
    with pytest.raises(ConfigError):
        ddim_denoise(mixture3, schedule, x0, 100, 0, GuidanceSpec(positive=None, scale=1.0))
    with pytest.raises(ConfigError):
        invert_along(mixture3, schedule, x0, [10, 20])
    with pytest.raises(ConfigError):
        invert_along(mixture3, schedule, x0, [0, 30, 20])
    with pytest.raises(IndexError):
        ddim_invert(mixture3, schedule, x0, 2000, 100)
