import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismlab import (
    ConfigError,
    GuidanceSpec,
    MixtureOracle,
    NumericalError,
    Trajectory,
    ism_gradient,
    naive_gradient,
    sds_gradient,
)
from ismlab.trajectory import denoise_path, descent_grid, hop, inversion_grid, invert_along


def replay_error(traj, nodes, schedule) -> float:
    """Max deviation of stored latents from re-applying the hop recursion
    along the given nodes."""
    worst = 0.0
    for i in range(len(traj.eps_cache)):
        nxt = hop(schedule, traj.latents[i], nodes[i], nodes[i + 1], traj.eps_cache[i])
        worst = max(worst, float(np.abs(nxt - traj.latents[i + 1]).max()))
    return worst


def test_forward_noising_values(tiny_schedule):
    """Forward noising is the hop up from the clean level 0."""
    got = hop(tiny_schedule, np.array([1.0, 0.0]), 0, 2, np.array([0.0, 2.0]))
    assert got == pytest.approx([0.5, math.sqrt(3.0)], abs=1e-12)
    noiseless = hop(tiny_schedule, np.array([1.0, 0.0]), 0, 2, np.zeros(2))
    assert noiseless == pytest.approx([0.5, 0.0], abs=1e-15)
    basis = hop(tiny_schedule, np.zeros(2), 0, 1, np.array([1.0, 0.0]))
    assert basis == pytest.approx([math.sqrt(0.5), 0.0], abs=1e-15)


def test_single_step_estimate_inverts_noising(tiny_schedule):
    """The single-step clean estimate is the hop down to the clean level 0."""
    got = hop(tiny_schedule, np.array([0.5, math.sqrt(3.0)]), 2, 0, np.array([0.0, 2.0]))
    assert got == pytest.approx([1.0, 0.0], abs=1e-12)
    assert hop(tiny_schedule, np.array([0.5, 0.0]), 2, 0,
               np.zeros(2)) == pytest.approx([1.0, 0.0])


def test_noising_round_trip_exact(schedule):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        x0 = rng.uniform(-3, 3, size=2)
        eps = rng.standard_normal(2)
        t = int(rng.integers(1, 1001))
        back = hop(schedule, hop(schedule, x0, 0, t, eps), t, 0, eps)
        worst = max(worst, float(np.abs(back - x0).max()))
    assert worst < 1e-12


def test_grids():
    assert inversion_grid(600, 200) == [0, 200, 400, 600]
    assert inversion_grid(500, 200) == [0, 200, 400, 500]
    assert inversion_grid(150, 200) == [0, 150]
    assert descent_grid(500, 200) == [0, 100, 300, 500]
    assert descent_grid(600, 200) == [0, 200, 400, 600]


def reference_walk(schedule, x, t, stride, predict):
    """The per-walk loop both walks used before they shared one: step down
    from t by stride (the last hop shorter) when stride > 0, up the
    inversion grid to t when stride < 0."""
    x = np.asarray(x, dtype=float).copy()
    taus, latents, cache = [0 if stride < 0 else t], [x], []
    while taus[-1] != (t if stride < 0 else 0):
        cur = taus[-1]
        nxt = min(cur - stride, t) if stride < 0 else max(cur - stride, 0)
        eps = predict(x, cur)
        x = hop(schedule, x, cur, nxt, eps)
        taus.append(nxt)
        latents.append(x)
        cache.append(eps)
    return tuple(taus), latents, cache


def test_walks_match_reference_loops(mixture3, schedule, guide_a):
    """invert_along and denoise_path, now one shared hop loop over an explicit
    node list, give the nodes, latents and predictions of the loops they
    replaced, bit for bit."""
    x = np.array([0.3, -0.6])
    for t, stride in [(1, 1), (7, 3), (450, 200), (600, 200), (999, 37), (1000, 1000)]:
        up = invert_along(mixture3, schedule, x, inversion_grid(t, stride))
        ref = reference_walk(schedule, x, t, -stride,
                             lambda y, a: mixture3.eps_predict(schedule, y, a))
        assert ref[0] == tuple(inversion_grid(t, stride))
        assert replay_error(up, ref[0], schedule) == 0.0 and len(up.eps_cache) == len(ref[0]) - 1
        assert all(np.array_equal(a, b) for a, b in zip(up.latents, ref[1], strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(up.eps_cache, ref[2], strict=True))
        down = denoise_path(mixture3, schedule, x, t, stride, guide_a)
        ref = reference_walk(schedule, x, t, stride,
                             lambda y, a: mixture3.eps_guided(schedule, y, a, guide_a))
        assert ref[0] == tuple(descent_grid(t, stride))[::-1]
        assert replay_error(down, ref[0], schedule) == 0.0
        assert len(down.eps_cache) == len(ref[0]) - 1
        assert all(np.array_equal(a, b) for a, b in zip(down.latents, ref[1], strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(down.eps_cache, ref[2], strict=True))


def test_single_hop_inversion_scales_input(mixture3, schedule):
    x0 = np.array([0.4, -0.7])
    traj = invert_along(mixture3, schedule, x0, inversion_grid(150, 150))
    assert replay_error(traj, (0, 150), schedule) == 0.0 and len(traj.eps_cache) == 1
    # prediction at the clean boundary is zero, so one hop just rescales
    assert np.array_equal(traj.latents[1], schedule.sab[150] * x0)


def test_inversion_stays_on_mode(point_oracle, schedule):
    mu = np.array([0.6, -0.3])
    traj = invert_along(point_oracle, schedule, mu, inversion_grid(600, 200))
    for t, x in zip(inversion_grid(600, 200), traj.latents, strict=True):
        assert np.abs(x - schedule.sab[t] * mu).max() < 1e-6


def test_coarse_strides_approach_fine_reference(mixture3, schedule):
    x0 = np.array([0.3, 0.5])
    ref = invert_along(mixture3, schedule, x0, inversion_grid(600, 1)).latents[-1]
    coarse = invert_along(mixture3, schedule, x0, inversion_grid(600, 200)).latents[-1]
    fine = invert_along(mixture3, schedule, x0, inversion_grid(600, 25)).latents[-1]
    d_coarse = np.linalg.norm(coarse - ref)
    d_fine = np.linalg.norm(fine - ref)
    assert d_coarse > d_fine > 0
    assert not np.allclose(coarse, fine)


def test_denoise_fixed_point(schedule):
    o = MixtureOracle(means=[[0.6, -0.3]], sigmas=[1e-4], weights=[1.0], labels={"m": [0]})
    g = GuidanceSpec(positive="m", scale=1.0)
    mu = np.array([0.6, -0.3])
    xt = schedule.sab[700] * mu
    got = denoise_path(o, schedule, xt, 700, 100, g).latents[-1]
    assert np.abs(got - mu).max() < 1e-6


def test_one_hop_denoise_is_single_step_estimate(mixture3, schedule, guide_a):
    xt = np.array([1.3, -0.2])
    eps = mixture3.eps_guided(schedule, xt, 400, guide_a)
    expected = hop(schedule, xt, 400, 0, eps)
    got = denoise_path(mixture3, schedule, xt, 400, 400, guide_a).latents[-1]
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
        xt = invert_along(o, schedule, x0, inversion_grid(600, stride)).latents[-1]
        back = denoise_path(o, schedule, xt, 600, stride, unconditional).latents[-1]
        errs[stride] = np.linalg.norm(back - x0)
    assert 1.4 <= errs[100] / errs[50] <= 2.6
    assert 1.4 <= errs[50] / errs[25] <= 2.6


def test_coarse_denoise_approaches_fine_reference(mixture3, schedule, guide_a):
    x0 = np.array([0.3, 0.5])
    xt = invert_along(mixture3, schedule, x0, inversion_grid(600, 50)).latents[-1]

    def denoised(stride):
        return denoise_path(mixture3, schedule, xt, 600, stride, guide_a).latents[-1]

    ref = denoised(1)
    d50 = np.linalg.norm(denoised(50) - ref)
    d25 = np.linalg.norm(denoised(25) - ref)
    assert d50 > d25 > 0


def test_transport_is_deterministic(mixture3, schedule, guide_a):
    x0 = np.array([0.25, -0.4])
    a = invert_along(mixture3, schedule, x0, inversion_grid(500, 50))
    b = invert_along(mixture3, schedule, x0, inversion_grid(500, 50))
    assert all(np.array_equal(x, y) for x, y in zip(a.latents, b.latents))
    d1 = denoise_path(mixture3, schedule, a.latents[-1], 500, 50, guide_a).latents[-1]
    d2 = denoise_path(mixture3, schedule, b.latents[-1], 500, 50, guide_a).latents[-1]
    assert np.array_equal(d1, d2)


def test_replay_detects_tampering(mixture3, schedule):
    nodes = inversion_grid(300, 100)
    traj = invert_along(mixture3, schedule, np.array([0.4, 0.4]), nodes)
    assert replay_error(traj, nodes, schedule) == 0.0
    bad = Trajectory(traj.latents[:-1] + (traj.latents[-1] + 1e-3,), traj.eps_cache)
    assert replay_error(bad, nodes, schedule) > 1e-4


def test_denoise_path_grid_matches_descent(mixture3, schedule, guide_a):
    path = denoise_path(mixture3, schedule, np.array([0.9, 0.2]), 450, 200, guide_a)
    assert replay_error(path, (450, 250, 50, 0), schedule) == 0.0
    assert len(path.eps_cache) == 3


def test_inversion_and_denoising_share_one_type(mixture3, schedule, guide_a):
    up = invert_along(mixture3, schedule, np.array([0.1, 0.2]), inversion_grid(400, 100))
    down = denoise_path(mixture3, schedule, up.latents[-1], 400, 100, guide_a)
    assert type(up) is Trajectory and type(down) is Trajectory
    nodes = (0, 100, 200, 300, 400)
    assert replay_error(up, nodes, schedule) == 0.0 and len(up.eps_cache) == 4
    assert replay_error(down, nodes[::-1], schedule) == 0.0 and len(down.eps_cache) == 4


def test_bad_arguments_raise(mixture3, schedule):
    """A grid that repeats a node (a zero stride), one not from 0 or not
    increasing, and a denoising stride of 0 are config errors; a stride above
    t makes either walk the one hop [0, t], the stride-t walk bit for bit."""
    x0 = np.array([0.4, -0.3])
    g = GuidanceSpec(positive=None, scale=1.0)
    with pytest.raises(ConfigError):
        invert_along(mixture3, schedule, x0, [0, 0, 100])
    assert inversion_grid(100, 101) == inversion_grid(100, 100) == [0, 100]
    assert descent_grid(100, 101) == descent_grid(100, 100) == [0, 100]
    above, at = (denoise_path(mixture3, schedule, x0, 100, k, g) for k in (101, 100))
    assert len(above.latents) == 2
    for got, want in ((above.latents, at.latents), (above.eps_cache, at.eps_cache)):
        assert len(got) == len(want) and all(map(same_bits, got, want))
    with pytest.raises(ConfigError):
        denoise_path(mixture3, schedule, x0, 100, 0, g)
    with pytest.raises(ConfigError):
        invert_along(mixture3, schedule, x0, [10, 20])
    with pytest.raises(ConfigError):
        invert_along(mixture3, schedule, x0, [0, 30, 20])
    with pytest.raises(IndexError):
        invert_along(mixture3, schedule, x0, inversion_grid(2000, 100))


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_batch_is_its_rows(schedule, data):
    """(B, D) rows at one timestep give, bit for bit, what each row gives
    alone: both predictions and the log density, the latents and eps caches
    of both walks, and the update and target of the three objectives;
    eps_evals and oracle_calls are the sums over rows. One non-finite entry
    fails the batch, and a wrong last axis or timestep fails it as it fails
    a point."""
    draw = data.draw
    b, k, d = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    oracle = MixtureOracle(rng.normal(size=(k, d)), rng.uniform(0.05, 1.0, k),
                           rng.uniform(0.1, 1.0, k), labels={"one": [k - 1], "all": range(k)})
    label = draw(st.sampled_from([None, "one", "all"]))
    g = GuidanceSpec(positive=label, negative=draw(st.sampled_from([None, "one"])),
                     scale=draw(st.sampled_from([0.0, 1.0, 7.5])))
    t = draw(st.integers(0, schedule.num_steps))
    x = rng.normal(size=(b, d)) * draw(st.sampled_from([0.1, 1.0, 30.0]))

    def rows_agree(call) -> None:
        """call(points) on the batch equals call on each row: every array it
        returns, and the evaluations it counts."""
        before = oracle.eps_evals
        batch = call(x)
        calls = oracle.eps_evals - before
        for i in range(b):
            before = oracle.eps_evals
            row = call(x[i])
            calls -= oracle.eps_evals - before
            assert all(same_bits(got[i], want) for got, want in zip(batch, row))
        assert calls == 0

    rows_agree(lambda p: [oracle.eps_predict(schedule, p, t, label),
                          oracle.log_density(schedule, p, t, label)])
    rows_agree(lambda p: [oracle.eps_guided(schedule, p, t, g)])
    # walks of at most 8 hops; t >= 2 leaves room for an interval and a stride
    t = max(t, 2)
    stride = -(-t // draw(st.integers(1, 8)))

    def walked(traj: Trajectory) -> list:
        return [*traj.latents, *traj.eps_cache]

    rows_agree(lambda p: walked(invert_along(oracle, schedule, p, inversion_grid(t, stride))))
    rows_agree(lambda p: walked(denoise_path(oracle, schedule, p, t, stride, g)))
    delta_t = draw(st.integers(1, t - 1))
    delta_s = -(-(t - delta_t) // draw(st.integers(1, 8)))
    eps = rng.standard_normal((b, d))
    for objective in (lambda p, e: sds_gradient(oracle, schedule, p, t, e, g),
                      lambda p, e: ism_gradient(oracle, schedule, p, t, delta_t, delta_s, g),
                      lambda p, e: naive_gradient(oracle, schedule, p, t,
                                                  max(delta_t, stride), g)):
        reports = [objective(x, eps), *(objective(x[i], eps[i]) for i in range(b))]
        for field in ("grad_x0", "pseudo_gt"):
            assert same_bits(getattr(reports[0], field),
                             np.stack([getattr(r, field) for r in reports[1:]]))
        assert reports[0].oracle_calls == sum(r.oracle_calls for r in reports[1:])

    bad = x.copy()
    bad[draw(st.integers(0, b - 1)), draw(st.integers(0, d - 1))] = draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(NumericalError, match="^non-finite input point$"):
        oracle.eps_predict(schedule, bad, t, label)
    for points, step, kind in ((np.zeros((b, d + 1)), t, ValueError),
                               (x, schedule.num_steps + 1, IndexError)):
        errors = []
        for p in (points, points[0]):
            with pytest.raises(kind) as info:
                oracle.eps_predict(schedule, p, step, label)
            errors.append(str(info.value).replace(str(p.shape), "<shape>"))
        assert errors[0] == errors[1]
