import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismlab import (
    ConfigError,
    IdentityLatent,
    MixtureOracle,
    SplatGenerator,
    ViewJitterSpec,
    canonical_view,
    sample_view,
)
from ismlab.config import build_distill, build_generator
from ismlab.distill import DistillState, distill_step
from ismlab.experiments import fd_gradient
from ismlab.generators import random_scene


def splat(center, log_scale, rotation, color, logit_opacity, depth=0.0):
    return dict(center=center, log_scale=log_scale, rotation=rotation,
                color=color, logit_opacity=logit_opacity, depth=depth)


def row(s):
    """The SplatGenerator row of a splat dict."""
    return [*s["center"], *s["log_scale"], s["rotation"], *s["color"], s["logit_opacity"]]


def build(splats, background):
    """SplatGenerator from a plain list of splat dicts, put front to back by depth."""
    return SplatGenerator([row(s) for s in sorted(splats, key=lambda s: s["depth"])], background)


def brute_force_render(splats, background, view):
    """Independent scalar rasteriser: per-pixel back-to-front 'over' compositing
    in extended precision, covariance projected through the camera."""
    ld = np.longdouble
    h, w, c = view.height, view.width, len(background)
    a = np.asarray(view.linear, dtype=ld)
    b = np.asarray(view.offset, dtype=ld)
    order = sorted(range(len(splats)), key=lambda i: (splats[i]["depth"], i))
    out = np.zeros((h, w, c), dtype=ld)
    for yy in range(h):
        for xx in range(w):
            p = np.array([xx + 0.5, yy + 0.5], dtype=ld)
            color = np.asarray(background, dtype=ld).copy()
            for idx in reversed(order):  # back to front
                s = splats[idx]
                ang = ld(s["rotation"])
                rot = np.array([[np.cos(ang), -np.sin(ang)],
                                [np.sin(ang), np.cos(ang)]], dtype=ld)
                scales = np.exp(np.asarray(s["log_scale"], dtype=ld))
                cov_scene = rot @ np.diag(scales ** 2) @ rot.T
                cov_img = a @ cov_scene @ a.T
                center_img = a @ np.asarray(s["center"], dtype=ld) + b
                d = p - center_img
                q = d @ np.linalg.inv(np.asarray(cov_img, dtype=float)) @ d
                opacity = ld(1.0) / (ld(1.0) + np.exp(-ld(s["logit_opacity"])))
                alpha = opacity * np.exp(-q / 2)
                color = alpha * np.asarray(s["color"], dtype=ld) + (1 - alpha) * color
            out[yy, xx] = color
    return out.astype(float).ravel()


def three_splats():
    return [
        splat([-0.3, 0.2], [math.log(0.3), math.log(0.18)], 0.4, [0.9], 0.5, depth=0.0),
        splat([0.4, -0.1], [math.log(0.22), math.log(0.4)], -1.1, [0.3], 1.2, depth=1.0),
        splat([0.0, -0.5], [math.log(0.5), math.log(0.12)], 2.0, [0.6], -0.4, depth=2.0),
    ]


def three_splat_scene():
    return build(three_splats(), [0.1])


def view_rotation_angle(view, jitter):
    """Recover the scene-side rotation of a jittered view."""
    base = canonical_view(jitter.width, jitter.height)
    m = np.linalg.solve(base.linear, view.linear)
    return math.atan2(m[1, 0], m[0, 0])


def test_transparent_scene_is_background():
    splats = three_splats()
    for s in splats:
        s["logit_opacity"] = -20.0
    img = build(splats, [0.1]).render(canonical_view(8, 8))
    assert np.abs(img - 0.1).max() < 1e-7


def test_saturated_splat_covers_center():
    gen = build([splat([0.0, 0.0], [3.0, 3.0], 0.0, [1.0], 20.0)], [0.0])
    img = gen.render(canonical_view(9, 9)).reshape(9, 9)
    assert img[4, 4] >= 0.99


def test_render_matches_brute_force_compositor():
    splats = three_splats()[::-1]     # both sides must sort by depth
    view = canonical_view(16, 16)
    fast = build(splats, [0.1]).render(view)
    slow = brute_force_render(splats, [0.1], view)
    assert np.abs(fast - slow).max() < 1e-6


def test_render_rgb_channels():
    splats = [splat([0.0, 0.0], [-0.5, -0.5], 0.0, [1.0, 0.2, 0.0], 2.0)]
    background = [0.0, 0.0, 1.0]
    view = canonical_view(4, 4)
    fast = build(splats, background).render(view)
    slow = brute_force_render(splats, background, view)
    assert fast.shape == (4 * 4 * 3,)
    assert np.abs(fast - slow).max() < 1e-6


def test_permutation_invariance_bitwise():
    """A config's generator.splats go front to back by depth: any list order of
    distinct depths builds the same scene, and equal depths keep their list order."""
    def scene(splats):
        return build_generator({"generator": {"kind": "splats", "splats": splats,
                                              "background": [0.1]}})

    base = three_splat_scene()
    view = canonical_view(12, 12)
    s = three_splats()
    permuted = scene([s[2], s[0], s[1]])
    assert np.array_equal(permuted.get_params(), base.get_params())
    assert np.array_equal(permuted.render(view), base.render(view))
    tied = dict(s[2], depth=s[0]["depth"])
    for given, front_to_back in (([tied, s[1], s[0]], [tied, s[0], s[1]]),
                                 ([s[0], s[1], tied], [s[0], tied, s[1]])):
        assert np.array_equal(scene(given).get_params(), SplatGenerator(
            [row(t) for t in front_to_back], [0.1]).get_params())


def test_render_deterministic_bitwise():
    gen = three_splat_scene()
    view = canonical_view(12, 12)
    assert np.array_equal(gen.render(view), gen.render(view))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_compositing_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    gen = random_scene(4, 1, seed=seed, background=rng.uniform(0.0, 1.0, size=1))
    img = gen.render(canonical_view(8, 8))
    assert np.all(img >= 0.0) and np.all(img <= 1.0)


def test_backward_zero_gradient():
    grads = three_splat_scene().backward(canonical_view(8, 8), np.zeros(64))
    assert grads.shape == (3 * 7 + 1,)
    assert np.all(grads == 0)


def test_backward_transparent_splat_structure():
    gen = build([splat([0.0, 0.0], [1.0, 1.0], 0.0, [0.7], -30.0)], [0.2])
    grads = gen.backward(canonical_view(8, 8), np.ones(64))
    assert abs(grads[5]) < 1e-10      # color
    assert grads[6] != 0.0            # logit_opacity


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(0)
    for k in range(20):
        gen = random_scene(3, 1, seed=k, background=rng.uniform(0.2, 0.8, 1))
        view = canonical_view(16, 16)
        grad_img = rng.standard_normal(16 * 16)
        analytic = gen.backward(view, grad_img)

        def loss(rows):
            keep = gen.get_params()
            vals = []
            for p in rows:
                gen.set_params(p)
                vals.append(float(grad_img @ gen.render(view)))
            gen.set_params(keep)
            return np.array(vals)

        fd = fd_gradient(loss, gen.get_params(), 1e-4)
        floor = 1e-6 * max(1.0, float(np.abs(fd).max()))
        rel = np.abs(analytic - fd) / np.maximum(
            np.maximum(np.abs(fd), np.abs(analytic)), floor)
        assert rel.max() < 1e-4


def test_backward_dimension_mismatch():
    with pytest.raises(ValueError):
        three_splat_scene().backward(canonical_view(8, 8), np.zeros(10))


def test_zero_jitter_gives_canonical_view():
    for width, height in [(10, 6), (16, 16), (1, 7)]:
        base = canonical_view(width, height)
        for seed in [123, *range(100)]:
            view = sample_view(seed, ViewJitterSpec(width=width, height=height))
            assert np.array_equal(view.affine, base.affine)
            assert view.affine.tobytes() == base.affine.tobytes()
            assert (view.width, view.height) == (width, height)


def test_same_seed_same_view():
    spec = ViewJitterSpec(rotation_max=0.3, zoom_min=0.8, zoom_max=1.2, shift_max=0.2)
    a = sample_view(7, spec)
    b = sample_view(7, spec)
    assert np.array_equal(a.affine, b.affine)


def test_rotation_jitter_is_centered():
    spec = ViewJitterSpec(rotation_max=0.3)
    angles = [view_rotation_angle(sample_view(seed, spec), spec)
              for seed in range(1000)]
    mean = float(np.mean(angles))
    sigma_mean = (0.3 / math.sqrt(3)) / math.sqrt(1000)
    assert abs(mean) < 3 * sigma_mean


def test_jitter_spec_validation():
    with pytest.raises(ConfigError):
        ViewJitterSpec(rotation_max=-0.1)
    with pytest.raises(ConfigError):
        ViewJitterSpec(zoom_min=0.0)
    with pytest.raises(ConfigError):
        ViewJitterSpec(zoom_min=1.2, zoom_max=0.9)


def test_degenerate_view_rejected():
    view = canonical_view(8, 8)
    bad = view.__class__(affine=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                         width=8, height=8)
    with pytest.raises(ConfigError):
        three_splat_scene().render(bad)


def test_identity_latent_generator():
    gen = IdentityLatent([0.5, -0.5])
    assert gen.n_params == 2
    assert np.array_equal(gen.render(None), [0.5, -0.5])
    assert np.array_equal(gen.backward(None, np.array([1.0, 2.0])), [1.0, 2.0])
    gen.set_params([3.0, 4.0])
    assert gen.get_params().tolist() == [3.0, 4.0]
    assert gen.image_shape(ViewJitterSpec()) is None
    with pytest.raises(ConfigError, match="must be finite"):
        IdentityLatent([0.5, math.nan])


def test_splat_generator_param_round_trip():
    gen = three_splat_scene()
    params = gen.get_params()
    assert params.shape == (3 * 7 + 1,)
    gen.set_params(params)
    assert np.array_equal(gen.get_params(), params)
    # colors and background are clamped to the unit interval
    pushed = params.copy()
    pushed[5] = 2.0       # first splat color
    pushed[-1] = -0.5     # background
    gen.set_params(pushed)
    clamped = gen.get_params()
    assert clamped[5] == 1.0 and clamped[-1] == 0.0
    assert np.array_equal(SplatGenerator(pushed[:-1].reshape(3, 7), pushed[-1:]).get_params(),
                          clamped)  # the constructor sets its parameters the same way
    assert gen.image_shape(ViewJitterSpec(width=16, height=16)) == (16, 16, 1)
    with pytest.raises(ValueError, match="expected 22 parameters, got 21"):
        gen.set_params(params[:-1])
    rows = params[:-1].reshape(3, 7)
    for bad in (rows[:, :6], rows[:0], rows.ravel()):  # wrong width, no splats, not 2-D
        with pytest.raises(ConfigError, match="splat rows"):
            SplatGenerator(bad, [0.5])


def fresh_copy(gen):
    """A generator with gen's parameters and no forward pass held."""
    c = gen.channels
    theta = gen.get_params()
    return SplatGenerator(theta[:-c].reshape(-1, 6 + c), theta[-c:])


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


WIDE_JITTER = dict(rotation_max=1.0, zoom_min=0.5, zoom_max=2.0, shift_max=0.5)


@st.composite
def scenes_and_views(draw):
    """A random scene of 1-8 splats with 1-3 channels, two jittered views of
    one size in 1..12 x 1..12, an image gradient and other parameters."""
    n, c = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    spec = ViewJitterSpec(**WIDE_JITTER, width=draw(st.integers(1, 12)),
                          height=draw(st.integers(1, 12)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    gen = random_scene(n, c, seed=seed, background=rng.uniform(0.0, 1.0, c))
    grad = rng.standard_normal(spec.width * spec.height * c)
    other = gen.get_params() + rng.normal(0.0, 0.1, gen.n_params)
    return gen, sample_view(seed, spec), sample_view(seed + 1, spec), grad, other


@given(case=scenes_and_views())
@settings(max_examples=60, deadline=None)
def test_backward_reuses_only_the_matching_render(case):
    """backward after render of the same View object reuses its forward pass
    and is bitwise the backward of a generator that never rendered; another
    view, or parameters set since, make it recompute."""
    gen, v1, v2, grad, other = case
    want_v1 = fresh_copy(gen).backward(v1, grad)
    want_v2 = fresh_copy(gen).backward(v2, grad)
    gen.render(v1)
    assert_same_bits(gen.backward(v1, grad), want_v1)
    assert_same_bits(gen.backward(v1, grad), want_v1)
    gen.render(v1)
    assert_same_bits(gen.backward(v2, grad), want_v2)
    gen.render(v1)
    gen.set_params(other)
    assert_same_bits(gen.backward(v1, grad), fresh_copy(gen).backward(v1, grad))


def test_pixel_centers_are_solved_once_and_read_only():
    view = sample_view(3, ViewJitterSpec(**WIDE_JITTER, width=5, height=4))
    z = view.pixel_centers
    assert z is view.pixel_centers and z.shape == (2, 20) and z.flags.c_contiguous
    gx, gy = np.meshgrid(np.arange(5) + 0.5, np.arange(4) + 0.5)
    pix = (view.linear @ z).T + view.offset
    assert np.allclose(pix, np.stack([gx.ravel(), gy.ravel()], axis=1), rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        z[0, 0] = 0.0


def test_jittered_view_batch_step_sums_fresh_backward_calls(schedule):
    """One distill_step over two jittered views accumulates, bit for bit, the
    sum of each view's backward on a generator that never rendered."""
    rng = np.random.default_rng(4)
    oracle = MixtureOracle(means=rng.uniform(0.0, 1.0, (2, 30)), sigmas=[0.2, 0.2],
                           weights=[0.5, 0.5], labels={"a": [0], "b": [1]})
    cfg = build_distill({
        "distill": {"objective": "ism", "iterations": 1, "t_min": 220, "t_max": 600,
                    "delta_T_start": 200, "delta_T_end": 50, "delta_S": 50,
                    "view_batch": 2, "seed": 5},
        "guidance": {"positive": "a", "scale": 7.5}, "view": {"width": 6, "height": 5},
        "jitter": WIDE_JITTER})
    gen = random_scene(4, 1, seed=2, background=[0.3])
    state = DistillState(gen, cfg)
    before = fresh_copy(gen)
    calls, steps = [], []
    backward, adam_step = gen.backward, state.adam.step
    gen.backward = lambda view, g: (calls.append((view, g)), backward(view, g))[1]
    state.adam.step = lambda params, grad: (steps.append(grad), adam_step(params, grad))[1]
    distill_step(state, oracle, schedule, cfg, 0, 400, gen.render(state.cview), 0.0)
    assert len(calls) == 2 and calls[0][0] is not calls[1][0]
    assert not any(np.array_equal(view.affine, state.cview.affine) for view, _ in calls)
    want = np.zeros(gen.n_params)
    for view, g in calls:
        want += fresh_copy(before).backward(view, g)
    assert_same_bits(steps[0], want)
