"""The tabulated schedule and the memoised oracle constants reproduce the
plain formulas bit for bit, the distillation step's bookkeeping reproduces
numpy's norm, sum and out-of-place Adam bit for bit, and the splat backward
pass reproduces its plain formulas to 1e-12 relative and the render to
1e-15 absolute.

The reference functions below recompute every square root and per-label
constant on each call, exactly as the oracle and transport did before the
tables and the memo existed; the step references call np.linalg.norm and
np.sum and rebuild Adam's moments out of place, as the step did before it
skipped numpy's Python wrappers; and the splat references recompute the
forward pass from the splat rows with an einsum exponent and a cumprod
transmittance, as the renderer did before per-splat planes, and form the
geometric partials per pixel, as the backward pass did before it reused the
render and summed over pixels first. They are kept here as the judge.
"""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismlab import (
    AdamOptimizer,
    GuidanceSpec,
    MixtureOracle,
    NumericalError,
    OptimConfig,
    ViewJitterSpec,
    make_schedule,
    sample_view,
)
from ismlab.distill import nearest_mode_distance, norm, squared_distances
from ismlab.generators import (
    CENTER,
    COLOR,
    LOG_SCALE,
    LOGIT_OPACITY,
    ROTATION,
    random_scene,
)
from ismlab.objectives import (
    interval_pieces,
    ism_gradient,
    naive_gradient,
    sds_gradient,
)
from ismlab.trajectory import denoise_path, hop, invert_along


def _sa(sch, t):
    return math.sqrt(sch.ab[t])


def _s1(sch, t):
    return math.sqrt(1.0 - sch.ab[t])


def ref_eps_predict(o, sch, x, t, label):
    if t == 0:
        return np.zeros(o.dim)
    if label is None:
        idx, logw = np.arange(len(o.means)), np.log(o.weights)
    else:
        idx = np.asarray(o.labels[label])
        w = o.weights[idx]
        logw = np.log(w / w.sum())
    ab = sch.ab[t]
    mu = math.sqrt(ab) * o.means[idx]
    var = ab * o.sigmas[idx] ** 2 + (1.0 - ab)
    diff = x[None, :] - mu
    sq = np.einsum("kd,kd->k", diff, diff)
    logs = logw - 0.5 * o.dim * np.log(2.0 * math.pi * var) - sq / (2.0 * var)
    m = logs.max()
    resp = np.exp(logs - m)
    resp /= resp.sum()
    score = -(resp / var) @ diff
    return -_s1(sch, t) * score


def ref_eps_guided(o, sch, x, t, g):
    if g.scale == 1.0:
        return ref_eps_predict(o, sch, x, t, g.positive)
    if g.scale == 0.0:
        return ref_eps_predict(o, sch, x, t, g.negative)
    eps_neg = ref_eps_predict(o, sch, x, t, g.negative)
    eps_pos = ref_eps_predict(o, sch, x, t, g.positive)
    return eps_neg + g.scale * (eps_pos - eps_neg)


def ref_add_noise(sch, x0, t, eps):
    return _sa(sch, t) * x0 + _s1(sch, t) * eps


def ref_pseudo_gt_single(sch, xt, t, eps):
    return (xt - _s1(sch, t) * eps) / _sa(sch, t)


def ref_hop(sch, x, a, b, eps):
    """The single-step estimate at a noised forward to b; at the clean level
    0 the estimate is x itself and a landing there is the estimate itself."""
    x0_hat = ref_pseudo_gt_single(sch, x, a, eps) if a else x
    return ref_add_noise(sch, x0_hat, b, eps) if b else x0_hat


def ref_splat_forward(rows, background, view, pixels_last=True):
    """The splat forward pass from the rows alone: the frame w = R^T (z - center)
    as one batched matmul, the exponent contracted with einsum and the
    transmittance as a cumprod over the splats stacked under a row of ones.
    With pixels_last the frame is R^T @ (z - center) over (N, 2, P), as the
    renderer forms it; without, (z - center) @ R over (N, P, 2), as it did
    before per-splat planes. Returns the (P, C) image and the intermediates,
    the frame as (N, P, 2)."""
    z = view.pixel_centers
    cos, sin = np.cos(rows[:, ROTATION]), np.sin(rows[:, ROTATION])
    rot = np.array([[cos, -sin], [sin, cos]]).transpose(2, 0, 1)
    if pixels_last:
        rot_t = np.array([[cos, sin], [-sin, cos]]).transpose(2, 0, 1)
        w = (rot_t @ (z[None, :, :] - rows[:, CENTER, None])).transpose(0, 2, 1)
    else:
        w = (z.T[None, :, :] - rows[:, None, CENTER]) @ rot
    inv_var = np.exp(-2.0 * rows[:, LOG_SCALE])
    q = np.einsum("npk,nk->np", w * w, inv_var)
    opacity = 1.0 / (1.0 + np.exp(-rows[:, LOGIT_OPACITY]))
    alphas = opacity[:, None] * np.exp(-0.5 * q)
    trans = np.cumprod(1.0 - alphas, axis=0)
    t_excl = np.vstack([np.ones((1, alphas.shape[1])), trans[:-1]])
    img = (alphas * t_excl).T @ rows[:, COLOR] + trans[-1][:, None] * background[None, :]
    return img, (w, rot, inv_var, opacity, alphas, t_excl, trans[-1])


def ref_splat_backward(gen, view, grad_output):
    """SplatGenerator.backward with its forward pass recomputed by
    ref_splat_forward, a fresh array per step of the behind recurrence, and
    the geometric partials as per-pixel derivatives contracted with einsum."""
    c = gen.channels
    grad_image = np.asarray(grad_output, dtype=float).reshape(view.width * view.height, c)
    rows, background = gen._rows(), gen.theta[-c:]
    _, (w, rot, inv_var, opacity, alphas, t_excl, t_last) = ref_splat_forward(rows, background, view)
    colors = rows[:, COLOR]
    n = rows.shape[0]
    behind = np.empty((n,) + grad_image.shape)
    behind[n - 1] = background[None, :]
    for i in range(n - 1, 0, -1):
        a = alphas[i][:, None]
        behind[i - 1] = colors[i][None, :] * a + (1.0 - a) * behind[i]
    g_alpha = t_excl * np.einsum("pc,npc->np", grad_image, colors[:, None, :] - behind)
    g_q = -0.5 * alphas * g_alpha
    grad = np.empty_like(gen.theta)
    g_rows = grad[:-c].reshape(rows.shape)
    dq_dcenter = -2.0 * (w * inv_var[:, None, :]) @ rot.transpose(0, 2, 1)
    g_rows[:, CENTER] = np.einsum("np,npk->nk", g_q, dq_dcenter)
    g_rows[:, LOG_SCALE] = -2.0 * np.einsum("np,npk->nk", g_q, w * w) * inv_var
    g_rows[:, ROTATION] = 2.0 * np.einsum("np,np->n", g_q, w[..., 0] * w[..., 1]) \
        * (inv_var[:, 0] - inv_var[:, 1])
    g_rows[:, COLOR] = (alphas * t_excl) @ grad_image
    g_rows[:, LOGIT_OPACITY] = (g_alpha * alphas).sum(axis=1) * (1.0 - opacity)
    grad[-c:] = grad_image.T @ t_last
    return grad


def ref_norm(v):
    return float(np.linalg.norm(v))


def ref_nearest_mode_distance(means, x):
    return float(np.min(np.linalg.norm(means - x[None, :], axis=1)))


def ref_squared_distance(a, b):
    return float(np.sum((a - b) ** 2))


class RefAdam:
    """AdamOptimizer with its moments rebuilt out of place on every step."""

    def __init__(self, n_params, cfg):
        self.cfg, self.m, self.v, self.k = cfg, np.zeros(n_params), np.zeros(n_params), 0

    def step(self, params, grad):
        c = self.cfg
        self.k += 1
        self.m = c.beta1 * self.m + (1.0 - c.beta1) * grad
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * grad * grad
        m_hat = self.m / (1.0 - c.beta1 ** self.k)
        v_hat = self.v / (1.0 - c.beta2 ** self.k)
        return params - c.step_size * m_hat / (np.sqrt(v_hat) + c.eps_hat)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def mixtures(draw):
    """An oracle with K in 1..4 components in D in 1..8 dimensions, a
    single-component label per component and one random subset label."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 8))
    coords = st.floats(-3.0, 3.0, allow_nan=False)
    means = [[draw(coords) for _ in range(d)] for _ in range(k)]
    sigmas = [draw(st.floats(1e-5, 2.0)) for _ in range(k)]
    weights = [draw(st.floats(0.05, 10.0)) for _ in range(k)]
    labels = {f"c{i}": [i] for i in range(k)}
    labels["sub"] = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    return MixtureOracle(means, sigmas, weights, labels)


schedules = st.builds(
    make_schedule,
    st.integers(2, 60),
    st.floats(1e-4, 0.05),
    st.floats(0.05, 0.3),
    st.sampled_from(["unit", "one_minus_alpha_bar"]),
)
scales = st.one_of(st.just(0.0), st.just(1.0), st.floats(-3.0, 10.0, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(o=mixtures(), sch=schedules, data=st.data())
def test_fast_path_matches_reference_bitwise(o, sch, data):
    labels = [None] + sorted(o.labels)
    d = o.dim
    x = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d)))
    eps = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
    t = data.draw(st.integers(0, sch.num_steps))
    label = data.draw(st.sampled_from(labels))
    g = GuidanceSpec(positive=data.draw(st.sampled_from(labels)),
                     negative=data.draw(st.sampled_from(labels)),
                     scale=data.draw(scales))

    # twice, so the second call reads the memo the first one filled
    for _ in range(2):
        assert_same_bits(o.eps_predict(sch, x, t, label), ref_eps_predict(o, sch, x, t, label))
        assert_same_bits(o.eps_guided(sch, x, t, g), ref_eps_guided(o, sch, x, t, g))

    assert sch.sab[t] == _sa(sch, t)
    assert sch.s1mab[t] == _s1(sch, t)
    assert sch.nsr[t] == _s1(sch, t) / _sa(sch, t)
    assert sch.omega[t] == (1.0 if sch.omega_kind == "unit" else 1.0 - sch.ab[t])
    t_to = data.draw(st.integers(0, sch.num_steps))
    assert_same_bits(hop(sch, x, t, t_to, eps), ref_hop(sch, x, t, t_to, eps))
    if t >= 1:
        assert_same_bits(hop(sch, x, 0, t, eps), ref_add_noise(sch, x, t, eps))
        assert_same_bits(hop(sch, x, t, 0, eps), ref_pseudo_gt_single(sch, x, t, eps))


def test_one_oracle_alternating_two_schedules(mixture3):
    """The memo is per schedule: interleaved calls under two schedules at the
    same timesteps and labels each match their own schedule's reference."""
    a = make_schedule(1000)
    b = make_schedule(1000, 2e-5, 0.00045)
    x = np.array([0.3, -0.4])
    for t in (1, 10, 500, 1000, 10, 1):
        for label in (None, "a", "ab"):
            for sch in (a, b, a):
                assert_same_bits(mixture3.eps_predict(sch, x, t, label),
                                 ref_eps_predict(mixture3, sch, x, t, label))


def test_schedule_built_after_another_is_dropped(mixture3):
    """A schedule made after an earlier one is released never reads the
    earlier schedule's memoised constants."""
    x = np.array([0.3, -0.4])
    for i in range(20):
        sch = make_schedule(50, 1e-3 * (i + 1), 0.2)
        assert_same_bits(mixture3.eps_predict(sch, x, 25, "ab"),
                         ref_eps_predict(mixture3, sch, x, 25, "ab"))
        del sch


def test_memo_is_bounded_by_timesteps_times_labels(mixture3, schedule):
    """Each label memoises one entry per noise level it evaluated (t = 0
    returns zeros and evaluates none), however often it is called."""
    x = np.array([0.3, -0.4])
    for _ in range(3):
        for t in range(schedule.num_steps + 1):
            for label in (None, "a", "b", "c", "ab"):
                mixture3.eps_predict(schedule, x, t, label)
    levels = len(set(schedule.ab[1:]))
    assert levels == schedule.num_steps
    assert [len(terms.consts) for terms in mixture3._terms.values()] == [levels] * 5


def test_memo_holds_no_schedule_and_equal_levels_share_entries(mixture3):
    """The memo is keyed by noise level, not by schedule: a schedule the
    oracle evaluated is freed once released, and 100 equal schedules read
    the entries its levels left and add none."""
    x = np.array([0.3, -0.4])
    sch = make_schedule(50, 1e-3, 0.2)
    for t in range(1, 51):
        mixture3.eps_predict(sch, x, t, "ab")
    ref = weakref.ref(sch)
    del sch
    gc.collect()
    assert ref() is None
    assert len(mixture3._terms["ab"].consts) == 50
    for _ in range(100):
        sch = make_schedule(50, 1e-3, 0.2)
        for t in (1, 25, 50):
            assert_same_bits(mixture3.eps_predict(sch, x, t, "ab"),
                             ref_eps_predict(mixture3, sch, x, t, "ab"))
    assert [len(terms.consts) for terms in mixture3._terms.values()] == [0, 0, 0, 0, 50]


def test_negative_timestep_is_rejected_not_wrapped(mixture3, schedule):
    """Every function that indexes the tables checks the timestep first."""
    x = np.zeros(2)
    for call in (lambda: mixture3.eps_predict(schedule, x, -1),
                 lambda: mixture3.log_density(schedule, x, -1),
                 lambda: hop(schedule, x, -1, 5, x),
                 lambda: hop(schedule, x, 5, -1, x),
                 lambda: hop(schedule, x, 0, -1, x),
                 lambda: hop(schedule, x, -1, 0, x)):
        with pytest.raises(IndexError):
            call()


def test_single_component_score_stays_finite_where_softmax_overflowed(mixture3, schedule):
    """At |x| = 1e200, |x - mu|^2 overflows. The softmax form returned NaN
    there even for a single-component label; the single-component path
    returns the exact single-Gaussian prediction
    sqrt(1 - ab) * (x - sqrt(ab) mu) / var."""
    x = np.full(2, 1e200)
    t = 300
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(ref_eps_predict(mixture3, schedule, x, t, "a")).all()
        # several components still go through the softmax, as before
        assert np.isnan(mixture3.eps_predict(schedule, x, t, "ab")).all()
    got = mixture3.eps_predict(schedule, x, t, "a")
    ab = schedule.ab[t]
    var = ab * mixture3.sigmas[0] ** 2 + (1.0 - ab)
    want = math.sqrt(1.0 - ab) * (x - math.sqrt(ab) * mixture3.means[0]) / var
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def splat_case(n, c, width, height, seed):
    """A seeded scene with a drawn background and a widely jittered view."""
    rng = np.random.default_rng(seed)
    gen = random_scene(n, c, seed=seed, background=rng.uniform(0.0, 1.0, c))
    view = sample_view(seed, ViewJitterSpec(rotation_max=1.0, zoom_min=0.5, zoom_max=2.0,
                                            shift_max=0.5, width=width, height=height))
    return gen, view, rng


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 32), c=st.integers(1, 3), width=st.integers(1, 16),
       height=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_splat_render_matches_reference(n, c, width, height, seed):
    """The render agrees with the (N, P, 2) frame, einsum exponent and cumprod
    transmittance it had before per-splat planes to 1e-15 absolute (its
    frame matmul runs over the other orientation), and equals the same pass
    over the (N, 2, P) frame bit for bit."""
    gen, view, _ = splat_case(n, c, width, height, seed)
    got = gen.render(view)
    rows, background = gen._rows(), gen.theta[-c:]
    before = ref_splat_forward(rows, background, view, pixels_last=False)[0].ravel()
    assert np.abs(got - before).max() <= 1e-15
    assert_same_bits(got, ref_splat_forward(rows, background, view)[0].ravel())


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), c=st.integers(1, 3), width=st.integers(1, 12),
       height=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_splat_backward_matches_reference(n, c, width, height, seed):
    """Geometric partials (center, log-scale, rotation) sum in another order
    and agree to 1e-12 of the largest of them; color, opacity and background
    partials, and so the behind recurrence, are bitwise equal. Checked with
    the forward pass recomputed and with it reused from render."""
    gen, view, rng = splat_case(n, c, width, height, seed)
    grad_image = rng.standard_normal(width * height * c)
    want = ref_splat_backward(gen, view, grad_image)
    rows = want[:-c].reshape(n, 6 + c)
    scale = max(float(np.abs(rows[:, :5]).max()), np.finfo(float).tiny)
    for reuse in (False, True):
        if reuse:
            gen.render(view)
        got = gen.backward(view, grad_image)
        got_rows = got[:-c].reshape(n, 6 + c)
        assert np.abs(got_rows[:, :5] - rows[:, :5]).max() <= 1e-12 * scale
        assert_same_bits(got_rows[:, 5:], rows[:, 5:])
        assert_same_bits(got[-c:], want[-c:])


def signed_vector(data, rng, d):
    """A length-d vector at a drawn scale with -0.0 and 0.0 written at drawn
    shares of its positions (none, some or all of them)."""
    v = rng.standard_normal(d) * data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    v[rng.random(d) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    v[rng.random(d) < data.draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return v


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 300), k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_step_bookkeeping_matches_numpy_bitwise(d, k, seed, data):
    """The gradient norm, the loss proxy's squared distance, the nearest-mode
    distance and the in-place Adam step give numpy's bits, signed zeros
    included."""
    rng = np.random.default_rng(seed)
    a, b = signed_vector(data, rng, d), signed_vector(data, rng, d)
    assert_same_bits(norm(a), ref_norm(a))
    assert_same_bits(float(squared_distances(a, b)), ref_squared_distance(a, b))

    means = np.array([signed_vector(data, rng, d) for _ in range(k)])
    o = MixtureOracle(means, [0.1] * k, [1.0] * k, {"sub": sorted({0, k - 1})})
    for label in (None, "sub"):
        assert_same_bits(nearest_mode_distance(o, label, a),
                         ref_nearest_mode_distance(o.label_means(label), a))

    cfg = OptimConfig(step_size=data.draw(st.floats(1e-4, 1.0)),
                      beta1=data.draw(st.floats(0.0, 0.999)),
                      beta2=data.draw(st.floats(0.0, 0.9999)),
                      eps_hat=data.draw(st.sampled_from([1e-8, 1e-3])))
    adam, ref = AdamOptimizer(d, cfg), RefAdam(d, cfg)
    params = ref_params = signed_vector(data, rng, d)
    for _ in range(data.draw(st.integers(1, 6))):
        grad = signed_vector(data, rng, d)
        params, ref_params = adam.step(params, grad), ref.step(ref_params, grad)
        assert_same_bits(params, ref_params)
        assert_same_bits(adam.m, ref.m)
        assert_same_bits(adam.v, ref.v)


@settings(max_examples=150, deadline=None)
@given(sch=schedules, b=st.integers(1, 8), d=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_single_step_hops_match_reference_on_signed_zero_rows(sch, b, d, seed, data):
    """Forward noising, hop(0 -> t), and the single-step clean estimate,
    hop(t -> 0), give the bits of the plain formulas on (B, D) rows with
    signed zeros in the point and the prediction, and so does sds_gradient's
    target. A -0.0 point under a -0.0 prediction is the case that adding a
    zero term at the clean level would flip."""
    rng = np.random.default_rng(seed)
    t = data.draw(st.integers(1, sch.num_steps))
    x = signed_vector(data, rng, b * d).reshape(b, d)
    eps = signed_vector(data, rng, b * d).reshape(b, d)
    zeros = np.array([-0.0, -0.0, 0.0, 0.0])
    for p, e in ((x, eps), (zeros, zeros[::-1]), (zeros, zeros)):
        assert_same_bits(hop(sch, p, 0, t, e), ref_add_noise(sch, p, t, e))
        assert_same_bits(hop(sch, p, t, 0, e), ref_pseudo_gt_single(sch, p, t, e))

    o = MixtureOracle(np.zeros((1, d)), [0.5], [1.0])
    g = GuidanceSpec(positive=None, scale=1.0)
    report = sds_gradient(o, sch, x, t, eps, g)
    xt = ref_add_noise(sch, x, t, eps)
    assert_same_bits(report.pseudo_gt,
                     ref_pseudo_gt_single(sch, xt, t, o.eps_guided(sch, xt, t, g)))


def test_checks_raise_as_when_every_hop_was_checked(mixture3, schedule):
    """A non-finite point and an out-of-range timestep raise the same error
    types and messages from the oracle, hop and the walks as when every hop
    of a walk was checked, and an out-of-range timestep the same from the
    objectives as when each function they call re-checked it. hop never
    checked finiteness and still carries a non-finite point through; a walk
    that makes a non-finite latent stops at the next node."""
    x, bad = np.array([0.3, -0.4]), np.array([np.nan, 0.0])
    g = GuidanceSpec(positive="a", scale=7.5)
    nonfinite = (NumericalError, "non-finite input point")
    cases = [
        (lambda: mixture3.eps_predict(schedule, bad, 5), nonfinite),
        (lambda: mixture3.eps_predict(schedule, np.array([np.inf, 0.0]), 1001, "zz"), nonfinite),
        (lambda: mixture3.eps_predict(schedule, x, 1001, "zz"),
         (IndexError, "timestep 1001 outside [0, 1000]")),
        (lambda: mixture3.eps_predict(schedule, x, -1), (IndexError, "timestep -1 outside [0, 1000]")),
        (lambda: mixture3.eps_predict(schedule, x[:1], 5),
         (ValueError, "expected point of shape (2,), got (1,)")),
        (lambda: mixture3.eps_guided(schedule, bad, 5, g), nonfinite),
        (lambda: mixture3.log_density(schedule, bad, 5), nonfinite),
        (lambda: mixture3.log_density(schedule, x, 1001), (IndexError, "timestep 1001 outside [0, 1000]")),
        (lambda: hop(schedule, x, 1001, 5, x), (IndexError, "timestep 1001 outside [0, 1000]")),
        (lambda: hop(schedule, bad, 5, -1, x), (IndexError, "timestep -1 outside [0, 1000]")),
        (lambda: invert_along(mixture3, schedule, bad, [0, 5, 10]), nonfinite),
        (lambda: invert_along(mixture3, schedule, x, [0, 5, 1001]),
         (IndexError, "timestep 1001 outside [1, 1000]")),
        (lambda: denoise_path(mixture3, schedule, bad, 10, 5, g), nonfinite),
        (lambda: denoise_path(mixture3, schedule, x, 1001, 5, g),
         (IndexError, "timestep 1001 outside [1, 1000]")),
        (lambda: denoise_path(mixture3, schedule, x, 0, 5, g),
         (IndexError, "timestep 0 outside [1, 1000]")),
        (lambda: hop(schedule, x, 0, 1001, x), (IndexError, "timestep 1001 outside [0, 1000]")),
        (lambda: hop(schedule, x, 1001, 0, x), (IndexError, "timestep 1001 outside [0, 1000]")),
        (lambda: sds_gradient(mixture3, schedule, x, 0, x, g),
         (IndexError, "timestep 0 outside [1, 1000]")),
        (lambda: sds_gradient(mixture3, schedule, x, 1001, x, g),
         (IndexError, "timestep 1001 outside [1, 1000]")),
        (lambda: ism_gradient(mixture3, schedule, x, -1, 10, 5, g),
         (IndexError, "timestep -1 outside [1, 1000]")),
        (lambda: ism_gradient(mixture3, schedule, x, 1001, 10, 5, g),
         (IndexError, "timestep 1001 outside [1, 1000]")),
        (lambda: naive_gradient(mixture3, schedule, x, 0, 10, g),
         (IndexError, "timestep 0 outside [1, 1000]")),
        (lambda: interval_pieces(mixture3, schedule, x, 1001, 10, g),
         (IndexError, "timestep 1001 outside [1, 1000]")),
        (lambda: interval_pieces(mixture3, schedule, x, -1, 10, g),
         (IndexError, "timestep -1 outside [1, 1000]")),
        # the softmax over "ab" is NaN at |x| = 1e200, so the second node is not finite
        (lambda: denoise_path(mixture3, schedule, np.full(2, 1e200), 10, 5,
                              GuidanceSpec(positive="ab", scale=1.0)), nonfinite),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for call, (kind, message) in cases:
            with pytest.raises(Exception) as info:
                call()
            assert (type(info.value), str(info.value)) == (kind, message)
        assert np.isnan(hop(schedule, bad, 5, 10, x)[0])


def test_finite_point_whose_square_overflows_is_accepted(mixture3, schedule):
    """Finiteness is read from x.x and checked entry by entry only when that
    is not finite: a point of finite entries whose square overflows is still
    accepted, without a warning from the check, and a NaN or inf entry
    still raises NumericalError, also next to a huge entry."""
    huge = np.full(2, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mixture3.eps_predict(schedule, huge, 5, "a")
    ab = schedule.ab[5]
    var = ab * mixture3.sigmas[0] ** 2 + (1.0 - ab)
    want = math.sqrt(1.0 - ab) * (huge - math.sqrt(ab) * mixture3.means[0]) / var
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    with np.errstate(over="ignore", invalid="ignore"):
        mixture3.eps_predict(schedule, huge, 5, "ab")
        mixture3.log_density(schedule, huge, 5)
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, 1e200], [1e200, np.nan]):
        with pytest.raises(NumericalError, match="^non-finite input point$"):
            mixture3.eps_predict(schedule, np.array(bad), 5, "a")
