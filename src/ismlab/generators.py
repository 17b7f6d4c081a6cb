"""Differentiable parametric generators and their render maps.

Two generators are provided:

  * IdentityLatent -- the parameter vector is the rendered view, for
    experiments that optimise a latent point directly.
  * SplatGenerator -- a scene of anisotropic 2D Gaussian splats rasterised
    with front-to-back alpha compositing and hand-derived analytic gradients
    for every parameter. The whole scene is one flat parameter vector; depth
    only orders the splats and is not a parameter.

A View is an affine map from scene coordinates to image coordinates. Splat
footprints are evaluated at its pixel centers, pulled back into scene space
once per View as a row of x and a row of y, so parameter gradients never
touch the camera matrix. Every per-splat, per-pixel quantity is held as
contiguous rows, one per splat: the frame coordinates (N, 2, P), the alphas,
transmittances and weights as (N, P) planes, the backward's behind-composite
(N, P * C). A backward reuses the forward planes if the last render was of its View.

Constraints are kept by construction: per-axis standard deviations are
exp(log_scale) and opacity is sigmoid(logit_opacity). Colors and background
live in [0, 1] and are clamped by the generator's parameter setter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError

MIN_DET = 1e-12  # smallest |det| of a view's affine block that is solved for pixel centers


@dataclass(frozen=True, eq=False)
class View:
    """Affine camera: image_point = affine[:, :2] @ scene_point + affine[:, 2]."""

    affine: np.ndarray        # (2, 3)
    width: int
    height: int

    def __post_init__(self):
        a = np.asarray(self.affine, dtype=float).reshape(2, 3)
        a.flags.writeable = False
        object.__setattr__(self, "affine", a)

    @property
    def linear(self) -> np.ndarray:
        return self.affine[:, :2]

    @property
    def offset(self) -> np.ndarray:
        return self.affine[:, 2]

    @cached_property
    def pixel_centers(self) -> np.ndarray:
        """Read-only pixel centers in scene coordinates: a contiguous row of x and
        one of y, (2, H * W), pixels row-major over (y, x)."""
        if abs(np.linalg.det(self.linear)) < MIN_DET:
            raise ConfigError("degenerate view: affine block is singular")
        gx, gy = np.meshgrid(np.arange(self.width) + 0.5, np.arange(self.height) + 0.5)
        z = np.linalg.solve(self.linear, np.stack([gx.ravel(), gy.ravel()]) - self.offset[:, None])
        z.flags.writeable = False
        return z


@dataclass(frozen=True)
class ViewJitterSpec:
    """Camera randomisation ranges; the zero spec is the canonical view."""

    rotation_max: float = 0.0
    zoom_min: float = 1.0
    zoom_max: float = 1.0
    shift_max: float = 0.0
    width: int = 16
    height: int = 16

    def __post_init__(self):
        if self.rotation_max < 0 or self.shift_max < 0:
            raise ConfigError("jitter ranges must be non-negative")
        if not 0 < self.zoom_min <= self.zoom_max:
            raise ConfigError("need 0 < zoom_min <= zoom_max")

    @property
    def is_canonical(self) -> bool:
        """True for the zero spec, whose every sampled view is the canonical one."""
        return (self.rotation_max == 0.0 and self.shift_max == 0.0
                and self.zoom_min == self.zoom_max == 1.0)


def canonical_view(width: int, height: int) -> View:
    """Map the scene square [-1, 1]^2 onto the full image."""
    affine = np.array([[width / 2.0, 0.0, width / 2.0],
                       [0.0, height / 2.0, height / 2.0]])
    return View(affine=affine, width=width, height=height)


def sample_view(seed: int, jitter: ViewJitterSpec) -> View:
    """Deterministic jittered view: scene points are rotated, zoomed and
    shifted before the canonical projection. The zero-jitter spec returns the
    canonical view exactly."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(-jitter.rotation_max, jitter.rotation_max)
    zoom = rng.uniform(jitter.zoom_min, jitter.zoom_max)
    shift = rng.uniform(-jitter.shift_max, jitter.shift_max, size=2)
    base = canonical_view(jitter.width, jitter.height)
    c, s = math.cos(angle), math.sin(angle)
    linear = base.linear @ (zoom * np.array([[c, -s], [s, c]]))
    affine = np.column_stack([linear, base.linear @ shift + base.offset])
    return View(affine=affine, width=jitter.width, height=jitter.height)


# Columns of one splat row in SplatGenerator.theta.
CENTER, LOG_SCALE, ROTATION, COLOR, LOGIT_OPACITY = slice(0, 2), slice(2, 4), 4, slice(5, -1), -1


def _composite(rows: np.ndarray, background: np.ndarray, view: View):
    """Front-to-back alpha compositing of splat rows over the background.

    Returns the (P, C) image and the forward context the backward pass needs:
    the frame coordinates w = R^T (z - center) (N, 2, P), the rotations R^T
    (N, 2, 2), inverse variances (N, 2), opacities (N,), footprint alphas
    (N, P), transmittances trans (N + 1, P), trans[i] in front of splat i,
    and compositing weights alphas * trans[:N] (N, P)."""
    z = view.pixel_centers
    cos, sin = np.cos(rows[:, ROTATION]), np.sin(rows[:, ROTATION])
    rot_t = np.array([[cos, sin], [-sin, cos]]).transpose(2, 0, 1)
    w = rot_t @ (z[None] - rows[:, CENTER, None])
    inv_var = np.exp(-2.0 * rows[:, LOG_SCALE])          # 1 / std^2 per axis
    opacity = 1.0 / (1.0 + np.exp(-rows[:, LOGIT_OPACITY]))
    alphas = opacity[:, None] * np.exp(-0.5 * np.einsum("nkp,nk->np", w * w, inv_var))
    trans = np.empty((len(rows) + 1, z.shape[1]))
    trans[0] = 1.0
    for front, keep, t in zip(trans, 1.0 - alphas, trans[1:]):
        np.multiply(front, keep, t)
    weight = alphas * trans[:-1]
    img = weight.T @ rows[:, COLOR] + trans[-1][:, None] * background[None, :]
    return img, (w, rot_t, inv_var, opacity, alphas, trans, weight)


def _behind(alphas: np.ndarray, colors: np.ndarray, background: np.ndarray) -> np.ndarray:
    """(N, P, C) composite of everything behind each splat over the background, a
    recurrence over (P * C) rows from the back: dividing by transmittance fails at 0."""
    (n, p), c = alphas.shape, len(background)
    behind = np.empty((n, p * c))
    behind[-1] = np.tile(background, p)
    premul = (alphas[:, :, None] * colors[:, None, :]).reshape(n, p * c)
    keep = 1.0 - alphas if c == 1 else np.repeat(1.0 - alphas, c, axis=1)
    for k, pre, back, dst in zip(keep[:0:-1], premul[:0:-1], behind[:0:-1], behind[-2::-1]):
        np.multiply(k, back, dst)
        np.add(dst, pre, dst)
    return behind.reshape(n, p, c)


class IdentityLatent:
    """Generator whose parameter vector is the rendered view itself."""

    def __init__(self, theta):
        theta = np.asarray(theta, dtype=float).ravel()
        if not np.isfinite(theta).all():
            raise ConfigError("latent parameters must be finite")
        self.theta = theta.copy()

    @property
    def n_params(self) -> int:
        return self.theta.shape[0]

    def get_params(self) -> np.ndarray:
        return self.theta.copy()

    def set_params(self, params) -> None:
        self.theta = np.asarray(params, dtype=float).copy()

    def render(self, view: Optional[View] = None) -> np.ndarray:
        return self.theta.copy()

    def backward(self, view: Optional[View], grad_output) -> np.ndarray:
        return np.asarray(grad_output, dtype=float).copy()

    def image_shape(self, jitter: ViewJitterSpec):
        """The rendered vector is not an image; no frames are produced."""
        return None


class SplatGenerator:
    """A scene of anisotropic 2D Gaussian splats held as one flat vector.

    theta[:-C] reshaped to (N, 6 + C) holds one row per splat, front to back:
    [center(2), log_scale(2), rotation, color(C), logit_opacity]; theta[-C:]
    is the background. The constructor orders the rows by ascending depth
    (stable, so ties keep their given order); depth is a sort key only and is
    not stored. Colors and background are clamped to [0, 1] whenever
    parameters are set.
    """

    def __init__(self, splats, background, depth: Optional[Sequence[float]] = None):
        background = np.asarray(background, dtype=float).ravel()
        rows = np.asarray(splats, dtype=float)
        c = background.shape[0]
        if c == 0 or rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != 6 + c:
            raise ConfigError(
                f"splat generator needs a non-empty background of C channels and "
                f"(N >= 1, 6 + C) splat rows, got {c} channels and rows of shape {rows.shape}")
        if depth is not None:
            depth = np.asarray(depth, dtype=float).ravel()
            if depth.shape[0] != rows.shape[0]:
                raise ConfigError(f"got {depth.shape[0]} depths for {rows.shape[0]} splats")
            rows = rows[np.argsort(depth, kind="stable")]
        self.channels = c
        self.theta = np.concatenate([rows.ravel(), background])
        self.set_params(self.theta)  # clamps the colors and empties the render memo

    @property
    def n_params(self) -> int:
        return self.theta.shape[0]

    def _rows(self) -> np.ndarray:
        return self.theta[:-self.channels].reshape(-1, 6 + self.channels)

    def get_params(self) -> np.ndarray:
        return self.theta.copy()

    def set_params(self, params) -> None:
        theta = np.array(params, dtype=float).ravel()
        if theta.shape != self.theta.shape:
            raise ValueError(f"expected {self.n_params} parameters, got {theta.shape[0]}")
        c = self.channels
        rows = theta[:-c].reshape(-1, 6 + c)
        rows[:, COLOR] = np.clip(rows[:, COLOR], 0.0, 1.0)
        theta[-c:] = np.clip(theta[-c:], 0.0, 1.0)
        self.theta = theta
        self._memo = (None, None)  # (view, forward context) of the last render, if current

    def render(self, view: View) -> np.ndarray:
        """Flat image of length height * width * channels, row-major with
        channels innermost, values in [0, 1] whenever colors and background
        are."""
        img, ctx = _composite(self._rows(), self.theta[-self.channels:], view)
        self._memo = (view, ctx)
        return img.ravel()

    def image_shape(self, jitter: ViewJitterSpec) -> tuple[int, int, int]:
        return (jitter.height, jitter.width, self.channels)

    def backward(self, view: View, grad_output) -> np.ndarray:
        """Exact analytic gradient of <grad_output, render(view)> in theta
        layout; reuses the forward pass when the last render was of this View."""
        c = self.channels
        grad_image = np.asarray(grad_output, dtype=float).reshape(view.width * view.height, c)
        rows, background = self._rows(), self.theta[-c:]
        if self._memo[0] is not view:
            self._memo = (view, _composite(rows, background, view)[1])
        w, rot_t, inv_var, opacity, alphas, trans, weight = self._memo[1]
        colors = rows[:, COLOR]
        grad = np.empty_like(self.theta)
        g_rows = grad[:-c].reshape(rows.shape)
        # g_q holds dL/dalpha, then dL/dalpha * alpha (the opacity partial's terms), then dL/dq
        g_q = trans[:-1] * np.einsum("pc,npc->np", grad_image,
                                     colors[:, None, :] - _behind(alphas, colors, background))
        g_q *= alphas
        g_rows[:, LOGIT_OPACITY] = g_q.sum(axis=1) * (1.0 - opacity)
        g_q *= -0.5
        # q = w^T diag(inv_var) w, w = R^T (z - center); with the per-splat pixel sums
        # s = sum_p g_q w and m = sum_p g_q w w^T: dL/dcenter = -2 R (s * inv_var),
        # dL/dlog_scale = -2 diag(m) * inv_var, dL/drotation = 2 m_xy (inv_var_x - inv_var_y).
        gw = w * g_q[:, None, :]
        m = gw @ w.transpose(0, 2, 1)
        s = np.add.reduce(gw, axis=2) * inv_var
        g_rows[:, CENTER] = -2.0 * (s[:, None, :] @ rot_t)[:, 0]
        g_rows[:, LOG_SCALE] = -2.0 * m.diagonal(axis1=1, axis2=2) * inv_var
        g_rows[:, ROTATION] = 2.0 * m[:, 0, 1] * (inv_var[:, 0] - inv_var[:, 1])
        g_rows[:, COLOR] = weight @ grad_image
        grad[-c:] = grad_image.T @ trans[-1]
        return grad


def random_scene(n_splats: int, channels: int, seed: int,
                 background: Optional[Sequence[float]] = None) -> SplatGenerator:
    """Seeded scene initialisation: splats spread over the canonical square
    with moderate scales and mid opacities, front to back in draw order."""
    rng = np.random.default_rng(seed)
    low = [-0.8, -0.8, math.log(0.08), math.log(0.08), -math.pi] + [0.2] * channels + [-1.5]
    high = [0.8, 0.8, math.log(0.25), math.log(0.25), math.pi] + [0.8] * channels + [0.5]
    rows = rng.uniform(low, high, size=(n_splats, 6 + channels))
    return SplatGenerator(rows, np.zeros(channels) if background is None else background)
