"""Distillation update directions and their algebraic relationships.

Three objectives produce an update direction for a rendered view x0:

  * sds_gradient: perturb x0 with caller-supplied noise, match the guided
    prediction against that noise (stochastic, single-step clean estimate).
  * ism_gradient: invert x0 deterministically to s = t - delta_t, take one
    more hop to t, and match the guided prediction at (x_t, t) against the
    cached unconditional prediction at (x_s, s) -- the interval score.
  * naive_gradient: invert to t and denoise all the way back with matching
    stride, matching x0 against the multi-step clean estimate. Expensive; its
    gap from the pure interval score is the multistep bias series.

The multi-step direction is the interval score plus a telescoping bias series
over the shared inversion/denoising grid; the norm by which that identity
fails, interval_pieces(...).gap, is its machine-checkable form, and a gap
not below GAP_LIMIT is a failed check of the kinds that report checks
(eta-sweep and gradcheck).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .oracle import GuidanceSpec, MixtureOracle
from .schedule import NoiseSchedule
from .trajectory import Trajectory, _hop, denoise_path, descent_grid, inversion_grid, invert_along

GAP_LIMIT = 1e-9  # an interval_pieces gap passes the decomposition checks when below it


@dataclass(frozen=True, eq=False)
class GradientReport:
    """Result of one objective evaluation at a rendered view.

    grad_x0 is the update direction with respect to the view, pseudo_gt the
    clean target it implicitly matches (grad_x0 is parallel to x0 - pseudo_gt
    scaled by the loss weight over the noise-to-signal ratio), and oracle_calls
    the number of epsilon-prediction evaluations consumed.
    """

    grad_x0: np.ndarray
    pseudo_gt: np.ndarray
    oracle_calls: int


def sds_gradient(oracle: MixtureOracle, schedule: NoiseSchedule, x0, t: int,
                 eps, g: GuidanceSpec) -> GradientReport:
    """Noise-matching update: omega(t) * (guided prediction at the noised
    point minus the injected noise). Varies with the noise draw."""
    t = schedule._check_t(t, 1)
    before = oracle.eps_evals
    eps = np.asarray(eps, dtype=float)
    xt = _hop(schedule, np.asarray(x0, dtype=float), 0, t, eps)
    eps_pred = oracle.eps_guided(schedule, xt, t, g)
    return GradientReport(
        grad_x0=schedule.omega[t] * (eps_pred - eps),
        pseudo_gt=_hop(schedule, xt, t, 0, eps_pred),
        oracle_calls=oracle.eps_evals - before,
    )


def ism_gradient(oracle: MixtureOracle, schedule: NoiseSchedule, x0, t: int,
                 delta_t: int, delta_s: int, g: GuidanceSpec) -> GradientReport:
    """Interval-score update along a deterministic inversion trajectory.

    Inverts x0 to s = t - delta_t with stride delta_s (one hop when
    delta_s >= s), hops once s -> t, and returns omega(t) * (guided eps at
    (x_t, t) - unconditional eps at (x_s, s)), the latter read from the
    inversion cache rather than re-evaluated. Pure in its inputs: repeat
    calls are bitwise identical.
    """
    t = schedule._check_t(t, 1)
    if not 1 <= delta_t < t or not delta_s >= 1:
        raise ConfigError(f"need 1 <= delta_t < t and delta_s >= 1, got delta_t={delta_t}, "
                          f"t={t}, delta_s={delta_s}")
    before = oracle.eps_evals
    grid = inversion_grid(t - delta_t, delta_s) + [t]
    traj = invert_along(oracle, schedule, x0, grid)
    eps_s = traj.eps_cache[-1]  # unconditional prediction at (x_s, s)
    eps_t = oracle.eps_guided(schedule, traj.latents[-1], t, g)
    interval = eps_t - eps_s
    gam = schedule.nsr[t]
    return GradientReport(
        grad_x0=schedule.omega[t] * interval,
        pseudo_gt=x0 - gam * interval,
        oracle_calls=oracle.eps_evals - before,
    )


@dataclass(frozen=True, eq=False)
class _IntervalPieces:
    """Shared intermediates of the multi-step objective on the common grid, as
    interval_pieces walks them; naive, gap and bias read them."""

    schedule: NoiseSchedule
    x0: np.ndarray
    grid: tuple[int, ...]          # ascending, grid[0] = 0, grid[-2] = s, grid[-1] = t
    inv: Trajectory                # unconditional inversion along grid
    deno: Trajectory               # guided denoising back down grid
    oracle_calls: int

    @property
    def x0_tilde(self) -> np.ndarray:
        """The multi-step clean estimate."""
        return self.deno.latents[-1]

    @property
    def interval(self) -> np.ndarray:
        """Guided eps at (x_t, t) minus unconditional eps at (x_s, s)."""
        return self.deno.eps_cache[0] - self.inv.eps_cache[-1]

    @cached_property
    def series(self) -> np.ndarray:
        """Telescoping evaluation of the bias (x0 - x0_tilde) - gamma(t) * interval."""
        inv, deno, n = self.inv, self.deno, len(self.grid) - 1
        # eps at ascending node m: inversion cache index m (m < n), denoising
        # cache index n - m (m >= 1).
        gammas = [self.schedule.nsr[tau] for tau in self.grid]
        series = np.zeros_like(self.x0_tilde)
        for i in range(1, n):
            series += gammas[i] * (inv.eps_cache[i] - inv.eps_cache[i - 1])
        for j in range(2, n + 1):
            series -= gammas[j - 1] * (deno.eps_cache[n - j] - deno.eps_cache[n - j + 1])
        return series

    def naive(self) -> GradientReport:
        t = self.grid[-1]
        w = self.schedule.omega[t] / self.schedule.nsr[t]
        return GradientReport(grad_x0=w * (self.x0 - self.x0_tilde), pseudo_gt=self.x0_tilde,
                              oracle_calls=self.oracle_calls)

    @cached_property
    def gap(self) -> float:
        """Norm of (x0 - x0_tilde) - (gamma(t) * interval + series), the identity
        that the multi-step direction is the interval score plus the telescoping
        bias; its double-precision rounding, which the checks bound by GAP_LIMIT."""
        rhs = self.schedule.nsr[self.grid[-1]] * self.interval + self.series
        return float(np.linalg.norm((self.x0 - self.x0_tilde) - rhs))

    def bias(self) -> np.ndarray:
        """(x0 - x0_tilde) - gamma(t) * interval, the residual separating the
        multi-step objective from the interval score."""
        return (self.x0 - self.x0_tilde) - self.schedule.nsr[self.grid[-1]] * self.interval


def interval_pieces(oracle: MixtureOracle, schedule: NoiseSchedule, x0, t: int,
                    delta_t: int, g: GuidanceSpec) -> _IntervalPieces:
    """Invert x0 up to t and denoise back to 0 with stride delta_t on one grid,
    keeping both walks for the multi-step decomposition; delta_t >= t is the
    one interval [0, t]."""
    t = schedule._check_t(t, 1)
    if not delta_t >= 1:
        raise ConfigError(f"need delta_t >= 1, got delta_t={delta_t}")
    before = oracle.eps_evals

    # Inversion and denoising must share nodes for the bias series to
    # telescope; both walk the grid anchored at t (identical to the
    # stride-delta_t inversion grid whenever delta_t divides t).
    grid = descent_grid(t, delta_t)
    inv = invert_along(oracle, schedule, x0, grid)
    deno = denoise_path(oracle, schedule, inv.latents[-1], t, delta_t, g)
    return _IntervalPieces(schedule=schedule, x0=x0, grid=tuple(grid), inv=inv, deno=deno,
                           oracle_calls=oracle.eps_evals - before)


def naive_gradient(oracle: MixtureOracle, schedule: NoiseSchedule, x0, t: int,
                   delta_t: int, g: GuidanceSpec) -> GradientReport:
    """Multi-step matching update: omega(t)/gamma(t) * (x0 - multi-step clean
    estimate), with inversion and denoising at the same stride.

    delta_t >= t collapses to a single interval, where this equals
    omega(t) * interval score exactly. Costs ceil(t / delta_t) * (1 + g)
    oracle evaluations per row, g = 1 guided branch at scale 0 or 1 and 2
    otherwise, which is what the interval objective avoids.
    """
    return interval_pieces(oracle, schedule, x0, t, delta_t, g).naive()
