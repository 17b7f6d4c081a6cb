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

The bias admits two independent evaluations (a residual and an explicit
telescoping series over the shared inversion/denoising grid); their agreement
is the machine-checkable form of the decomposition underlying the interval
objective, exposed via decomposition_check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError
from .oracle import GuidanceSpec, MixtureOracle
from .schedule import NoiseSchedule
from .trajectory import (
    Trajectory,
    add_noise,
    denoise_path,
    descent_grid,
    inversion_grid,
    invert_along,
)

REPORT_CSV_HEADER = ("t", "s", "grad_norm", "oracle_calls", "objective")


@dataclass(frozen=True)
class GradientReport:
    """Result of one objective evaluation at a rendered view.

    grad_x0 is the update direction with respect to the view, pseudo_gt the
    clean target it implicitly matches (grad_x0 is parallel to x0 - pseudo_gt
    scaled by the loss weight over the noise-to-signal ratio), s the lower
    interval endpoint for interval objectives, and oracle_calls the number of
    epsilon-prediction evaluations consumed.
    """

    grad_x0: np.ndarray
    pseudo_gt: np.ndarray
    t: int
    s: Optional[int]
    oracle_calls: int

    def csv_row(self, tag: str) -> tuple:
        return (self.t, "" if self.s is None else self.s,
                float(np.linalg.norm(self.grad_x0)), self.oracle_calls, tag)


def sds_gradient(oracle: MixtureOracle, schedule: NoiseSchedule, x0, t: int,
                 eps, g: GuidanceSpec) -> GradientReport:
    """Noise-matching update: omega(t) * (guided prediction at the noised
    point minus the injected noise). Varies with the noise draw."""
    before = oracle.eps_evals
    xt = add_noise(schedule, x0, t, eps)  # the one check of t
    t = int(t)
    eps_pred = oracle.eps_guided(schedule, xt, t, g)
    return GradientReport(
        grad_x0=schedule.omega[t] * (eps_pred - eps),
        pseudo_gt=(xt - schedule.s1mab[t] * eps_pred) / schedule.sab[t],  # as pseudo_gt_single
        t=t,
        s=None,
        oracle_calls=oracle.eps_evals - before,
    )


def ism_gradient(oracle: MixtureOracle, schedule: NoiseSchedule, x0, t: int,
                 delta_t: int, delta_s: int, g: GuidanceSpec) -> GradientReport:
    """Interval-score update along a deterministic inversion trajectory.

    Inverts x0 to s = t - delta_t with stride delta_s, hops once s -> t, and
    returns omega(t) * (guided eps at (x_t, t) - unconditional eps at
    (x_s, s)), the latter read from the inversion cache rather than
    re-evaluated. Pure in its inputs: repeat calls are bitwise identical.
    """
    t = schedule._check_t(t, 1)
    if not 1 <= delta_t < t:
        raise ConfigError(f"need 1 <= delta_t < t, got delta_t={delta_t}, t={t}")
    s = t - delta_t
    if not 1 <= delta_s <= s:
        raise ConfigError(f"need 1 <= delta_s <= t - delta_t, got delta_s={delta_s}")
    before = oracle.eps_evals
    grid = inversion_grid(s, delta_s) + [t]
    traj = invert_along(oracle, schedule, x0, grid)
    eps_s = traj.eps_cache[-1]  # unconditional prediction at (x_s, s)
    eps_t = oracle.eps_guided(schedule, traj.latents[-1], t, g)
    interval = eps_t - eps_s
    gam = schedule.nsr[t]
    return GradientReport(
        grad_x0=schedule.omega[t] * interval,
        pseudo_gt=x0 - gam * interval,
        t=t,
        s=s,
        oracle_calls=oracle.eps_evals - before,
    )


@dataclass(frozen=True)
class _IntervalPieces:
    """Shared intermediates of the multi-step objective on the common grid; naive,
    bias and decomposition return what naive_gradient, multistep_bias and
    decomposition_check do."""

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
                              t=t, s=self.grid[-2], oracle_calls=self.oracle_calls)

    def bias(self) -> np.ndarray:
        residual = (self.x0 - self.x0_tilde) - self.schedule.nsr[self.grid[-1]] * self.interval
        gap = float(np.linalg.norm(residual - self.series))
        if gap > 1e-9:
            raise ArithmeticError(f"bias residual and series evaluation disagree by {gap:.3e}")
        return residual

    def decomposition(self) -> float:
        lhs = self.x0 - self.x0_tilde
        rhs = self.schedule.nsr[self.grid[-1]] * self.interval + self.series
        return float(np.linalg.norm(lhs - rhs))


def _interval_pieces(oracle: MixtureOracle, schedule: NoiseSchedule, x0, t: int,
                     delta_t: int, g: GuidanceSpec) -> _IntervalPieces:
    t = schedule._check_t(t, 1)
    if not 1 <= delta_t <= t:
        raise ConfigError(f"need 1 <= delta_t <= t, got delta_t={delta_t}, t={t}")
    before = oracle.eps_evals

    # Inversion and denoising must share nodes for the bias series to
    # telescope; both walk the grid anchored at t (identical to the
    # stride-delta_t inversion grid whenever delta_t divides t).
    grid = descent_grid(t, delta_t)
    inv = invert_along(oracle, schedule, x0, grid)
    deno = denoise_path(oracle, schedule, inv.latents[-1], t, delta_t, g)
    if deno.timesteps != tuple(reversed(grid)):
        raise RuntimeError(f"denoising nodes {deno.timesteps} do not retrace the "
                           f"inversion grid {grid}")
    return _IntervalPieces(schedule=schedule, x0=x0, grid=tuple(grid), inv=inv, deno=deno,
                           oracle_calls=oracle.eps_evals - before)


def naive_gradient(oracle: MixtureOracle, schedule: NoiseSchedule, x0, t: int,
                   delta_t: int, g: GuidanceSpec) -> GradientReport:
    """Multi-step matching update: omega(t)/gamma(t) * (x0 - multi-step clean
    estimate), with inversion and denoising at the same stride.

    delta_t = t collapses to a single interval, where this equals
    omega(t) * interval score exactly. Costs about 2 * (t / delta_t) oracle
    evaluations, which is what the interval objective avoids.
    """
    return _interval_pieces(oracle, schedule, x0, t, delta_t, g).naive()


def multistep_bias(oracle: MixtureOracle, schedule: NoiseSchedule, x0, t: int,
                   delta_t: int, g: GuidanceSpec) -> np.ndarray:
    """Residual separating the multi-step objective from the interval score:

        bias = (x0 - x0_tilde) - gamma(t) * interval_score.

    Also evaluates the explicit telescoping series of neighboring interval
    scores from the cached trajectories and verifies the two agree to 1e-9;
    disagreement indicates a broken trajectory invariant and raises.
    """
    return _interval_pieces(oracle, schedule, x0, t, delta_t, g).bias()


def decomposition_check(oracle: MixtureOracle, schedule: NoiseSchedule, x0,
                        t: int, delta_t: int, g: GuidanceSpec) -> float:
    """Norm of (x0 - x0_tilde) - (gamma(t) * interval_score + bias series).

    Exercises the identity that the multi-step matching direction is the
    interval score plus the telescoping bias; should be < 1e-9 in double
    precision for all valid inputs.
    """
    return _interval_pieces(oracle, schedule, x0, t, delta_t, g).decomposition()
