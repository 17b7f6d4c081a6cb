"""Discrete diffusion time axis.

A schedule owns the per-step variances beta_t, the cumulative signal levels
alpha_bar_t = prod_{u<=t} (1 - beta_u), the noise-to-signal ratio
sqrt(1 - alpha_bar_t) / sqrt(alpha_bar_t) that converts between epsilon-space
and sample-space update directions, and the per-timestep loss weight.

The signal levels, their square roots, the ratio and the loss weight are
tabulated once per schedule, so the per-call transport, oracle and objective
code only indexes them.

Index 0 is the clean-data boundary: beta[0] = 0 and alpha_bar[0] = 1 by
convention, so trajectories may start at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

OMEGA_KINDS = ("unit", "one_minus_alpha_bar")


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Immutable lookup tables for a discrete forward-noising process.

    Attributes:
        num_steps: number of diffusion steps T; valid timesteps are 0..T.
        beta: array of shape (T + 1,); beta[0] = 0, beta[t] is the step-t
            variance increment.
        alpha_bar: array of shape (T + 1,); alpha_bar[0] = 1 and
            alpha_bar[t] = alpha_bar[t - 1] * (1 - beta[t]).
        omega_kind: which per-timestep loss weight to use, one of
            ``unit`` (constant 1) or ``one_minus_alpha_bar``.

    Derived read-only tables, indexed by timestep (index only after a range
    check such as ``_check_t``: a negative index would wrap silently):
        ab: alpha_bar[t] as a Python float, which hashes fast as a memo key.
        sab: sqrt(alpha_bar[t]).
        s1mab: sqrt(1 - alpha_bar[t]).
        nsr: s1mab[t] / sab[t], the noise-to-signal ratio; zero at t = 0.
        omega: the loss weight, 1.0 for ``unit`` and 1.0 - alpha_bar[t]
            otherwise (read at 1 <= t <= T).
    """

    num_steps: int
    beta: np.ndarray
    alpha_bar: np.ndarray
    omega_kind: str = "unit"
    ab: tuple[float, ...] = field(init=False, repr=False)
    sab: tuple[float, ...] = field(init=False, repr=False)
    s1mab: tuple[float, ...] = field(init=False, repr=False)
    nsr: tuple[float, ...] = field(init=False, repr=False)
    omega: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        # Python floats: they index and multiply faster than numpy scalars.
        sab = np.sqrt(self.alpha_bar)
        s1mab = np.sqrt(1.0 - self.alpha_bar)
        object.__setattr__(self, "ab", tuple(self.alpha_bar.tolist()))
        object.__setattr__(self, "sab", tuple(sab.tolist()))
        object.__setattr__(self, "s1mab", tuple(s1mab.tolist()))
        object.__setattr__(self, "nsr", tuple((s1mab / sab).tolist()))
        object.__setattr__(self, "omega", (1.0,) * len(sab) if self.omega_kind == "unit"
                           else tuple((1.0 - self.alpha_bar).tolist()))

    def _check_t(self, t: int, lo: int) -> int:
        t = int(t)
        if not lo <= t <= self.num_steps:
            raise IndexError(f"timestep {t} outside [{lo}, {self.num_steps}]")
        return t


def make_schedule(
    num_steps: int,
    beta_start: float = 0.00085,
    beta_end: float = 0.012,
    omega_kind: str = "unit",
) -> NoiseSchedule:
    """Build a schedule whose beta ramps linearly from beta_start to beta_end.

    The defaults mirror common latent-diffusion training schedules so that
    timesteps drawn uniformly from [1, 1000] stay meaningful.

    Raises:
        ConfigError: if num_steps < 2, the beta range is not
            0 < beta_start <= beta_end < 1, omega_kind is unknown, or
            alpha_bar_T underflows to 0.
    """
    if num_steps < 2:
        raise ConfigError(f"num_steps must be >= 2, got {num_steps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(
            f"need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]"
        )
    if omega_kind not in OMEGA_KINDS:
        raise ConfigError(f"omega_kind must be one of {OMEGA_KINDS}, got {omega_kind!r}")

    beta = np.zeros(num_steps + 1)
    beta[1:] = np.linspace(beta_start, beta_end, num_steps)
    alpha_bar = np.ones(num_steps + 1)
    alpha_bar[1:] = np.cumprod(1.0 - beta[1:])
    if not alpha_bar[-1] > 0:
        raise ConfigError(f"need alpha_bar_T > 0, but {num_steps} steps of beta from "
                          f"{beta_start} to {beta_end} underflow it to 0")
    beta.flags.writeable = False
    alpha_bar.flags.writeable = False
    return NoiseSchedule(num_steps=num_steps, beta=beta, alpha_bar=alpha_bar,
                         omega_kind=omega_kind)
