"""Deterministic and stochastic latent transport.

Forward noising, the single-step clean estimate, deterministic inversion of a
clean sample to a chosen noise level, and multi-step deterministic denoising.

All deterministic moves are built from one hop primitive: given the latent x
at timestep a and an epsilon-prediction e evaluated there, the latent at
timestep b is

    x_b = sqrt(alpha_bar_b) * x0_hat + sqrt(1 - alpha_bar_b) * e,
    x0_hat = (x - sqrt(1 - alpha_bar_a) * e) / sqrt(alpha_bar_a).

Inversion walks this upward with unconditional predictions; denoising walks it
downward with guided predictions re-evaluated at each visited latent. Both are
pure functions of their inputs: repeated calls are bitwise identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .oracle import GuidanceSpec, Label, MixtureOracle
from .schedule import NoiseSchedule


@dataclass(frozen=True)
class LatentTrajectory:
    """An inversion path: increasing timesteps, latents, and the epsilon used
    to step away from each node.

    eps_cache[i] is the unconditional prediction evaluated at
    (latents[i], timesteps[i]) that produced latents[i + 1]; the final entry
    is retained so downstream gradients can reuse it without re-evaluation.
    """

    timesteps: tuple[int, ...]
    latents: tuple[np.ndarray, ...]
    eps_cache: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.timesteps) != len(self.latents) or len(self.eps_cache) != len(self.latents) - 1:
            raise ValueError("trajectory lengths inconsistent")

    def replay_error(self, schedule: NoiseSchedule) -> float:
        """Max deviation of stored latents from re-applying the hop recursion."""
        worst = 0.0
        for i in range(len(self.eps_cache)):
            nxt = hop(schedule, self.latents[i], self.timesteps[i],
                      self.timesteps[i + 1], self.eps_cache[i])
            worst = max(worst, float(np.abs(nxt - self.latents[i + 1]).max()))
        return worst

    def to_csv(self, path) -> None:
        dim = self.latents[0].shape[0]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step_index", "t"] + [f"x{i}" for i in range(dim)])
            for i, (t, x) in enumerate(zip(self.timesteps, self.latents)):
                writer.writerow([i, t] + [repr(float(v)) for v in x])


def add_noise(schedule: NoiseSchedule, x0, t: int, eps) -> np.ndarray:
    """Forward-noise a clean sample: sqrt(ab_t) x0 + sqrt(1 - ab_t) eps."""
    t = schedule._check_t(t, 1)
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    return schedule.sab[t] * x0 + schedule.s1mab[t] * eps


def pseudo_gt_single(schedule: NoiseSchedule, xt, t: int, eps) -> np.ndarray:
    """Single-step clean estimate; exact inverse of add_noise for matching eps."""
    t = schedule._check_t(t, 1)
    xt = np.asarray(xt, dtype=float)
    eps = np.asarray(eps, dtype=float)
    return (xt - schedule.s1mab[t] * eps) / schedule.sab[t]


def hop(schedule: NoiseSchedule, x, t_from: int, t_to: int, eps) -> np.ndarray:
    """One deterministic move t_from -> t_to with a fixed epsilon-prediction."""
    a = schedule._check_t(t_from, 0)
    b = schedule._check_t(t_to, 0)
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    sab, s1mab = schedule.sab, schedule.s1mab
    x0_hat = (x - s1mab[a] * eps) / sab[a]
    return sab[b] * x0_hat + s1mab[b] * eps


def invert_hop(oracle: MixtureOracle, schedule: NoiseSchedule, x, t_from: int,
               t_to: int, label: Label = None) -> np.ndarray:
    """One inversion hop upward, epsilon evaluated at the starting point."""
    if not 0 <= t_from < t_to:
        raise ConfigError(f"inversion hop needs 0 <= t_from < t_to, got {t_from} -> {t_to}")
    eps = oracle.eps_predict(schedule, x, t_from, label)
    return hop(schedule, x, t_from, t_to, eps)


def denoise_hop(oracle: MixtureOracle, schedule: NoiseSchedule, x, t_from: int,
                t_to: int, g: GuidanceSpec) -> np.ndarray:
    """One denoising hop downward, guided epsilon evaluated at the start."""
    if not 0 <= t_to < t_from:
        raise ConfigError(f"denoising hop needs t_to < t_from, got {t_from} -> {t_to}")
    eps = oracle.eps_guided(schedule, x, t_from, g)
    return hop(schedule, x, t_from, t_to, eps)


def invert_along(oracle: MixtureOracle, schedule: NoiseSchedule, x0,
                 timesteps: Sequence[int], label: Label = None) -> LatentTrajectory:
    """Invert a clean sample along an explicit increasing timestep grid.

    timesteps must start at 0; predictions are unconditional unless another
    label is supplied.
    """
    steps = [int(t) for t in timesteps]
    if steps[0] != 0 or any(b <= a for a, b in zip(steps, steps[1:])):
        raise ConfigError(f"timestep grid must be strictly increasing from 0, got {steps}")
    schedule._check_t(steps[-1], 1)
    x = np.asarray(x0, dtype=float).copy()
    latents = [x]
    cache = []
    for a, b in zip(steps, steps[1:]):
        eps = oracle.eps_predict(schedule, x, a, label)
        x = hop(schedule, x, a, b, eps)
        cache.append(eps)
        latents.append(x)
    return LatentTrajectory(tuple(steps), tuple(latents), tuple(cache))


def inversion_grid(t: int, stride: int) -> list[int]:
    """Grid [0, stride, 2*stride, ..., t]; the final gap may be shorter."""
    grid = list(range(0, t, stride))
    grid.append(t)
    return grid


def descent_grid(t: int, stride: int) -> list[int]:
    """Nodes visited when stepping down from t by stride (final hop shorter),
    returned ascending: [0, t mod stride?, ..., t - stride, t]."""
    taus = [t]
    while taus[-1] > 0:
        taus.append(max(taus[-1] - stride, 0))
    return taus[::-1]


def ddim_invert(oracle: MixtureOracle, schedule: NoiseSchedule, x0, t: int,
                delta_s: int, label: Label = None) -> LatentTrajectory:
    """Deterministically invert x0 up to timestep t with stride delta_s.

    Intermediate nodes are the multiples of delta_s below t; the final hop
    covers whatever gap remains. The last cached epsilon is the prediction at
    the penultimate node, kept for reuse by interval gradients.
    """
    t = schedule._check_t(t, 1)
    if not 1 <= delta_s <= t:
        raise ConfigError(f"need 1 <= delta_s <= t, got delta_s={delta_s}, t={t}")
    return invert_along(oracle, schedule, x0, inversion_grid(t, delta_s), label)


@dataclass(frozen=True)
class DenoisePath:
    """A denoising walk: decreasing timesteps, visited latents, and the guided
    epsilon evaluated at each node that was stepped away from."""

    timesteps: tuple[int, ...]
    latents: tuple[np.ndarray, ...]
    eps_cache: tuple[np.ndarray, ...]


def denoise_path(oracle: MixtureOracle, schedule: NoiseSchedule, xt, t: int,
                 stride: int, g: GuidanceSpec) -> DenoisePath:
    """Walk from (xt, t) down to timestep 0, re-evaluating the guided epsilon
    at every visited latent."""
    t = schedule._check_t(t, 1)
    if not 1 <= stride <= t:
        raise ConfigError(f"need 1 <= stride <= t, got stride={stride}, t={t}")
    x = np.asarray(xt, dtype=float).copy()
    taus = [t]
    latents = [x]
    cache = []
    while taus[-1] > 0:
        cur = taus[-1]
        nxt = max(cur - stride, 0)
        eps = oracle.eps_guided(schedule, x, cur, g)
        x = hop(schedule, x, cur, nxt, eps)
        taus.append(nxt)
        latents.append(x)
        cache.append(eps)
    return DenoisePath(tuple(taus), tuple(latents), tuple(cache))


def ddim_denoise(oracle: MixtureOracle, schedule: NoiseSchedule, xt, t: int,
                 stride: int, g: GuidanceSpec) -> np.ndarray:
    """Multi-step clean estimate from (xt, t); the multi-step counterpart of
    pseudo_gt_single (to which it collapses when stride = t)."""
    return denoise_path(oracle, schedule, xt, t, stride, g).latents[-1]
