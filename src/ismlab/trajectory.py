"""Deterministic latent transport.

Every move is one DDIM hop: given the latent x at timestep a and an
epsilon-prediction e evaluated there, the latent at timestep b is

    x_b = sqrt(alpha_bar_b) * x0_hat + sqrt(1 - alpha_bar_b) * e,
    x0_hat = (x - sqrt(1 - alpha_bar_a) * e) / sqrt(alpha_bar_a).

Forward noising of a clean sample is the hop 0 -> t, and the single-step
clean estimate the hop t -> 0. Inversion walks hops upward with unconditional
predictions; denoising walks them downward with guided predictions
re-evaluated at each visited latent. Both are pure functions of their inputs:
repeated calls are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .oracle import GuidanceSpec, MixtureOracle
from .schedule import NoiseSchedule


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A deterministic walk over a timestep grid that its caller holds
    (ascending for an inversion, descending for a denoising walk): the latent
    at each node, and the epsilon-prediction evaluated at each node that was
    stepped away from.

    eps_cache[i] was evaluated at latents[i] and the i-th node, and produced
    latents[i + 1]; callers read the final entries without re-evaluation.
    """

    latents: tuple[np.ndarray, ...]
    eps_cache: tuple[np.ndarray, ...]


def hop(schedule: NoiseSchedule, x, t_from: int, t_to: int, eps) -> np.ndarray:
    """One deterministic move t_from -> t_to with a fixed epsilon-prediction:
    forward noising from t_from = 0, the single-step clean estimate at t_to = 0.
    The result is a new array, also for the hop 0 -> 0."""
    a = schedule._check_t(t_from, 0)
    b = schedule._check_t(t_to, 0)
    return _hop(schedule, np.array(x, dtype=float), a, b, np.asarray(eps, dtype=float))


def _hop(schedule: NoiseSchedule, x: np.ndarray, a: int, b: int, eps: np.ndarray) -> np.ndarray:
    """The hop formula on float arrays at timesteps already checked; the array
    comes first in each product, which skips a try of float.__mul__. At the
    clean level 0 (sqrt(alpha_bar) 1, sqrt(1 - alpha_bar) 0) the estimate is x
    itself and a landing there is the estimate itself: no zero term is added,
    which could flip a signed zero."""
    x0_hat = (x - eps * schedule.s1mab[a]) / schedule.sab[a] if a else x
    return x0_hat * schedule.sab[b] + eps * schedule.s1mab[b] if b else x0_hat


def invert_along(oracle: MixtureOracle, schedule: NoiseSchedule, x0,
                 timesteps: Sequence[int]) -> Trajectory:
    """Invert a clean sample along an explicit increasing timestep grid that
    starts at 0; the walk is unconditional (every prediction has label None)."""
    steps = [int(t) for t in timesteps]
    if steps[0] != 0 or steps != sorted(set(steps)):
        raise ConfigError(f"timestep grid must be strictly increasing from 0, got {steps}")
    schedule._check_t(steps[-1], 1)
    return _walk(schedule, x0, steps, oracle.eps_predict, None)


def _walk(schedule: NoiseSchedule, x, nodes: list[int], predict, cond) -> Trajectory:
    """Hop from nodes[0] through each later node (the caller checked them),
    predicting epsilon with predict(schedule, x, t, cond) at each node it leaves."""
    x = np.asarray(x, dtype=float).copy()
    latents = [x]
    cache = []
    for a, b in zip(nodes, nodes[1:]):
        eps = predict(schedule, x, a, cond)
        x = _hop(schedule, x, a, b, eps)
        cache.append(eps)
        latents.append(x)
    return Trajectory(tuple(latents), tuple(cache))


def inversion_grid(t: int, stride: int) -> list[int]:
    """Grid [0, stride, 2*stride, ..., t]; the final gap may be shorter."""
    return [*range(0, t, stride), t]


def descent_grid(t: int, stride: int) -> list[int]:
    """Nodes visited when stepping down from t by stride (final hop shorter),
    returned ascending: [0, t mod stride?, ..., t - stride, t]."""
    return [0, *range(t, 0, -stride)[::-1]]


def denoise_path(oracle: MixtureOracle, schedule: NoiseSchedule, xt, t: int,
                 stride: int, g: GuidanceSpec) -> Trajectory:
    """Walk from (xt, t) down to timestep 0, re-evaluating the guided epsilon
    at every visited latent. The last latent is the multi-step clean estimate,
    which is the single-step one, hop(schedule, xt, t, 0, eps), when stride >= t:
    a stride at least as long as the walk is one hop."""
    t = schedule._check_t(t, 1)
    if not stride >= 1:
        raise ConfigError(f"need stride >= 1, got stride={stride}")
    return _walk(schedule, xt, descent_grid(t, stride)[::-1], oracle.eps_guided, g)
