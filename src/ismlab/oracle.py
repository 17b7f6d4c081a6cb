"""Closed-form denoiser oracle over an isotropic Gaussian-mixture data prior.

The mixture plays the role a pretrained denoising network would play in a
full-scale distillation pipeline: given a noisy point x at timestep t it
returns the epsilon-prediction

    eps(x, t, label) = -sqrt(1 - alpha_bar_t) * grad_x log p_t(x | label),

where p_t restricted to a label is the noised mixture

    p_t(x | label) = sum_k w_k N(x; sqrt(alpha_bar_t) mu_k,
                                 (alpha_bar_t sigma_k^2 + 1 - alpha_bar_t) I)

over that label's components with renormalised weights. A label is a named
subset of mixture components (the mixture analog of a prompt selecting
modes); the reserved null label ``None`` selects every component.

Conventions:
  * eps(x, 0, label) = 0, the sigma > 0 limit of the formula at t = 0, so
    trajectories may start at the clean-data boundary.
  * component sigmas are clamped to SIGMA_MIN; an exact point mass would make
    the t -> 0 score singular off-manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericalError, UnknownLabelError
from .schedule import NoiseSchedule

SIGMA_MIN = 1e-4

Label = Optional[str]


@dataclass(frozen=True)
class GuidanceSpec:
    """Classifier-free guidance settings.

    The guided prediction extrapolates from the negative-label branch toward
    the positive-label branch:

        eps_guided = eps(x, t, negative) + scale * (eps(x, t, positive)
                                                    - eps(x, t, negative))

    ``negative`` defaults to the null label (unconditional branch).
    """

    positive: Label
    negative: Label = None
    scale: float = 7.5

    def __post_init__(self):
        if not math.isfinite(self.scale):
            raise ConfigError(f"guidance scale must be finite, got {self.scale}")


@dataclass(frozen=True, eq=False)
class _LabelTerms:
    """Constants of one label's restricted mixture, fixed at construction."""

    idx: np.ndarray        # component indices
    logw: np.ndarray       # log weights, renormalised unless the label is the null label
    means: np.ndarray      # (K, D) read-only copy of the selected means
    sig2: np.ndarray       # (K,) component variances sigma_k^2
    single: bool           # one component: its responsibility is exactly 1
    consts: dict = field(default_factory=dict)  # memo: alpha_bar_t -> _consts


class MixtureOracle:
    """Gaussian mixture with analytic noised scores and label conditioning.

    A point x is one point of shape (D,) or rows of points of shape (..., D)
    at one timestep: a call checks them once and returns what a call on each
    row returns, bit for bit.

    Treat instances as immutable after construction. The mutated state is
    ``eps_evals``, a diagnostic counter of evaluated rows (guided predictions
    count each internal branch they evaluate), and each label's memo of
    constants per noise level alpha_bar_t, which never changes a result and
    holds no schedule: schedules with an equal level share its entry.
    """

    def __init__(
        self,
        means: Sequence[Sequence[float]],
        sigmas: Sequence[float],
        weights: Sequence[float],
        labels: Optional[Mapping[str, Sequence[int]]] = None,
    ):
        means = np.atleast_2d(np.asarray(means, dtype=float))
        sigmas = np.asarray(sigmas, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        n = means.shape[0]
        if sigmas.shape != (n,) or weights.shape != (n,):
            raise ConfigError("means, sigmas and weights must agree in length")
        if not (np.isfinite(means).all() and np.isfinite(sigmas).all()):
            raise ConfigError("mixture parameters must be finite")
        with np.errstate(all="ignore"):  # each weight's share of a sum that overflows is 0
            self.weights = weights / weights.sum()
        if not (np.all(weights > 0) and np.isfinite(weights).all() and self.weights.all()):
            raise ConfigError("component weights must be positive, finite shares of a finite sum")

        self.means, self.sigmas = means, np.maximum(sigmas, SIGMA_MIN)
        for a in (self.means, self.sigmas, self.weights):
            a.flags.writeable = False
        self.dim = means.shape[1]
        self._shape = means.shape[1:]  # the last axis of input points

        self._terms: dict[Label, _LabelTerms] = {}
        for name, idx in {None: range(n), **(labels or {})}.items():
            idx = np.asarray(tuple(int(i) for i in idx))
            if not idx.size:
                raise ConfigError(f"label {name!r} selects no components")
            if any(i < 0 or i >= n for i in idx.tolist()):
                raise ConfigError(f"label {name!r} has out-of-range component index")
            w, sig2 = self.weights[idx], self.sigmas[idx] ** 2
            terms = (idx, np.log(w if name is None else w / w.sum()), self.means[idx], sig2)
            for a in terms:
                a.flags.writeable = False
            self._terms[name] = _LabelTerms(*terms, single=idx.shape[0] == 1)
        self.eps_evals = 0

    @property
    def labels(self) -> dict[str, tuple[int, ...]]:
        """Each named label's component indices."""
        return {name: tuple(t.idx.tolist()) for name, t in self._terms.items() if name is not None}

    def label_means(self, label: Label) -> np.ndarray:
        """Read-only (K, D) means of the components the label selects."""
        return self._select(label).means

    def _select(self, label: Label) -> _LabelTerms:
        try:
            return self._terms[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def _checked(self, schedule: NoiseSchedule, x, t: int, label: Label):
        """The point or rows as a float array, the timestep as an int and the
        label's terms, each checked once per call: last axis, finiteness
        (entry by entry only if vdot(x, x), which never warns, is not finite),
        timestep range, label."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self._shape:
            raise ValueError(f"expected point of shape ({self.dim},), got {x.shape}")
        if not math.isfinite(np.vdot(x, x)) and not np.isfinite(x).all():
            raise NumericalError("non-finite input point")
        t = int(t)
        if not 0 <= t <= schedule.num_steps:
            raise IndexError(f"timestep {t} outside [0, {schedule.num_steps}]")
        return x, t, self._select(label)

    def _consts(self, schedule: NoiseSchedule, t: int, terms: _LabelTerms):
        """K-vectors at a checked timestep, memoised by its noise level, from
        the noised variances var: -var, 2 * var, -1 / var and the
        log-normalisers logw - D/2 * log(2 pi var)."""
        ab = schedule.ab[t]
        consts = terms.consts.get(ab)
        if consts is None:
            var = ab * terms.sig2 + (1.0 - ab)
            lognorm = terms.logw - 0.5 * self.dim * np.log(2.0 * math.pi * var)
            consts = terms.consts[ab] = (-var, 2.0 * var, -(1.0 / var), lognorm)
        return consts

    def log_density(self, schedule: NoiseSchedule, x, t: int, label: Label = None):
        """Log of the noised, label-restricted mixture density at x: a float
        for a point, an array over the leading axes for rows."""
        x, t, terms = self._checked(schedule, x, t, label)
        _, twovar, _, lognorm = self._consts(schedule, t, terms)
        diff = x[..., None, :] - terms.means * schedule.sab[t]
        logs = (lognorm - np.einsum("...kd,...kd->...k", diff, diff) / twovar).T
        m = np.maximum.reduce(logs)
        return (m + np.log(np.add.reduce(np.exp(logs - m)))).T

    def eps_predict(self, schedule: NoiseSchedule, x, t: int, label: Label = None) -> np.ndarray:
        """Epsilon-prediction -sqrt(1 - alpha_bar_t) * score of the noised mixture.

        Returns zeros at t = 0 (clean-data boundary convention).
        A single-component label skips the softmax (its responsibility is
        exactly 1), so its score stays finite even where |x - mu|^2
        overflows.
        """
        x, t, terms = self._checked(schedule, x, t, label)
        self.eps_evals += x.size // self.dim
        if t == 0:
            return np.zeros(x.shape)
        neg_var, twovar, neg_inv_var, lognorm = self._consts(schedule, t, terms)
        diff = x[..., None, :] - terms.means * schedule.sab[t]
        if terms.single:
            score = neg_inv_var @ diff
        else:
            # components first, so the reductions over K take no keepdims,
            # which would cost a single point about 0.5 us
            logs = (lognorm - np.einsum("...kd,...kd->...k", diff, diff) / twovar).T
            resp = np.exp(logs - np.maximum.reduce(logs))
            resp /= np.add.reduce(resp)
            # resp / -var is -(resp / var) bit for bit: a negated divisor negates the quotient
            score = np.vecmat(resp.T / neg_var, diff)
        return score * -schedule.s1mab[t]

    def sample(self, rng: np.random.Generator, n: int = 1, label: Label = None) -> np.ndarray:
        """Draw clean samples from the label-restricted mixture, shape (n, dim)."""
        terms = self._select(label)
        idx, probs = terms.idx, np.exp(terms.logw)
        comps = rng.choice(idx, size=n, p=probs / probs.sum())
        return self.means[comps] + self.sigmas[comps][:, None] * rng.standard_normal((n, self.dim))

    def eps_guided(self, schedule: NoiseSchedule, x, t: int, g: GuidanceSpec) -> np.ndarray:
        """Classifier-free-guided prediction.

        scale = 1 returns the positive branch and scale = 0 the negative
        branch exactly (single evaluation, no float recombination).
        """
        self._select(g.positive)
        self._select(g.negative)
        if g.scale == 1.0:
            return self.eps_predict(schedule, x, t, g.positive)
        if g.scale == 0.0:
            return self.eps_predict(schedule, x, t, g.negative)
        eps_neg = self.eps_predict(schedule, x, t, g.negative)
        eps_pos = self.eps_predict(schedule, x, t, g.positive)
        return eps_neg + g.scale * (eps_pos - eps_neg)
