"""The distillation optimisation loop.

Each iteration samples a timestep, renders a batch of views, evaluates the
configured objective's update direction for each rendered view, pulls the
directions back through the generator, and applies one adaptive-moment
update to the parameters.

Reproducibility contract: all randomness is derived from the run seed via
three independent substreams (timesteps, views, noise), so matched-seed runs
of different objectives see identical timestep and view sequences, and a
noise-free objective leaves the noise stream untouched without affecting the
others.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .generators import ViewJitterSpec, canonical_view, sample_view
from .objectives import ism_gradient, naive_gradient, sds_gradient
from .oracle import GuidanceSpec, Label, MixtureOracle
from .schedule import NoiseSchedule

# objective name -> its update direction at one view x0 of a step, a function
# of (step state, oracle, schedule, config, x0, t, delta_t); sds draws its
# noise from the step's noise stream.
OBJECTIVES = {
    "ism": lambda state, oracle, schedule, cfg, x0, t, delta_t: ism_gradient(
        oracle, schedule, x0, t, delta_t, cfg.delta_S, cfg.guidance),
    "sds": lambda state, oracle, schedule, cfg, x0, t, delta_t: sds_gradient(
        oracle, schedule, x0, t, state.rng_noise.standard_normal(x0.shape[0]), cfg.guidance),
    "naive": lambda state, oracle, schedule, cfg, x0, t, delta_t: naive_gradient(
        oracle, schedule, x0, t, delta_t, cfg.guidance),
}
METRICS_CSV_HEADER = ("iter", "t", "delta_T", "grad_norm", "oracle_calls",
                      "loss_proxy", "nearest_mode_distance", "wall_time")


@dataclass(frozen=True)
class OptimConfig:
    step_size: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.99
    eps_hat: float = 1e-8


class AdamOptimizer:
    """Adaptive-moment update with bias correction."""

    def __init__(self, n_params: int, cfg: OptimConfig):
        self.cfg = cfg
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.k = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        c = self.cfg
        self.k += 1
        # in place, by the operations of beta * m + (1 - beta) * g in their order
        self.m *= c.beta1
        self.m += (1.0 - c.beta1) * grad
        self.v *= c.beta2
        self.v += (1.0 - c.beta2) * grad * grad
        m_hat = self.m / (1.0 - c.beta1 ** self.k)
        v_hat = self.v / (1.0 - c.beta2 ** self.k)
        return params - c.step_size * m_hat / (np.sqrt(v_hat) + c.eps_hat)


@dataclass(frozen=True)
class DistillConfig:
    """One run's settings by distill key (docs/config.md); build_distill checks them."""

    objective: str
    iterations: int
    t_min: int
    t_max: int
    delta_T_start: int
    delta_T_end: int
    delta_S: int
    view_batch: int
    seed: int
    snapshot_every: int
    optimizer: OptimConfig
    guidance: GuidanceSpec
    jitter: ViewJitterSpec

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {tuple(OBJECTIVES)}, "
                              f"got {self.objective!r}")


@dataclass
class RunLog:
    """A run's metrics.csv columns (header name -> one entry per iteration),
    final mode distance and, for an image generator, frames (name -> (H, W, C)
    image): ``iter_%06d`` per snapshot, then ``final``."""

    columns: dict[str, list] = field(
        default_factory=lambda: {name: [] for name in METRICS_CSV_HEADER})
    final_mode_distance: float = math.nan
    frames: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def curve(self) -> list[float]:
        """The mode distance entering each iteration, then the final one."""
        return self.columns["nearest_mode_distance"] + [self.final_mode_distance]

    def total_oracle_calls(self) -> int:
        return sum(self.columns["oracle_calls"])

    def first_crossing(self, threshold: float) -> Optional[int]:
        """First curve index within threshold of a mode (iterations is the final state)."""
        return next((i for i, d in enumerate(self.curve) if d <= threshold), None)

    def metrics_table(self) -> tuple[tuple[str, ...], list[tuple]]:
        """metrics.csv's header and rows."""
        return METRICS_CSV_HEADER, list(zip(*self.columns.values()))

    def write_metrics_csv(self, path) -> None:
        write_csv(path, *self.metrics_table())


def write_csv(path, header, rows) -> None:
    """A CSV file of a header and rows; None is written as an empty cell and a
    float by its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a 1-D float array, bit for bit."""
    return math.sqrt(v.dot(v))


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """np.sum((a - b) ** 2, axis=-1) bit for bit; its square root is
    np.linalg.norm(a - b, axis=-1) bit for bit."""
    d = a - b
    return np.add.reduce(d * d, axis=-1)


def nearest_mode_distance(oracle: MixtureOracle, label: Label, x) -> float | list[float]:
    """Distance from x to the closest component mean selected by the label:
    a float for a point, a list with one per row for (N, D) rows."""
    x = np.asarray(x, dtype=float)
    d2 = np.minimum.reduce(squared_distances(oracle.label_means(label), x[..., None, :]).T)
    return np.sqrt(d2).tolist() if d2.ndim else math.sqrt(d2)


def current_interval(cfg: DistillConfig, iter_index: int) -> int:
    """Interval length at an iteration: linear anneal from delta_T_start to
    delta_T_end over the run (non-increasing when the end is smaller)."""
    if cfg.iterations <= 1:
        return cfg.delta_T_start
    frac = iter_index / (cfg.iterations - 1)
    return int(round(cfg.delta_T_start + frac * (cfg.delta_T_end - cfg.delta_T_start)))


class DistillState:
    """A run's mutable state: its generator and optimiser, the three seed
    substreams (timesteps, views, noise), its record, start time and canonical view."""

    def __init__(self, generator, cfg: DistillConfig):
        ss = np.random.SeedSequence(cfg.seed).spawn(3)
        self.generator = generator
        self.adam = AdamOptimizer(generator.n_params, cfg.optimizer)
        self.rng_t, self.rng_view, self.rng_noise = (np.random.default_rng(s) for s in ss)
        self.log = RunLog()
        self.started = time.perf_counter()
        self.cview = canonical_view(cfg.jitter.width, cfg.jitter.height)


def distill_step(state: DistillState, oracle: MixtureOracle,
                 schedule: NoiseSchedule, cfg: DistillConfig,
                 iter_index: int, t: int, entering: np.ndarray, distance: float) -> None:
    """One optimisation step at timestep t from entering, the canonical render
    of its parameters, whose mode distance is distance; appends one entry to
    each column of the run's log.

    With zero jitter entering is every view's x0, which objectives only read. A
    gradient norm that is not finite (an entry, or squares past the doubles that
    would freeze Adam) appends its row and raises a NumericalError; a non-finite
    point met by the oracle raises one without a row. run_distillation names where."""
    gen = state.generator
    delta_t = current_interval(cfg, iter_index)
    canonical = cfg.jitter.is_canonical

    grad_theta = np.zeros(gen.n_params)
    calls = 0
    loss_proxy = 0.0
    for _ in range(cfg.view_batch):
        # drawn even for the canonical view, so matched runs share the stream
        view_seed = int(state.rng_view.integers(0, 2 ** 63 - 1))
        view = state.cview if canonical else sample_view(view_seed, cfg.jitter)
        x0 = entering if canonical else gen.render(view)
        report = OBJECTIVES[cfg.objective](state, oracle, schedule, cfg, x0, t, delta_t)
        grad_theta += gen.backward(view, report.grad_x0)
        calls += report.oracle_calls
        loss_proxy += float(squared_distances(x0, report.pseudo_gt))
    loss_proxy /= cfg.view_batch

    grad_norm = norm(grad_theta)
    row = (iter_index, t, delta_t, grad_norm, calls, loss_proxy, distance,
           time.perf_counter() - state.started)  # in METRICS_CSV_HEADER's order
    for column, value in zip(state.log.columns.values(), row):
        column.append(value)
    if not math.isfinite(grad_norm):
        raise NumericalError("non-finite gradient")

    gen.set_params(state.adam.step(gen.get_params(), grad_theta))


def run_distillation(generator, oracle: MixtureOracle, schedule: NoiseSchedule,
                     cfg: DistillConfig) -> RunLog:
    """Execute a full run; metrics are a pure function of (config, seed).

    The loop draws each step's timestep and renders each parameter state once
    on the canonical view: that render gives the state's mode distance, enters
    the step from it and is its snapshot, if any, or final. A non-finite mode
    distance, checked after the state's step, is a NumericalError. This names
    every NumericalError of the run: iteration, timestep (none for the final
    state) and run (objective, seed, last step's interval, stride); ``log``
    holds the columns logged up to it. numpy's overflow and invalid-value
    warnings are the caller's to silence, as the CLI does for every kind."""
    state = DistillState(generator, cfg)
    shape = generator.image_shape(cfg.jitter)
    try:
        for i in range(cfg.iterations + 1):
            render = generator.render(state.cview)
            if shape is not None and i and cfg.snapshot_every and not i % cfg.snapshot_every:
                state.log.frames[f"iter_{i:06d}"] = render.reshape(shape)
            distance = nearest_mode_distance(oracle, cfg.guidance.positive, render)
            if i < cfg.iterations:
                t = int(state.rng_t.integers(cfg.t_min, cfg.t_max + 1))
                distill_step(state, oracle, schedule, cfg, i, t, render, distance)
            if not math.isfinite(distance):
                raise NumericalError("non-finite mode distance")
    except NumericalError as exc:
        step = f", t={t}" if i < cfg.iterations else ""
        last = current_interval(cfg, min(i, cfg.iterations - 1))  # delta_T_start before a step
        exc.args = (f"{exc} at iteration {i}{step} of the {cfg.objective} run with "
                    f"seed={cfg.seed}, delta_T={last}, delta_S={cfg.delta_S}",)
        exc.log = state.log
        raise
    state.log.final_mode_distance = distance
    if shape is not None:
        state.log.frames["final"] = render.reshape(shape)
    return state.log
