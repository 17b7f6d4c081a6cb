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
from .generators import View, ViewJitterSpec, canonical_view, sample_view
from .objectives import ism_gradient, naive_gradient, sds_gradient
from .oracle import GuidanceSpec, Label, MixtureOracle
from .schedule import NoiseSchedule

OBJECTIVES = ("ism", "sds", "naive")

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
    """One distillation run's settings (docs/config.md); build_distill checks them."""

    objective: str
    iterations: int
    t_min: int
    t_max: int
    delta_t_start: int
    delta_t_end: int
    delta_s: int
    guidance: GuidanceSpec
    view_batch: int = 1
    optimizer: OptimConfig = OptimConfig()
    seed: int = 0
    jitter: ViewJitterSpec = ViewJitterSpec()
    snapshot_every: int = 0


@dataclass
class LogRow:
    iter: int
    t: int
    delta_t: int
    grad_norm: float
    oracle_calls: int
    loss_proxy: float
    mode_distance: float
    wall_time: float


@dataclass
class RunLog:
    rows: list[LogRow] = field(default_factory=list)
    initial_mode_distance: float = math.nan
    final_mode_distance: float = math.nan
    frames: list[tuple[int, np.ndarray]] = field(default_factory=list)

    def total_oracle_calls(self) -> int:
        return sum(r.oracle_calls for r in self.rows)

    def first_crossing(self, threshold: float) -> Optional[int]:
        """First iteration whose entering state is within threshold of a mode;
        the final state counts as iteration len(rows)."""
        for r in self.rows:
            if r.mode_distance <= threshold:
                return r.iter
        if self.final_mode_distance <= threshold:
            return len(self.rows)
        return None

    def metrics_table(self) -> tuple[tuple[str, ...], list[tuple]]:
        """metrics.csv's header and rows, a row's fields in declaration order."""
        return METRICS_CSV_HEADER, [tuple(vars(r).values()) for r in self.rows]

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
    """Interval length at an iteration: linear anneal from delta_t_start to
    delta_t_end over the run (non-increasing when the end is smaller)."""
    if cfg.iterations <= 1:
        return cfg.delta_t_start
    frac = iter_index / (cfg.iterations - 1)
    return int(round(cfg.delta_t_start + frac * (cfg.delta_t_end - cfg.delta_t_start)))


@dataclass
class DistillState:
    generator: object
    adam: AdamOptimizer
    rng_t: np.random.Generator
    rng_view: np.random.Generator
    rng_noise: np.random.Generator
    log: RunLog
    started: float
    cview: View


def init_state(generator, oracle: MixtureOracle, cfg: DistillConfig) -> DistillState:
    ss = np.random.SeedSequence(cfg.seed).spawn(3)
    cview = canonical_view(cfg.jitter.width, cfg.jitter.height)
    log = RunLog()
    log.initial_mode_distance = nearest_mode_distance(
        oracle, cfg.guidance.positive, generator.render(cview))
    return DistillState(
        generator=generator,
        adam=AdamOptimizer(generator.n_params, cfg.optimizer),
        rng_t=np.random.default_rng(ss[0]),
        rng_view=np.random.default_rng(ss[1]),
        rng_noise=np.random.default_rng(ss[2]),
        log=log,
        started=time.perf_counter(),
        cview=cview,
    )


def distill_step(state: DistillState, oracle: MixtureOracle,
                 schedule: NoiseSchedule, cfg: DistillConfig,
                 iter_index: int) -> LogRow:
    """One optimisation step; appends and returns its log row.

    The logged mode distance is that of the canonical render *entering* the
    step, so row 0 reflects the initial parameters. With zero jitter every
    view is the canonical one and that render is also each view's x0. A
    non-finite accumulated gradient appends a diagnostic row and aborts the
    run; a non-finite point met by the oracle aborts it without a row. Both
    raise a NumericalError naming the iteration and timestep.
    """
    gen = state.generator
    t = int(state.rng_t.integers(cfg.t_min, cfg.t_max + 1))
    delta_t = current_interval(cfg, iter_index)
    entering = gen.render(state.cview)
    entering_distance = nearest_mode_distance(oracle, cfg.guidance.positive, entering)
    canonical = cfg.jitter.is_canonical

    grad_theta = np.zeros(gen.n_params)
    calls = 0
    loss_proxy = 0.0
    for _ in range(cfg.view_batch):
        # drawn even for the canonical view, so matched runs share the stream
        view_seed = int(state.rng_view.integers(0, 2 ** 63 - 1))
        view = state.cview if canonical else sample_view(view_seed, cfg.jitter)
        x0 = entering if canonical else gen.render(view)
        try:
            if cfg.objective == "sds":
                eps = state.rng_noise.standard_normal(x0.shape[0])
                report = sds_gradient(oracle, schedule, x0, t, eps, cfg.guidance)
            elif cfg.objective == "ism":
                # stride cannot exceed the inversion target s = t - delta_t
                delta_s = min(cfg.delta_s, t - delta_t)
                report = ism_gradient(oracle, schedule, x0, t, delta_t,
                                      delta_s, cfg.guidance)
            elif cfg.objective == "naive":
                report = naive_gradient(oracle, schedule, x0, t, delta_t, cfg.guidance)
            else:
                raise ConfigError(f"objective must be one of {OBJECTIVES}, got {cfg.objective!r}")
        except NumericalError as exc:
            raise NumericalError(f"{exc} at iteration {iter_index}, t={t}") from exc
        grad_theta += gen.backward(view, report.grad_x0)
        calls += report.oracle_calls
        loss_proxy += float(squared_distances(x0, report.pseudo_gt))
    loss_proxy /= cfg.view_batch

    row = LogRow(iter=iter_index, t=t, delta_t=delta_t, grad_norm=norm(grad_theta),
                 oracle_calls=calls, loss_proxy=loss_proxy, mode_distance=entering_distance,
                 wall_time=time.perf_counter() - state.started)
    state.log.rows.append(row)
    if not math.isfinite(row.grad_norm) and not np.logical_and.reduce(np.isfinite(grad_theta)):
        raise NumericalError(f"non-finite gradient at iteration {iter_index}, t={t}")

    gen.set_params(state.adam.step(gen.get_params(), grad_theta))

    if cfg.snapshot_every > 0 and gen.image_shape(cfg.jitter) is not None \
            and (iter_index + 1) % cfg.snapshot_every == 0:
        state.log.frames.append((iter_index + 1, gen.render(state.cview)))
    return row


def run_distillation(generator, oracle: MixtureOracle, schedule: NoiseSchedule,
                     cfg: DistillConfig) -> RunLog:
    """Execute a full run; metrics are a pure function of (config, seed).

    A NumericalError carries the rows logged up to the failure as ``log``
    and names the run (objective, seed, interval, stride). numpy's overflow
    and invalid-value warnings are the caller's to silence, as the CLI does
    for every kind.
    """
    state = init_state(generator, oracle, cfg)
    try:
        for i in range(cfg.iterations):
            distill_step(state, oracle, schedule, cfg, i)
    except NumericalError as exc:
        exc.args = (f"{exc} of the {cfg.objective} run with seed={cfg.seed}, "
                    f"delta_T={current_interval(cfg, i)}, delta_S={cfg.delta_s}",)
        exc.log = state.log
        raise
    state.log.final_mode_distance = nearest_mode_distance(
        oracle, cfg.guidance.positive, generator.render(state.cview))
    return state.log
