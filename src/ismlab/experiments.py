"""Named, config-driven diagnostic experiments.

Each runner consumes an ExperimentSpec and returns a Report: the summary
that becomes report.json, the CSV tables (name -> header and rows) and, for
image-producing generators, the frames (name -> image). ``write_report``
writes any report in one pass: report.json, ``<name>.csv`` per table and
``frames/<name>.ppm`` per frame. Every report is a pure function of its spec,
so reruns reproduce outputs exactly.

Kinds:
  * consistency -- spread of stochastic single-step clean targets versus the
    deterministic inversion-based targets, for a fixed rendered view.
  * quality     -- distance-to-mode of single-step versus multi-step clean
    estimates across timesteps.
  * eta-sweep   -- magnitude of the multi-step bias relative to the interval
    score across interval lengths, with cost accounting.
  * interval-sweep -- full distillations over an (interval, stride) grid.
  * race        -- matched-seed interval-vs-noise-matching distillations with
    threshold-crossing statistics.
  * gradcheck   -- finite-difference and algebraic self-checks, pass/fail.

The CLI's plain ``distill`` kind has its runner (``cli._run_distill``) beside
these in ``cli.RUNNERS``; it, race and interval-sweep summarise the logs of
``run_distillations``, one distillation per cell.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import config as cfgmod
from .config import MAX_SIZE, NON_NEGATIVE, SIZE, need, nonempty, one_of, positive, read
from .distill import DistillConfig, RunLog, nearest_mode_distance, run_distillation, write_csv
from .errors import ConfigError, NumericalError
from .generators import ViewJitterSpec, canonical_view, random_scene
from .objectives import GAP_LIMIT, interval_pieces, ism_gradient, sds_gradient
from .oracle import GuidanceSpec, MixtureOracle
from .ppm import write_ppm
from .schedule import NoiseSchedule
from .trajectory import denoise_path, hop, inversion_grid, invert_along

CONSISTENCY_CSV_HEADER = ("t", "sds_noise_variance", "ism_noise_variance")
QUALITY_CSV_HEADER = ("t", "err_single", "err_multi", "oracle_calls_multi")
ETA_CSV_HEADER = ("t", "delta_T", "eta_norm", "interval_norm", "ratio",
                  "decomposition_residual", "naive_calls", "ism_calls")
GRADIENTS_CSV_HEADER = ("t", "s", "grad_norm", "oracle_calls", "objective")
INTERVAL_CSV_HEADER = ("delta_T", "delta_S", "final_mode_distance",
                       "oracle_calls", "wall_time")
RACE_CSV_HEADER = ("seed", "objective", "iter", "mode_distance")
RACE_SUMMARY_CSV_HEADER = ("seed", "ism_crossing", "sds_crossing", "threshold")
GRADCHECK_CSV_HEADER = ("check", "max_error", "tolerance", "passed")

GRADCHECKS = {  # name -> (its max error for an ExperimentSpec, tolerance)
    "score_fd": (lambda s: score_fd_check(s.oracle, s.schedule, seed=s.seeds[0]), 1e-5),
    "renderer_fd": (lambda s: renderer_fd_check(seed=s.seeds[0]), 1e-4),
    "gradient_forms": (lambda s: gradient_forms_check(
        s.oracle, s.schedule, s.guidance, seed=s.seeds[0]), 1e-10),
    "decomposition": (lambda s: decomposition_sweep_check(
        s.oracle, s.schedule, s.guidance, seed=s.seeds[0]), GAP_LIMIT),
}
# The kinds that render a generator, and those that run distillations.
GENERATOR_KINDS = ("consistency", "eta-sweep", "interval-sweep", "race", "distill")
DISTILL_KINDS = ("interval-sweep", "race", "distill")


@dataclass
class Report:
    """What a runner produced: ``summary`` is report.json's object, its
    ``"kind"`` first; ``tables`` maps a CSV name to its header and rows (None
    is written as an empty cell); ``frames`` maps a frame name to an image; ``failed``
    names the failed checks, which are not written. Building one raises NumericalError
    at its first non-finite float, in a table's row (naming its column and the row's
    cells before its first float), then in a top-level summary value."""

    summary: dict
    tables: dict[str, tuple[Sequence[str], Sequence[Sequence]]] = field(default_factory=dict)
    frames: dict[str, np.ndarray] = field(default_factory=dict)
    failed: list[str] = field(default_factory=list)

    def __post_init__(self):
        for header, rows in self.tables.values():
            for row in rows:
                for col, v in zip(header, row):
                    if isinstance(v, float) and not math.isfinite(v):
                        lead = row[:[isinstance(c, float) for c in row].index(True)]
                        where = ", ".join(map("{}={}".format, header, lead))
                        raise NumericalError(f"non-finite {col}" + (where and f" at {where}"))
        for key, v in self.summary.items():
            if isinstance(v, float) and not math.isfinite(v):
                raise NumericalError(f"non-finite {key}")


@dataclass
class ExperimentSpec:
    """Parsed experiment configuration (docs/config.md; EXPERIMENT declares the defaults);
    ``generator`` is None for a kind that renders none and a config without one."""

    schedule: NoiseSchedule
    oracle: MixtureOracle
    guidance: GuidanceSpec
    t_values: list[int]
    delta_T_values: list[int]
    delta_S_values: list[int]
    jitter: ViewJitterSpec
    generator: object
    noise_draws: int
    seeds: list[int]
    threshold: float
    start_points: int
    distill: Optional[DistillConfig]
    checks: list[str]


EXPERIMENT = {"t_values": ([100, 300, 500, 700, 900],
                           nonempty(positive(int, -math.inf), distinct=True)),
              "delta_T_values": ([10, 25, 50, 100], nonempty(positive(int), distinct=True)),
              "delta_S_values": ([50], nonempty(positive(int), distinct=True)),
              "seeds": ([0], nonempty(NON_NEGATIVE, distinct=True)),
              "noise_draws": (8, positive(int, 2, True, MAX_SIZE)),
              "threshold": (0.2, positive(float, 0, True)), "start_points": (20, SIZE),
              "checks": (None, lambda v: nonempty(one_of(*GRADCHECKS), 0, distinct=True)(
                  list(GRADCHECKS) if v is None else v))}


def _t_values_in_schedule(s) -> None:
    need(all(1 <= t <= s.schedule.num_steps for t in s.t_values),
         "every experiment.t_values entry in [1, schedule.T]", s.t_values, s.schedule.num_steps)


def _rows_below_max_size(rows: str, count):
    """Check that count(spec) rows times the oracle's (K, D) means fit below MAX_SIZE."""
    return lambda s: need(count(s) * s.oracle.means.size < MAX_SIZE, f"{rows} * len(oracle."
                          f"components) * the oracle's dimension < {MAX_SIZE}",
                          count(s), *s.oracle.means.shape)


def _frames_have_1_or_3_channels(s) -> None:
    """Check that an image generator's renders can be written as frames/*.ppm."""
    shape = s.generator.image_shape(s.jitter)
    need(shape is None or shape[2] in (1, 3), "generator.channels (generator.background's "
         "length with generator.splats) of 1 or 3 to write frames", shape and shape[2])


# kind -> checks of a built spec that hold for that kind only
KIND_CHECKS = {
    "consistency": (_t_values_in_schedule, _rows_below_max_size(
        "len(experiment.t_values) * experiment.noise_draws",  # every t's targets are kept
        lambda s: len(s.t_values) * s.noise_draws), _frames_have_1_or_3_channels),
    "quality": (_t_values_in_schedule, _rows_below_max_size("experiment.start_points",
                                                            lambda s: s.start_points)),
    "gradcheck": (_rows_below_max_size("score_fd in experiment.checks: the oracle's dimension",
                                       lambda s: s.oracle.dim * ("score_fd" in s.checks)),),
    "eta-sweep": (_t_values_in_schedule, lambda s: need(
        min(s.delta_T_values) <= max(s.t_values),
        "some experiment.delta_T_values entry <= some experiment.t_values entry for eta-sweep",
        min(s.delta_T_values), max(s.t_values))),
    "interval-sweep": (lambda s: need(
        max(s.delta_T_values) < s.distill.t_min,
        "every experiment.delta_T_values entry < distill.t_min for interval-sweep",
        max(s.delta_T_values), s.distill.t_min), _frames_have_1_or_3_channels),
    "distill": (_frames_have_1_or_3_channels,),
    "race": (lambda s: need(len(s.seeds) >= 2, "two or more experiment.seeds for a race median",
                            s.seeds),),
}


def build_experiment(cfg: dict, kind: str) -> ExperimentSpec:
    """The spec of a config, an object of SECTIONS. Every section present is built
    once, whatever the kind, and so are the generator and distill sections the kind
    needs; a built distill section holds the spec's guidance and jitter. Each
    EXPERIMENT key is a spec field of the same name. Guidance labels must be oracle
    labels, a rendering kind's render must have the oracle's dimension and its
    splat planes fewer than MAX_SIZE values, and KIND_CHECKS must pass."""
    read(cfg, cfgmod.SECTIONS, "")
    e = read(cfg.get("experiment"), EXPERIMENT, "experiment")
    schedule, oracle = cfgmod.build_schedule(cfg), cfgmod.build_oracle(cfg)
    generator = (cfgmod.build_generator(cfg)
                 if "generator" in cfg or kind in GENERATOR_KINDS else None)
    distill = cfgmod.build_distill(cfg) if "distill" in cfg or kind in DISTILL_KINDS else None
    guidance, jitter = ((distill.guidance, distill.jitter) if distill is not None
                        else (cfgmod.build_guidance(cfg), cfgmod.build_jitter(cfg)))
    spec = ExperimentSpec(schedule, oracle, guidance, jitter=jitter, generator=generator,
                          distill=distill, **e)
    for key, label in (("positive", guidance.positive), ("negative", guidance.negative)):
        if label not in (None, *oracle.labels):
            raise ConfigError(f"guidance.{key} is not null or an oracle label: {label!r}")
    if kind in GENERATOR_KINDS:  # an image renders its shape, a latent its parameters
        shape = spec.generator.image_shape(jitter)
        size = math.prod(shape) if shape else spec.generator.n_params
        need(size == oracle.dim, ("view.width * view.height * generator.channels" if shape
                                  else "len(generator.theta)") + " == the oracle's dimension",
             size, oracle.dim)
        if shape:  # a render forms (splats, 2, pixels) planes, a backward (splats, pixels * C)
            n = spec.generator.n_params // (6 + shape[2])  # 6 + C values per splat, then C
            need(n * size // shape[2] * max(2, shape[2]) < MAX_SIZE, "generator.n_splats (len("
                 "generator.splats)) * view.height * view.width * max(2, generator.channels) "
                 f"< {MAX_SIZE}", n, *shape)
    for check in KIND_CHECKS.get(kind, ()):
        check(spec)
    return spec


def _variance(points: np.ndarray) -> np.ndarray:
    """Mean squared deviation from the mean (trace of the covariance) of
    (..., N, D) rows, one per leading index.

    Computed about the first row so that bitwise-identical rows give exactly
    zero (summation dust would otherwise leak in through the mean).
    """
    d = points - points[..., :1, :]
    centered = np.mean(np.sum(d * d, axis=-1), axis=-1) \
        - np.sum(np.mean(d, axis=-2) ** 2, axis=-1)
    return np.maximum(centered, 0.0)


def _montage(cells: np.ndarray, shape) -> np.ndarray:
    """Tile a (rows, cols, H * W * C) array of flat (H, W, C) images into
    one image with 1-pixel separators."""
    h, w, c = shape
    rows, cols = cells.shape[:2]
    out = np.ones((rows, h + 1, cols, w + 1, c))
    out[:, :h, :, :w] = cells.reshape(rows, cols, h, w, c).transpose(0, 2, 1, 3, 4)
    return out.reshape(rows * (h + 1), cols * (w + 1), c)[:-1, :-1]


def run_distillations(spec: ExperimentSpec, cells: Sequence[dict]) -> list[RunLog]:
    """One distillation per cell, in order: a copy of spec.generator run on
    spec.distill with the cell's DistillConfig fields replaced."""
    return [run_distillation(copy.deepcopy(spec.generator), spec.oracle, spec.schedule,
                             replace(spec.distill, **cell)) for cell in cells]


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------

def run_consistency(spec: ExperimentSpec) -> Report:
    """Spread of clean targets for a fixed view.

    The stochastic branch draws K noise vectors per timestep and takes the
    SDS pseudo-target (single-step clean estimate) of each; the deterministic
    branch inverts the view and denoises multi-step, K copies of it in one
    walk to demonstrate (rather than assume) zero spread.
    """
    stride = spec.delta_S_values[0]
    sch, oracle, g, jit = spec.schedule, spec.oracle, spec.guidance, spec.jitter
    x0 = spec.generator.render(canonical_view(jit.width, jit.height))
    views = np.tile(x0, (spec.noise_draws, 1))
    rng = np.random.default_rng(spec.seeds[0])

    sds, ism = [], []  # per timestep, (K, D) targets
    for t in spec.t_values:
        sds.append(sds_gradient(oracle, sch, x0, t, rng.standard_normal(views.shape), g).pseudo_gt)
        try:  # only the walks meet a non-finite point: sds noises a finite x0
            xt = invert_along(oracle, sch, views, inversion_grid(t, stride)).latents[-1]
            ism.append(denoise_path(oracle, sch, xt, t, stride, g).latents[-1])
        except NumericalError as exc:
            raise NumericalError(f"{exc} at t={t}") from None
    sds, ism = np.stack(sds), np.stack(ism)

    summary = {"kind": "consistency", "t_values": spec.t_values,
               "sds_noise_variance": _variance(sds).tolist(),
               "ism_noise_variance": _variance(ism).tolist(),
               "sds_across_t_variance": float(_variance(sds.mean(axis=1))),
               "ism_across_t_variance": float(_variance(ism.mean(axis=1)))}
    for name, targets in (("sds", sds), ("ism", ism)):
        flat = targets.reshape(-1, x0.shape[0])
        summary[f"{name}_mean_target_mode_distance"] = nearest_mode_distance(
            oracle, g.positive, flat.mean(axis=0))
        summary[f"{name}_mean_of_target_distances"] = float(np.mean(
            nearest_mode_distance(oracle, g.positive, flat)))
    rows = zip(summary["t_values"], summary["sds_noise_variance"], summary["ism_noise_variance"])
    report = Report(summary, {"consistency": (CONSISTENCY_CSV_HEADER, list(rows))})

    shape = spec.generator.image_shape(jit)
    if shape is not None:
        report.frames["sds_pseudo_gt_grid"] = _montage(sds, shape)
        report.frames["ism_pseudo_gt_grid"] = _montage(ism[:, :1], shape)
        report.frames["input_view"] = _montage(x0[None, None], shape)
    return report


# ---------------------------------------------------------------------------
# quality
# ---------------------------------------------------------------------------

def run_quality(spec: ExperimentSpec) -> Report:
    """Distance-to-mode of single-step versus multi-step clean estimates.

    Start points are drawn from the data prior; all of them are inverted
    deterministically to t in one walk and denoised in one more, whose first
    guided prediction also gives the single-step estimate. Errors and the
    multi-step oracle calls are averaged over start points.
    """
    sch, oracle, g = spec.schedule, spec.oracle, spec.guidance
    rng = np.random.default_rng(spec.seeds[0])
    starts = oracle.sample(rng, spec.start_points)
    inv_stride = spec.delta_S_values[0]
    label = g.positive

    rows = []
    for t in spec.t_values:
        try:
            xt = invert_along(oracle, sch, starts, inversion_grid(t, inv_stride)).latents[-1]
            before = oracle.eps_evals
            deno = denoise_path(oracle, sch, xt, t, spec.delta_T_values[0], g)
        except NumericalError as exc:
            raise NumericalError(f"{exc} at t={t}") from None
        calls = (oracle.eps_evals - before) / len(starts)
        single, multi = hop(sch, xt, t, 0, deno.eps_cache[0]), deno.latents[-1]
        rows.append((t, float(np.mean(nearest_mode_distance(oracle, label, single))),
                     float(np.mean(nearest_mode_distance(oracle, label, multi))), calls))
    return Report({"kind": "quality", "rows": rows}, {"quality": (QUALITY_CSV_HEADER, rows)})


# ---------------------------------------------------------------------------
# eta sweep
# ---------------------------------------------------------------------------

def run_eta_sweep(spec: ExperimentSpec) -> Report:
    """Bias magnitude versus interval length, with cost accounting. The
    multi-step pieces of each (t, delta_T) cell are built once and give its
    bias, decomposition residual (failed unless below GAP_LIMIT) and naive
    gradient. A cell's ratio is None when its interval norm is 0, and its
    gradient rows (naive, then ism unless delta_T = t) share s = t - delta_T;
    a stride at least t - delta_T inverts to s in one hop."""
    sch, oracle, g, jit = spec.schedule, spec.oracle, spec.guidance, spec.jitter
    x0 = spec.generator.render(canonical_view(jit.width, jit.height))
    delta_s = spec.delta_S_values[0]

    rows, grad_rows, failed = [], [], []
    for t in spec.t_values:
        for dt in spec.delta_T_values:
            if dt > t:
                continue
            try:
                pieces = interval_pieces(oracle, sch, x0, t, dt, g)
                bias, residual, naive = pieces.bias(), pieces.gap, pieces.naive()
                interval_norm = float(np.linalg.norm(sch.nsr[t] * pieces.interval))
                eta_norm = float(np.linalg.norm(bias))
                ratio = eta_norm / interval_norm if interval_norm > 0 else None
                ism = ism_gradient(oracle, sch, x0, t, dt, delta_s, g) if dt < t else None
            except NumericalError as exc:
                raise NumericalError(f"{exc} at t={t}, delta_T={dt}") from None
            grad_rows += [(t, t - dt, float(np.linalg.norm(r.grad_x0)), r.oracle_calls, name)
                          for name, r in (("naive", naive), ("ism", ism)) if r is not None]
            rows.append((t, dt, eta_norm, interval_norm, ratio, residual,
                         naive.oracle_calls, None if ism is None else ism.oracle_calls))
            if not residual < GAP_LIMIT:
                failed.append(f"decomposition at t={t}, delta_T={dt} (gap {residual:.3e})")
    return Report({"kind": "eta_sweep", "rows": rows},
                  {"eta_sweep": (ETA_CSV_HEADER, rows),
                   "gradients": (GRADIENTS_CSV_HEADER, grad_rows)}, failed=failed)


# ---------------------------------------------------------------------------
# interval sweep
# ---------------------------------------------------------------------------

def _axis_spread(rows: list[tuple], held_col: int) -> dict[int, float]:
    """Max pairwise gap of final mode distances over the rows that share a
    value in column held_col (how much the other grid axis matters), keyed by
    that held value."""
    out = {}
    for held in sorted({r[held_col] for r in rows}):
        dists = [r[2] for r in rows if r[held_col] == held]
        out[held] = float(max(dists) - min(dists)) if len(dists) > 1 else 0.0
    return out


def run_interval_sweep(spec: ExperimentSpec) -> Report:
    """Full distillation per (interval, stride) grid cell with a shared seed; a
    row's wall time is its run's last metrics.csv ``wall_time`` (0.0 for none)."""
    grid = [(dt, ds) for dt in spec.delta_T_values for ds in spec.delta_S_values]
    logs = dict(zip(grid, run_distillations(spec, [
        dict(delta_T_start=dt, delta_T_end=dt, delta_S=ds, seed=spec.seeds[0], snapshot_every=0)
        for dt, ds in grid])))
    rows = [(dt, ds, log.final_mode_distance, log.total_oracle_calls(),
             (log.columns["wall_time"] or [0.0])[-1]) for (dt, ds), log in logs.items()]
    frames = {f"final_dT{dt}_dS{ds}": log.frames["final"]
              for (dt, ds), log in logs.items() if "final" in log.frames}
    summary = {"kind": "interval_sweep", "rows": rows,
               "spread_over_delta_T": _axis_spread(rows, 1),
               "spread_over_delta_S": _axis_spread(rows, 0)}
    return Report(summary, {"interval_sweep": (INTERVAL_CSV_HEADER, rows)}, frames)


# ---------------------------------------------------------------------------
# race
# ---------------------------------------------------------------------------

def _median_crossing(crossings: dict[tuple[int, str], Optional[int]],
                     objective: str) -> Optional[float]:
    """Median first crossing of an objective's runs, a run that never crossed
    counting as infinite; None when the median is not finite. np.median's
    value, without the numpy.ma import it makes for float input."""
    runs = sorted(math.inf if c is None else c
                  for (seed, obj), c in crossings.items() if obj == objective)
    n = len(runs)  # for odd n the two middle values are one, and (a + a) / 2 == a
    median = (float(runs[(n - 1) // 2]) + float(runs[n // 2])) / 2
    return median if math.isfinite(median) else None


def run_race(spec: ExperimentSpec) -> Report:
    """Matched-seed interval-vs-noise-matching runs with shared timestep and
    view streams; records distance curves and first threshold crossings."""
    runs = [(seed, objective) for seed in spec.seeds for objective in ("ism", "sds")]
    logs = dict(zip(runs, run_distillations(spec, [
        dict(objective=objective, seed=seed, snapshot_every=0) for seed, objective in runs])))
    crossings = {run: log.first_crossing(spec.threshold) for run, log in logs.items()}
    summary = {"kind": "race", "threshold": spec.threshold,
               "crossings": {f"{seed}:{obj}": c for (seed, obj), c in crossings.items()},
               "median_ism_crossing": _median_crossing(crossings, "ism"),
               "median_sds_crossing": _median_crossing(crossings, "sds")}
    race_rows = [(seed, obj, i, d) for seed, obj in sorted(logs)
                 for i, d in enumerate(logs[seed, obj].curve)]
    summary_rows = [(seed, crossings[seed, "ism"], crossings[seed, "sds"], spec.threshold)
                    for seed in sorted(spec.seeds)]
    return Report(summary, {"race": (RACE_CSV_HEADER, race_rows),
                            "race_summary": (RACE_SUMMARY_CSV_HEADER, summary_rows)})


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def fd_gradient(f, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences at a flat vector of f, which maps rows to one value each."""
    d = step * np.eye(x.shape[0])
    return (f(x + d) - f(x - d)) / (2.0 * step)


def _worst(rngs, error) -> float:
    """The largest error(rng) over the generators rngs, one case each, in
    order; NaN if any case's error is NaN."""
    return float(np.max([error(rng) for rng in rngs]))


def score_fd_check(oracle: MixtureOracle, schedule: NoiseSchedule, seed: int = 0) -> float:
    """Max relative error between the analytic epsilon-prediction and the
    finite-difference gradient of the log density over 100 random points."""
    def error(rng):
        x = rng.uniform(-3.0, 3.0, size=oracle.dim)
        t = int(rng.integers(1, schedule.num_steps + 1))
        fd = fd_gradient(lambda p: oracle.log_density(schedule, p, t), x, 1e-5)
        expected = -schedule.s1mab[t] * fd
        got = oracle.eps_predict(schedule, x, t)
        return float(np.linalg.norm(got - expected)) / max(float(np.linalg.norm(expected)), 1e-12)
    return _worst([np.random.default_rng(seed)] * 100, error)


def renderer_fd_check(seed: int = 0) -> float:
    """Max relative error of analytic renderer gradients against central
    finite differences over 20 random single-channel 16x16 scenes."""
    def error(rng):
        # backgrounds strictly inside [0, 1]: finite differences must not
        # straddle the generator's clamp boundary
        gen = random_scene(3, 1, seed=int(rng.integers(2 ** 31)),
                           background=rng.uniform(0.2, 0.8, size=1))
        view = canonical_view(16, 16)
        grad_img = rng.standard_normal(16 * 16)
        analytic = gen.backward(view, grad_img)

        def loss(p):
            gen.set_params(p)
            return grad_img @ gen.render(view)

        fd = fd_gradient(lambda rows: np.array([loss(p) for p in rows]), gen.get_params(), 1e-4)
        floor = 1e-6 * max(1.0, float(np.abs(fd).max()))
        rel = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), floor)
        return float(rel.max())
    return _worst([np.random.default_rng((seed, k)) for k in range(20)], error)


def gradient_forms_check(oracle: MixtureOracle, schedule: NoiseSchedule,
                         g: GuidanceSpec, seed: int = 0) -> float:
    """Max absolute gap over 50 random draws between the noise-matching update
    and its equivalent sample-space form (loss weight over noise-to-signal
    times x0 minus the single-step clean target)."""
    def error(rng):
        x0 = rng.uniform(-2.0, 2.0, size=oracle.dim)
        t = int(rng.integers(1, schedule.num_steps + 1))
        report = sds_gradient(oracle, schedule, x0, t, rng.standard_normal(oracle.dim), g)
        alt = (schedule.omega[t] / schedule.nsr[t]) * (x0 - report.pseudo_gt)
        return float(np.abs(report.grad_x0 - alt).max())
    return _worst([np.random.default_rng(seed)] * 50, error)


def decomposition_sweep_check(oracle: MixtureOracle, schedule: NoiseSchedule,
                              g: GuidanceSpec, seed: int = 0) -> float:
    """Max interval_pieces gap over 50 random (x0, t, interval)."""
    def error(rng):
        x0 = rng.uniform(-2.0, 2.0, size=oracle.dim)
        dt = int(rng.choice([10, 25, 50, 100]))
        t = int(rng.integers(min(dt, schedule.num_steps), min(950, schedule.num_steps) + 1))
        return interval_pieces(oracle, schedule, x0, t, dt, g).gap
    return _worst([np.random.default_rng(seed)] * 50, error)


def run_gradcheck(spec: ExperimentSpec) -> Report:
    """Aggregate the package's independent-oracle checks into one report; ``ok``
    is whether every check passed (a non-finite error fails and is written as None)."""
    rows = []
    for name in spec.checks:
        check, tol = GRADCHECKS[name]
        try:
            err = check(spec)
        except NumericalError as exc:
            raise NumericalError(f"{exc} in the {name} check") from None
        rows.append((name, err if math.isfinite(err) else None, tol, err < tol))
    failed = [r[0] for r in rows if not r[3]]
    summary = {"kind": "gradcheck", "ok": not failed,
               "rows": [dict(zip(GRADCHECK_CSV_HEADER, r)) for r in rows]}
    return Report(summary, {"gradcheck": (GRADCHECK_CSV_HEADER, rows)}, failed=failed)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def write_report(report: Report, out_dir) -> None:
    """report.json from the summary, then ``<name>.csv`` per table and
    ``frames/<name>.ppm`` per frame, in the existing directory out_dir."""
    out = Path(out_dir)
    with open(out / "report.json", "w") as fh:
        json.dump(report.summary, fh, indent=2)
    for name, (header, rows) in report.tables.items():
        write_csv(out / f"{name}.csv", header, rows)
    if report.frames:
        (out / "frames").mkdir(exist_ok=True)
    for name, img in report.frames.items():
        write_ppm(out / "frames" / f"{name}.ppm", img)


RUNNERS = {
    "consistency": run_consistency,
    "quality": run_quality,
    "eta-sweep": run_eta_sweep,
    "interval-sweep": run_interval_sweep,
    "race": run_race,
    "gradcheck": run_gradcheck,
}
