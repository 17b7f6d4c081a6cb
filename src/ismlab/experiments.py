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
these in ``cli.RUNNERS``.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import config as cfgmod
from .config import MAX_SIZE, NON_NEGATIVE, SIZE, need, nonempty, one_of, positive, read
from .distill import DistillConfig, nearest_mode_distance, run_distillation, write_csv
from .errors import ConfigError
from .generators import ViewJitterSpec, canonical_view, random_scene
from .objectives import REPORT_CSV_HEADER, interval_pieces, ism_gradient, sds_gradient
from .oracle import GuidanceSpec, MixtureOracle
from .ppm import write_ppm
from .schedule import NoiseSchedule
from .trajectory import add_noise, denoise_path, inversion_grid, invert_along, pseudo_gt_single

CONSISTENCY_CSV_HEADER = ("t", "sds_noise_variance", "ism_noise_variance")
QUALITY_CSV_HEADER = ("t", "err_single", "err_multi", "oracle_calls_multi")
ETA_CSV_HEADER = ("t", "delta_T", "eta_norm", "interval_norm", "ratio",
                  "decomposition_residual", "naive_calls", "ism_calls")
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
        s.oracle, s.schedule, s.guidance, seed=s.seeds[0]), 1e-9),
}
DEFAULT_CHECKS = tuple(GRADCHECKS)
# The kinds that render a generator, and those that run distillations.
GENERATOR_KINDS = ("consistency", "eta-sweep", "interval-sweep", "race", "distill")
DISTILL_KINDS = ("interval-sweep", "race", "distill")


@dataclass
class Report:
    """What a runner produced: ``summary`` is report.json's object, its
    ``"kind"`` first; ``tables`` maps a CSV name to its header and rows (None
    is written as an empty cell); ``frames`` maps a frame name to an image."""

    summary: dict
    tables: dict[str, tuple[Sequence[str], Sequence[Sequence]]] = field(default_factory=dict)
    frames: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class ExperimentSpec:
    """Parsed experiment configuration; see docs/config.md for the JSON form.
    ``generator`` is the built generator (None for a kind that renders none
    and a config without a generator section)."""

    schedule: NoiseSchedule
    oracle: MixtureOracle
    guidance: GuidanceSpec
    t_values: Sequence[int]
    delta_t_values: Sequence[int]
    delta_s_values: Sequence[int]
    jitter: ViewJitterSpec = ViewJitterSpec()
    generator: object = None
    noise_draws: int = 8
    seeds: Sequence[int] = field(default_factory=lambda: [0])
    threshold: float = 0.2
    start_points: int = 20
    distill: Optional[DistillConfig] = None
    checks: tuple[str, ...] = DEFAULT_CHECKS

    def make_generator(self):
        """A fresh copy of the built generator, for one run."""
        return copy.deepcopy(self.generator)


EXPERIMENT = {"t_values": ((100, 300, 500, 700, 900), nonempty(positive(int, -math.inf))),
              "delta_T_values": ((10, 25, 50, 100), nonempty(positive(int))),
              "delta_S_values": ((50,), nonempty(positive(int))),
              "seeds": ((0,), nonempty(NON_NEGATIVE)),
              "noise_draws": (8, positive(int, 2, True, MAX_SIZE)),
              "threshold": (0.2, positive(float, 0, True)), "start_points": (20, SIZE),
              "checks": (DEFAULT_CHECKS, lambda v: DEFAULT_CHECKS if v is None
                         else tuple(map(one_of(*GRADCHECKS), v)))}


def _t_values_in_schedule(s) -> None:
    need(all(1 <= t <= s.schedule.num_steps for t in s.t_values),
         "every experiment.t_values entry in [1, schedule.T]", s.t_values, s.schedule.num_steps)


def _rows_below_max_size(key: str):
    """Check that experiment.<key> rows of the oracle's dimension fit below MAX_SIZE."""
    return lambda s: need(getattr(s, key) * s.oracle.dim < MAX_SIZE,
                          f"experiment.{key} * the oracle's dimension < {MAX_SIZE}",
                          getattr(s, key), s.oracle.dim)


# kind -> checks of a built spec that hold for that kind only
KIND_CHECKS = {
    "consistency": (_t_values_in_schedule, _rows_below_max_size("noise_draws"), lambda s: need(
        s.delta_s_values[0] <= min(s.t_values),
        "experiment.delta_S_values[0] <= every experiment.t_values entry for consistency",
        s.delta_s_values[0], min(s.t_values))),
    "quality": (_t_values_in_schedule, _rows_below_max_size("start_points")),
    "eta-sweep": (_t_values_in_schedule,),
    "interval-sweep": (lambda s: need(
        max(s.delta_t_values) < s.distill.t_min,
        "every experiment.delta_T_values entry < distill.t_min for interval-sweep",
        max(s.delta_t_values), s.distill.t_min),),
    "race": (lambda s: need(len(set(s.seeds)) == len(s.seeds) >= 2,
                            "two or more distinct experiment.seeds for a race median", s.seeds),),
    "gradcheck": (lambda s: need(  # its cases draw t from [delta_T, T] with delta_T up to 100
        "decomposition" not in s.checks or s.schedule.num_steps >= 100,
        "schedule.T >= 100 for the decomposition gradcheck", s.schedule.num_steps),),
}


def build_experiment(cfg: dict, kind: str) -> ExperimentSpec:
    """The spec of a config, an object of SECTIONS. Every section present is
    built, whatever the kind, and so are the generator and distill sections
    the kind needs. EXPERIMENT keys other than the delta_ ones are spec fields
    of the same name. Guidance labels must be oracle labels, a rendering kind's
    render must have the oracle's dimension, and KIND_CHECKS must pass."""
    if not isinstance(cfg, dict):
        raise ConfigError("the top level of a config must be an object")
    read(cfg, cfgmod.SECTIONS, "")
    e = read(cfg.get("experiment"), EXPERIMENT, "experiment")
    schedule, oracle = cfgmod.build_schedule(cfg), cfgmod.build_oracle(cfg)
    guidance, jitter = cfgmod.build_guidance(cfg), cfgmod.build_jitter(cfg)
    spec = ExperimentSpec(
        schedule, oracle, guidance, jitter=jitter,
        generator=(cfgmod.build_generator(cfg)
                   if "generator" in cfg or kind in GENERATOR_KINDS else None),
        distill=(cfgmod.build_distill(cfg, guidance, jitter)
                 if "distill" in cfg or kind in DISTILL_KINDS else None),
        delta_t_values=e.pop("delta_T_values"), delta_s_values=e.pop("delta_S_values"), **e)
    for key, label in (("positive", guidance.positive), ("negative", guidance.negative)):
        if label not in (None, *oracle.labels):
            raise ConfigError(f"guidance.{key} is not null or an oracle label: {label!r}")
    if kind in GENERATOR_KINDS:  # an image renders its shape, a latent its parameters
        shape = spec.generator.image_shape(jitter)
        size = math.prod(shape) if shape else spec.generator.n_params
        need(size == oracle.dim, ("view.width * view.height * generator.channels" if shape
                                  else "len(generator.theta)") + " == the oracle's dimension",
             size, oracle.dim)
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


def final_frame(gen, jitter: ViewJitterSpec) -> Optional[np.ndarray]:
    """The generator's canonical render as an (H, W, C) image, or None for a
    generator that has no image shape."""
    shape = gen.image_shape(jitter)
    if shape is None:
        return None
    return gen.render(canonical_view(jitter.width, jitter.height)).reshape(shape)


def _montage(cells: np.ndarray, shape) -> np.ndarray:
    """Tile a (rows, cols, H * W * C) array of flat (H, W, C) images into
    one image with 1-pixel separators."""
    h, w, c = shape
    rows, cols = cells.shape[:2]
    out = np.ones((rows, h + 1, cols, w + 1, c))
    out[:, :h, :, :w] = cells.reshape(rows, cols, h, w, c).transpose(0, 2, 1, 3, 4)
    return out.reshape(rows * (h + 1), cols * (w + 1), c)[:-1, :-1]


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------

def run_consistency(spec: ExperimentSpec) -> Report:
    """Spread of clean targets for a fixed view.

    The stochastic branch draws K noise vectors per timestep and estimates
    the clean target in one step from each noised latent; the deterministic
    branch inverts the view and denoises multi-step, K copies of it in one
    walk to demonstrate (rather than assume) zero spread.
    """
    stride = spec.delta_s_values[0]
    gen = spec.make_generator()
    sch, oracle, g, jit = spec.schedule, spec.oracle, spec.guidance, spec.jitter
    x0 = gen.render(canonical_view(jit.width, jit.height))
    views = np.tile(x0, (spec.noise_draws, 1))
    rng = np.random.default_rng(spec.seeds[0])

    sds, ism = [], []  # per timestep, (K, D) targets
    for t in spec.t_values:
        xt = add_noise(sch, x0, t, rng.standard_normal(views.shape))
        sds.append(pseudo_gt_single(sch, xt, t, oracle.eps_guided(sch, xt, t, g)))
        xt = invert_along(oracle, sch, views, inversion_grid(t, stride)).latents[-1]
        ism.append(denoise_path(oracle, sch, xt, t, stride, g).latents[-1])
    sds, ism = np.stack(sds), np.stack(ism)

    summary = {"kind": "consistency", "t_values": list(spec.t_values),
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

    shape = gen.image_shape(jit)
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
    inv_stride = spec.delta_s_values[0]
    deno_stride = spec.delta_t_values[0]
    label = g.positive

    rows = []
    for t in spec.t_values:
        xt = invert_along(oracle, sch, starts, inversion_grid(t, inv_stride)).latents[-1]
        before = oracle.eps_evals
        deno = denoise_path(oracle, sch, xt, t, min(deno_stride, t), g)
        calls = (oracle.eps_evals - before) / len(starts)
        single, multi = pseudo_gt_single(sch, xt, t, deno.eps_cache[0]), deno.latents[-1]
        rows.append((t, float(np.mean(nearest_mode_distance(oracle, label, single))),
                     float(np.mean(nearest_mode_distance(oracle, label, multi))), calls))
    return Report({"kind": "quality", "rows": rows}, {"quality": (QUALITY_CSV_HEADER, rows)})


# ---------------------------------------------------------------------------
# eta sweep
# ---------------------------------------------------------------------------

def run_eta_sweep(spec: ExperimentSpec) -> Report:
    """Bias magnitude versus interval length, with cost accounting. The
    multi-step pieces of each (t, delta_T) cell are built once and give its
    bias, decomposition residual and naive gradient."""
    sch, oracle, g, jit = spec.schedule, spec.oracle, spec.guidance, spec.jitter
    x0 = spec.make_generator().render(canonical_view(jit.width, jit.height))
    delta_s = spec.delta_s_values[0]

    rows, grad_rows = [], []
    for t in spec.t_values:
        for dt in spec.delta_t_values:
            if dt > t:
                continue
            pieces = interval_pieces(oracle, sch, x0, t, dt, g)
            bias, residual, naive = pieces.bias(), pieces.decomposition(), pieces.naive()
            # scaled interval score recovered from the exact decomposition
            interval_norm = float(np.linalg.norm(x0 - naive.pseudo_gt - bias))
            eta_norm = float(np.linalg.norm(bias))
            ratio = eta_norm / interval_norm if interval_norm > 0 else math.inf
            grad_rows.append(naive.csv_row("naive"))
            if dt < t and delta_s <= t - dt:
                ism = ism_gradient(oracle, sch, x0, t, dt, delta_s, g)
                ism_calls = ism.oracle_calls
                grad_rows.append(ism.csv_row("ism"))
            else:
                ism_calls = None
            rows.append((t, dt, eta_norm, interval_norm, ratio, residual,
                         naive.oracle_calls, ism_calls))
    return Report({"kind": "eta_sweep", "rows": rows},
                  {"eta_sweep": (ETA_CSV_HEADER, rows),
                   "gradients": (REPORT_CSV_HEADER, grad_rows)})


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
    """Full distillation per (interval, stride) grid cell with a shared seed."""
    rows, frames = [], {}
    for dt in spec.delta_t_values:
        for ds in spec.delta_s_values:
            cfg = replace(spec.distill, delta_t_start=dt, delta_t_end=dt,
                          delta_s=ds, seed=spec.seeds[0])
            gen = spec.make_generator()
            started = time.perf_counter()
            log = run_distillation(gen, spec.oracle, spec.schedule, cfg)
            wall = time.perf_counter() - started
            rows.append((dt, ds, log.final_mode_distance, log.total_oracle_calls(), wall))
            frame = final_frame(gen, cfg.jitter)
            if frame is not None:
                frames[f"final_dT{dt}_dS{ds}"] = frame
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
    counting as infinite; None when the median is not finite."""
    median = float(np.median([math.inf if c is None else c
                              for (seed, obj), c in crossings.items() if obj == objective]))
    return median if math.isfinite(median) else None


def run_race(spec: ExperimentSpec) -> Report:
    """Matched-seed interval-vs-noise-matching runs with shared timestep and
    view streams; records distance curves and first threshold crossings."""
    curves, crossings = {}, {}
    for seed in spec.seeds:
        for objective in ("ism", "sds"):
            cfg = replace(spec.distill, objective=objective, seed=seed)
            gen = spec.make_generator()
            log = run_distillation(gen, spec.oracle, spec.schedule, cfg)
            curve = [r.mode_distance for r in log.rows]  # entering each iteration
            curves[(seed, objective)] = curve + [log.final_mode_distance]
            crossings[(seed, objective)] = log.first_crossing(spec.threshold)
    summary = {
        "kind": "race",
        "threshold": spec.threshold,
        "crossings": {f"{seed}:{obj}": c for (seed, obj), c in crossings.items()},
        "median_ism_crossing": _median_crossing(crossings, "ism"),
        "median_sds_crossing": _median_crossing(crossings, "sds"),
    }
    race_rows = [(seed, obj, i, d) for (seed, obj), curve in sorted(curves.items())
                 for i, d in enumerate(curve)]
    summary_rows = [(seed, crossings.get((seed, "ism")), crossings.get((seed, "sds")),
                     spec.threshold) for seed in sorted({s for s, _ in crossings})]
    return Report(summary, {"race": (RACE_CSV_HEADER, race_rows),
                            "race_summary": (RACE_SUMMARY_CSV_HEADER, summary_rows)})


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def fd_gradient(f, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2.0 * step)
    return g


def score_fd_check(oracle: MixtureOracle, schedule: NoiseSchedule, seed: int = 0) -> float:
    """Max relative error between the analytic epsilon-prediction and the
    finite-difference gradient of the log density over 100 random points."""
    rng = np.random.default_rng(seed)
    errs = []
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, size=oracle.dim)
        t = int(rng.integers(1, schedule.num_steps + 1))
        fd = fd_gradient(lambda p: oracle.log_density(schedule, p, t), x, 1e-5)
        expected = -schedule.s1mab[t] * fd
        got = oracle.eps_predict(schedule, x, t)
        denom = max(float(np.linalg.norm(expected)), 1e-12)
        errs.append(float(np.linalg.norm(got - expected)) / denom)
    return float(np.max(errs))


def renderer_fd_check(seed: int = 0) -> float:
    """Max relative error of analytic renderer gradients against central
    finite differences over 20 random single-channel 16x16 scenes."""
    errs = []
    for k in range(20):
        rng = np.random.default_rng((seed, k))
        # backgrounds strictly inside [0, 1]: finite differences must not
        # straddle the generator's clamp boundary
        gen = random_scene(3, 1, seed=int(rng.integers(2 ** 31)),
                           background=rng.uniform(0.2, 0.8, size=1))
        view = canonical_view(16, 16)
        grad_img = rng.standard_normal(16 * 16)
        analytic = gen.backward(view, grad_img)
        params = gen.get_params()

        def loss(p, gen=gen, view=view, grad_img=grad_img):
            gen.set_params(p)
            return float(grad_img @ gen.render(view))

        fd = fd_gradient(loss, params, 1e-4)
        floor = 1e-6 * max(1.0, float(np.abs(fd).max()))
        rel = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), floor)
        errs.append(float(rel.max()))
    return float(np.max(errs))


def gradient_forms_check(oracle: MixtureOracle, schedule: NoiseSchedule,
                         g: GuidanceSpec, seed: int = 0) -> float:
    """Max absolute gap over 50 random draws between the noise-matching update
    and its equivalent sample-space form (loss weight over noise-to-signal
    times x0 minus the single-step clean target)."""
    rng = np.random.default_rng(seed)
    errs = []
    for _ in range(50):
        x0 = rng.uniform(-2.0, 2.0, size=oracle.dim)
        t = int(rng.integers(1, schedule.num_steps + 1))
        eps = rng.standard_normal(oracle.dim)
        report = sds_gradient(oracle, schedule, x0, t, eps, g)
        alt = (schedule.omega[t] / schedule.nsr[t]) * (x0 - report.pseudo_gt)
        errs.append(float(np.abs(report.grad_x0 - alt).max()))
    return float(np.max(errs))


def decomposition_sweep_check(oracle: MixtureOracle, schedule: NoiseSchedule,
                              g: GuidanceSpec, seed: int = 0) -> float:
    """Max interval_pieces decomposition residual over 50 random (x0, t, interval)."""
    rng = np.random.default_rng(seed)
    errs = []
    for _ in range(50):
        x0 = rng.uniform(-2.0, 2.0, size=oracle.dim)
        dt = int(rng.choice([10, 25, 50, 100]))
        t = int(rng.integers(dt, min(950, schedule.num_steps) + 1))
        errs.append(interval_pieces(oracle, schedule, x0, t, dt, g).decomposition())
    return float(np.max(errs))


def run_gradcheck(spec: ExperimentSpec) -> Report:
    """Aggregate the package's independent-oracle checks into one report;
    its summary's ``ok`` is whether every check passed (a NaN error fails)."""
    rows = []
    for name in spec.checks:
        check, tol = GRADCHECKS[name]
        err = check(spec)
        rows.append((name, err, tol, err < tol))
    summary = {"kind": "gradcheck", "ok": all(r[3] for r in rows),
               "rows": [dict(zip(GRADCHECK_CSV_HEADER, r)) for r in rows]}
    return Report(summary, {"gradcheck": (GRADCHECK_CSV_HEADER, rows)})


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def write_report(report: Report, out_dir) -> None:
    """report.json from the summary, then ``<name>.csv`` per table and
    ``frames/<name>.ppm`` per frame."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
