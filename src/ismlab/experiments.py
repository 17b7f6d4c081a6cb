"""Named, config-driven diagnostic experiments.

Each runner consumes an ExperimentSpec and returns a report object holding
plain arrays and scalars. ``write_report`` writes a report's ``summary()``
as report.json under an output directory and then lets the report write its
own files: one or more CSV files with stable headers and, for
image-producing generators, pixmap frames. Every report is a pure function
of its spec, so reruns reproduce outputs exactly.

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

DistillReport is the report of the CLI's plain ``distill`` kind, whose
runner (``cli._run_distill``) sits beside these in ``cli.RUNNERS``.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import config as cfgmod
from .distill import DistillConfig, RunLog, nearest_mode_distance, run_distillation
from .errors import ConfigError
from .generators import ViewJitterSpec, canonical_view, random_scene
from .objectives import (
    REPORT_CSV_HEADER,
    decomposition_check,
    ism_gradient,
    multistep_bias,
    naive_gradient,
    sds_gradient,
)
from .oracle import GuidanceSpec, MixtureOracle
from .ppm import write_ppm
from .schedule import NoiseSchedule
from .trajectory import add_noise, ddim_denoise, ddim_invert, pseudo_gt_single

CONSISTENCY_CSV_HEADER = ("t", "sds_noise_variance", "ism_noise_variance")
QUALITY_CSV_HEADER = ("t", "err_single", "err_multi", "oracle_calls_multi")
ETA_CSV_HEADER = ("t", "delta_T", "eta_norm", "interval_norm", "ratio",
                  "decomposition_residual", "naive_calls", "ism_calls")
INTERVAL_CSV_HEADER = ("delta_T", "delta_S", "final_mode_distance",
                       "oracle_calls", "wall_time")
RACE_CSV_HEADER = ("seed", "objective", "iter", "mode_distance")
RACE_SUMMARY_CSV_HEADER = ("seed", "ism_crossing", "sds_crossing", "threshold")
GRADCHECK_CSV_HEADER = ("check", "max_error", "tolerance", "passed")

DEFAULT_CHECKS = ("score_fd", "renderer_fd", "gradient_forms", "decomposition")


@dataclass
class ExperimentSpec:
    """Parsed experiment configuration; see docs/config.md for the JSON form."""

    schedule: NoiseSchedule
    oracle: MixtureOracle
    guidance: GuidanceSpec
    generator_cfg: dict
    t_values: list[int]
    delta_t_values: list[int]
    delta_s_values: list[int]
    noise_draws: int = 8
    seeds: list[int] = field(default_factory=lambda: [0])
    threshold: float = 0.2
    start_points: int = 20
    distill: Optional[DistillConfig] = None
    checks: tuple[str, ...] = DEFAULT_CHECKS
    corrupt_renderer_scale: float = 1.0

    def make_generator(self):
        return cfgmod.build_generator(self.generator_cfg)


def build_experiment(cfg: dict, kind: str) -> ExperimentSpec:
    cfgmod.check_section(cfg, "experiment", cfgmod.EXPERIMENT_KEYS)
    checks = cfgmod.get_key(cfg, "experiment.checks")
    return ExperimentSpec(
        schedule=cfgmod.build_schedule(cfg),
        oracle=cfgmod.build_oracle(cfg),
        guidance=cfgmod.build_guidance(cfg),
        generator_cfg=cfg,
        t_values=cfgmod.int_list(cfg, "experiment.t_values", [100, 300, 500, 700, 900]),
        delta_t_values=cfgmod.int_list(cfg, "experiment.delta_T_values", [10, 25, 50, 100]),
        delta_s_values=cfgmod.int_list(cfg, "experiment.delta_S_values", [50]),
        noise_draws=int(cfgmod.get_key(cfg, "experiment.noise_draws", 8)),
        seeds=cfgmod.int_list(cfg, "experiment.seeds", [0]),
        threshold=float(cfgmod.get_key(cfg, "experiment.threshold", 0.2)),
        start_points=int(cfgmod.get_key(cfg, "experiment.start_points", 20)),
        distill=cfgmod.build_distill(cfg) if "distill" in cfg or kind in
            ("interval-sweep", "race", "distill") else None,
        checks=tuple(checks) if checks is not None else DEFAULT_CHECKS,
        corrupt_renderer_scale=float(
            cfgmod.get_key(cfg, "experiment.corrupt_renderer_scale", 1.0)),
    )


def _variance(points: list[np.ndarray]) -> float:
    """Mean squared deviation from the mean (trace of the covariance).

    Computed about the first point so that bitwise-identical inputs give
    exactly zero (summation dust would otherwise leak in through the mean).
    """
    stack = np.stack(points)
    d = stack - stack[0]
    centered = np.mean(np.sum(d * d, axis=1)) - np.sum(np.mean(d, axis=0) ** 2)
    return float(max(centered, 0.0))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _write_frames(out: Path, frames: dict[str, np.ndarray]) -> None:
    if not frames:
        return
    frame_dir = out / "frames"
    frame_dir.mkdir(exist_ok=True)
    for name, img in frames.items():
        write_ppm(frame_dir / f"{name}.ppm", img)


def final_frame(gen, jitter: ViewJitterSpec) -> Optional[np.ndarray]:
    """The generator's canonical render clipped to [0, 1] as an (H, W, C)
    image, or None for a generator that has no image shape."""
    shape = gen.image_shape(jitter)
    if shape is None:
        return None
    img = gen.render(canonical_view(jitter.width, jitter.height))
    return np.clip(img, 0, 1).reshape(shape)


def _montage(images: list[list[np.ndarray]], shape) -> np.ndarray:
    """Tile (H, W, C) cells into one image with 1-pixel separators."""
    h, w, c = shape
    rows = len(images)
    cols = max(len(r) for r in images)
    out = np.ones((rows * (h + 1) - 1, cols * (w + 1) - 1, c))
    for i, row in enumerate(images):
        for j, img in enumerate(row):
            out[i * (h + 1):i * (h + 1) + h, j * (w + 1):j * (w + 1) + w] = \
                img.reshape(h, w, c)
    return out


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------

@dataclass
class ConsistencyReport:
    t_values: list[int]
    sds_noise_variance: list[float]
    ism_noise_variance: list[float]
    sds_across_t_variance: float
    ism_across_t_variance: float
    sds_mean_target_mode_distance: float
    sds_mean_of_target_distances: float
    ism_mean_target_mode_distance: float
    ism_mean_of_target_distances: float
    frames: dict[str, np.ndarray] = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "kind": "consistency",
            "t_values": self.t_values,
            "sds_noise_variance": self.sds_noise_variance,
            "ism_noise_variance": self.ism_noise_variance,
            "sds_across_t_variance": self.sds_across_t_variance,
            "ism_across_t_variance": self.ism_across_t_variance,
            "sds_mean_target_mode_distance": self.sds_mean_target_mode_distance,
            "sds_mean_of_target_distances": self.sds_mean_of_target_distances,
            "ism_mean_target_mode_distance": self.ism_mean_target_mode_distance,
            "ism_mean_of_target_distances": self.ism_mean_of_target_distances,
        }

    def write_files(self, out: Path) -> None:
        _write_csv(out / "consistency.csv", CONSISTENCY_CSV_HEADER,
                   zip(self.t_values, self.sds_noise_variance, self.ism_noise_variance))
        _write_frames(out, self.frames)


def run_consistency(spec: ExperimentSpec) -> ConsistencyReport:
    """Spread of clean targets for a fixed view.

    The stochastic branch draws K noise vectors per timestep and estimates
    the clean target in one step from each noised latent; the deterministic
    branch inverts the view and denoises multi-step, repeated K times to
    demonstrate (rather than assume) zero spread.
    """
    if spec.noise_draws < 2:
        raise ConfigError("consistency needs noise_draws >= 2")
    gen = spec.make_generator()
    sch, oracle, g = spec.schedule, spec.oracle, spec.guidance
    jit = cfgmod.build_jitter(spec.generator_cfg)
    view = canonical_view(jit.width, jit.height)
    x0 = gen.render(view)
    stride = spec.delta_s_values[0]
    rng = np.random.default_rng(spec.seeds[0])

    sds_by_t, ism_by_t = [], []
    for t in spec.t_values:
        draws = []
        for _ in range(spec.noise_draws):
            eps = rng.standard_normal(x0.shape[0])
            xt = add_noise(sch, x0, t, eps)
            draws.append(pseudo_gt_single(sch, xt, t, oracle.eps_guided(sch, xt, t, g)))
        sds_by_t.append(draws)
        repeats = []
        for _ in range(spec.noise_draws):
            xt = ddim_invert(oracle, sch, x0, t, stride).latents[-1]
            repeats.append(ddim_denoise(oracle, sch, xt, t, stride, g))
        ism_by_t.append(repeats)

    label = g.positive
    sds_all = [p for draws in sds_by_t for p in draws]
    ism_all = [p for draws in ism_by_t for p in draws]
    report = ConsistencyReport(
        t_values=list(spec.t_values),
        sds_noise_variance=[_variance(d) for d in sds_by_t],
        ism_noise_variance=[_variance(d) for d in ism_by_t],
        sds_across_t_variance=_variance([np.mean(d, axis=0) for d in sds_by_t]),
        ism_across_t_variance=_variance([np.mean(d, axis=0) for d in ism_by_t]),
        sds_mean_target_mode_distance=nearest_mode_distance(
            oracle, label, np.mean(sds_all, axis=0)),
        sds_mean_of_target_distances=float(np.mean(
            [nearest_mode_distance(oracle, label, p) for p in sds_all])),
        ism_mean_target_mode_distance=nearest_mode_distance(
            oracle, label, np.mean(ism_all, axis=0)),
        ism_mean_of_target_distances=float(np.mean(
            [nearest_mode_distance(oracle, label, p) for p in ism_all])),
    )

    shape = gen.image_shape(jit)
    if shape is not None:
        report.frames["sds_pseudo_gt_grid"] = _montage(
            [[np.clip(p, 0, 1) for p in draws] for draws in sds_by_t], shape)
        report.frames["ism_pseudo_gt_grid"] = _montage(
            [[np.clip(draws[0], 0, 1)] for draws in ism_by_t], shape)
        report.frames["input_view"] = _montage([[np.clip(x0, 0, 1)]], shape)
    return report


# ---------------------------------------------------------------------------
# quality
# ---------------------------------------------------------------------------

@dataclass
class QualityReport:
    rows: list[tuple]  # (t, err_single, err_multi, oracle_calls_multi)

    def summary(self) -> dict:
        return {"kind": "quality",
                "rows": [list(r) for r in self.rows]}

    def write_files(self, out: Path) -> None:
        _write_csv(out / "quality.csv", QUALITY_CSV_HEADER, self.rows)


def run_quality(spec: ExperimentSpec) -> QualityReport:
    """Distance-to-mode of single-step versus multi-step clean estimates.

    Start points are drawn from the data prior; each is inverted
    deterministically to t, then reconstructed both ways. Errors are averaged
    over start points.
    """
    sch, oracle, g = spec.schedule, spec.oracle, spec.guidance
    rng = np.random.default_rng(spec.seeds[0])
    starts = oracle.sample(rng, spec.start_points)
    inv_stride = spec.delta_s_values[0]
    deno_stride = spec.delta_t_values[0]
    label = g.positive

    rows = []
    for t in spec.t_values:
        err_s, err_m, calls = [], [], []
        for x0 in starts:
            xt = ddim_invert(oracle, sch, x0, t, min(inv_stride, t)).latents[-1]
            single = pseudo_gt_single(sch, xt, t, oracle.eps_guided(sch, xt, t, g))
            before = oracle.eps_evals
            multi = ddim_denoise(oracle, sch, xt, t, min(deno_stride, t), g)
            calls.append(oracle.eps_evals - before)
            err_s.append(nearest_mode_distance(oracle, label, single))
            err_m.append(nearest_mode_distance(oracle, label, multi))
        rows.append((t, float(np.mean(err_s)), float(np.mean(err_m)),
                     float(np.mean(calls))))
    return QualityReport(rows=rows)


# ---------------------------------------------------------------------------
# eta sweep
# ---------------------------------------------------------------------------

@dataclass
class EtaReport:
    rows: list[tuple]
    gradient_rows: list[tuple]

    def summary(self) -> dict:
        return {"kind": "eta_sweep", "rows": [list(r) for r in self.rows]}

    def write_files(self, out: Path) -> None:
        _write_csv(out / "eta_sweep.csv", ETA_CSV_HEADER, self.rows)
        _write_csv(out / "gradients.csv", REPORT_CSV_HEADER, self.gradient_rows)


def run_eta_sweep(spec: ExperimentSpec) -> EtaReport:
    """Bias magnitude versus interval length, with cost accounting."""
    sch, oracle, g = spec.schedule, spec.oracle, spec.guidance
    gen = spec.make_generator()
    jit = cfgmod.build_jitter(spec.generator_cfg)
    x0 = gen.render(canonical_view(jit.width, jit.height))
    delta_s = spec.delta_s_values[0]

    rows, grad_rows = [], []
    for t in spec.t_values:
        for dt in spec.delta_t_values:
            if dt > t:
                continue
            bias = multistep_bias(oracle, sch, x0, t, dt, g)
            residual = decomposition_check(oracle, sch, x0, t, dt, g)
            naive = naive_gradient(oracle, sch, x0, t, dt, g)
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
    return EtaReport(rows=rows, gradient_rows=grad_rows)


# ---------------------------------------------------------------------------
# interval sweep
# ---------------------------------------------------------------------------

@dataclass
class IntervalSweepReport:
    rows: list[tuple]
    frames: dict[str, np.ndarray] = field(default_factory=dict)

    def axis_spread(self, axis: str) -> dict[int, float]:
        """Max pairwise gap of final mode distances when varying one grid
        axis with the other held fixed (how much each knob matters), keyed
        by the held value."""
        held_col = 1 if axis == "delta_T" else 0
        out = {}
        for held in sorted({r[held_col] for r in self.rows}):
            dists = [r[2] for r in self.rows if r[held_col] == held]
            out[held] = float(max(dists) - min(dists)) if len(dists) > 1 else 0.0
        return out

    def summary(self) -> dict:
        return {
            "kind": "interval_sweep",
            "rows": [list(r) for r in self.rows],
            "spread_over_delta_T": self.axis_spread("delta_T"),
            "spread_over_delta_S": self.axis_spread("delta_S"),
        }

    def write_files(self, out: Path) -> None:
        _write_csv(out / "interval_sweep.csv", INTERVAL_CSV_HEADER, self.rows)
        _write_frames(out, self.frames)


def run_interval_sweep(spec: ExperimentSpec) -> IntervalSweepReport:
    """Full distillation per (interval, stride) grid cell with a shared seed."""
    if spec.distill is None:
        raise ConfigError("interval-sweep needs a distill section")
    report = IntervalSweepReport(rows=[])
    for dt in spec.delta_t_values:
        for ds in spec.delta_s_values:
            cfg = replace(spec.distill, delta_t_start=dt, delta_t_end=dt,
                          delta_s=ds, seed=spec.seeds[0])
            gen = spec.make_generator()
            started = time.perf_counter()
            log = run_distillation(gen, spec.oracle, spec.schedule, cfg)
            wall = time.perf_counter() - started
            report.rows.append((dt, ds, log.final_mode_distance,
                                log.total_oracle_calls(), wall))
            frame = final_frame(gen, cfg.jitter)
            if frame is not None:
                report.frames[f"final_dT{dt}_dS{ds}"] = frame
    return report


# ---------------------------------------------------------------------------
# race
# ---------------------------------------------------------------------------

@dataclass
class RaceReport:
    curves: dict[tuple[int, str], list[float]]
    crossings: dict[tuple[int, str], Optional[int]]
    threshold: float

    def median_crossing(self, objective: str) -> float:
        vals = [math.inf if c is None else c
                for (seed, obj), c in self.crossings.items() if obj == objective]
        return float(np.median(vals))

    def summary(self) -> dict:
        return {
            "kind": "race",
            "threshold": self.threshold,
            "crossings": {f"{seed}:{obj}": c
                          for (seed, obj), c in self.crossings.items()},
            "median_ism_crossing": _json_num(self.median_crossing("ism")),
            "median_sds_crossing": _json_num(self.median_crossing("sds")),
        }

    def write_files(self, out: Path) -> None:
        rows = [(seed, obj, i, d)
                for (seed, obj), curve in sorted(self.curves.items())
                for i, d in enumerate(curve)]
        _write_csv(out / "race.csv", RACE_CSV_HEADER, rows)
        summary_rows = [(seed, self.crossings.get((seed, "ism")),
                         self.crossings.get((seed, "sds")), self.threshold)
                        for seed in sorted({s for s, _ in self.crossings})]
        _write_csv(out / "race_summary.csv", RACE_SUMMARY_CSV_HEADER, summary_rows)


def _json_num(v: float):
    return None if math.isinf(v) or math.isnan(v) else v


def run_race(spec: ExperimentSpec) -> RaceReport:
    """Matched-seed interval-vs-noise-matching runs with shared timestep and
    view streams; records distance curves and first threshold crossings."""
    if spec.distill is None:
        raise ConfigError("race needs a distill section")
    if len(spec.seeds) < 2:
        raise ConfigError("race needs at least two seeds for a median")
    curves, crossings = {}, {}
    for seed in spec.seeds:
        for objective in ("ism", "sds"):
            cfg = replace(spec.distill, objective=objective, seed=seed)
            gen = spec.make_generator()
            log = run_distillation(gen, spec.oracle, spec.schedule, cfg)
            curve = log.mode_distance_curve() + [log.final_mode_distance]
            curves[(seed, objective)] = curve
            crossings[(seed, objective)] = log.first_crossing(spec.threshold)
    return RaceReport(curves=curves, crossings=crossings, threshold=spec.threshold)


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

@dataclass
class GradcheckRow:
    check: str
    max_error: float
    tolerance: float
    passed: bool


@dataclass
class GradcheckReport:
    rows: list[GradcheckRow]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rows)

    def summary(self) -> dict:
        return {
            "kind": "gradcheck",
            "ok": self.ok,
            "rows": [{"check": r.check, "max_error": r.max_error,
                      "tolerance": r.tolerance, "passed": r.passed}
                     for r in self.rows],
        }

    def write_files(self, out: Path) -> None:
        _write_csv(out / "gradcheck.csv", GRADCHECK_CSV_HEADER,
                   [(r.check, r.max_error, r.tolerance, r.passed) for r in self.rows])


def fd_gradient(f, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2.0 * step)
    return g


def score_fd_check(oracle: MixtureOracle, schedule: NoiseSchedule,
                   n_draws: int = 100, seed: int = 0) -> float:
    """Max relative error between the analytic epsilon-prediction and the
    finite-difference gradient of the log density."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        x = rng.uniform(-3.0, 3.0, size=oracle.dim)
        t = int(rng.integers(1, schedule.num_steps + 1))
        fd = fd_gradient(lambda p: oracle.log_density(schedule, p, t), x, 1e-5)
        expected = -schedule.sqrt_one_minus_alpha_bar(t) * fd
        got = oracle.eps_predict(schedule, x, t)
        denom = max(float(np.linalg.norm(expected)), 1e-12)
        worst = max(worst, float(np.linalg.norm(got - expected)) / denom)
    return worst


def renderer_fd_check(n_scenes: int = 20, size: int = 16, channels: int = 1,
                      seed: int = 0, corrupt_scale: float = 1.0) -> float:
    """Max relative error of analytic renderer gradients against central
    finite differences over random scenes. corrupt_scale != 1 deliberately
    scales one analytic partial (fault-injection hook for the harness)."""
    worst = 0.0
    for k in range(n_scenes):
        rng = np.random.default_rng((seed, k))
        # backgrounds strictly inside [0, 1]: finite differences must not
        # straddle the generator's clamp boundary
        gen = random_scene(3, channels, seed=int(rng.integers(2 ** 31)),
                           background=rng.uniform(0.2, 0.8, size=channels))
        view = canonical_view(size, size)
        grad_img = rng.standard_normal(size * size * channels)
        analytic = gen.backward(view, grad_img)
        if corrupt_scale != 1.0:
            analytic = analytic.copy()
            analytic[0] *= corrupt_scale

        params = gen.get_params()

        def loss(p, gen=gen, view=view, grad_img=grad_img):
            keep = gen.get_params()
            gen.set_params(p)
            val = float(grad_img @ gen.render(view))
            gen.set_params(keep)
            return val

        fd = fd_gradient(loss, params, 1e-4)
        floor = 1e-6 * max(1.0, float(np.abs(fd).max()))
        rel = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), floor)
        worst = max(worst, float(rel.max()))
    return worst


def gradient_forms_check(oracle: MixtureOracle, schedule: NoiseSchedule,
                         g: GuidanceSpec, n_draws: int = 50, seed: int = 0) -> float:
    """Max absolute gap between the noise-matching update and its equivalent
    sample-space form (loss weight over noise-to-signal times x0 minus the
    single-step clean target)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        x0 = rng.uniform(-2.0, 2.0, size=oracle.dim)
        t = int(rng.integers(1, schedule.num_steps + 1))
        eps = rng.standard_normal(oracle.dim)
        report = sds_gradient(oracle, schedule, x0, t, eps, g)
        alt = (schedule.loss_weight(t) / schedule.noise_to_signal(t)) \
            * (x0 - report.pseudo_gt)
        worst = max(worst, float(np.abs(report.grad_x0 - alt).max()))
    return worst


def decomposition_sweep_check(oracle: MixtureOracle, schedule: NoiseSchedule,
                              g: GuidanceSpec, n_cases: int = 50,
                              seed: int = 0) -> float:
    """Max decomposition residual over randomized (x0, t, interval) triples."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        x0 = rng.uniform(-2.0, 2.0, size=oracle.dim)
        dt = int(rng.choice([10, 25, 50, 100]))
        t = int(rng.integers(dt, min(950, schedule.num_steps) + 1))
        worst = max(worst, decomposition_check(oracle, schedule, x0, t, dt, g))
    return worst


def run_gradcheck(spec: ExperimentSpec) -> GradcheckReport:
    """Aggregate the package's independent-oracle checks into one report."""
    rows = []
    for check in spec.checks:
        if check == "score_fd":
            err, tol = score_fd_check(spec.oracle, spec.schedule,
                                      seed=spec.seeds[0]), 1e-5
        elif check == "renderer_fd":
            err = renderer_fd_check(seed=spec.seeds[0],
                                    corrupt_scale=spec.corrupt_renderer_scale)
            tol = 1e-4
        elif check == "gradient_forms":
            err, tol = gradient_forms_check(spec.oracle, spec.schedule,
                                            spec.guidance, seed=spec.seeds[0]), 1e-10
        elif check == "decomposition":
            err, tol = decomposition_sweep_check(spec.oracle, spec.schedule,
                                                 spec.guidance, seed=spec.seeds[0]), 1e-9
        else:
            raise ConfigError(f"unknown gradcheck {check!r}")
        rows.append(GradcheckRow(check=check, max_error=err, tolerance=tol,
                                 passed=err < tol))
    return GradcheckReport(rows=rows)


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------

@dataclass
class DistillReport:
    """One distillation run: its settings, its log, and the frames to write
    (snapshots and the final canonical render, for image generators)."""

    cfg: DistillConfig
    log: RunLog
    frames: dict[str, np.ndarray] = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "kind": "distill",
            "objective": self.cfg.objective,
            "iterations": self.cfg.iterations,
            "initial_mode_distance": self.log.initial_mode_distance,
            "final_mode_distance": self.log.final_mode_distance,
            "oracle_calls": self.log.total_oracle_calls(),
        }

    def write_files(self, out: Path) -> None:
        self.log.write_metrics_csv(out / "metrics.csv")
        _write_frames(out, self.frames)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def write_report(report, out_dir) -> None:
    """report.json from the report's summary, then the report's own files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report.summary(), fh, indent=2)
    report.write_files(out)


RUNNERS = {
    "consistency": run_consistency,
    "quality": run_quality,
    "eta-sweep": run_eta_sweep,
    "interval-sweep": run_interval_sweep,
    "race": run_race,
    "gradcheck": run_gradcheck,
}
