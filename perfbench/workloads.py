"""Workload definitions: a JSON config per (workload, seed) and the outcome
checks its outputs must pass.

Each workload drives one public `ism-lab` kind. The config is a pure
function of the workload seed, so the same seed always gives the same
inputs; the program sees only the generated JSON file.

  race  -- `ism-lab race`: matched seeds x {ism, sds} on the bimodal D=2
           prior with the identity latent (the criterion-7 shape). Time goes
           to per-call overhead in oracle, trajectory and objectives.
  splat -- `ism-lab distill`: ism on a 32-splat 16x16 scene against the
           D=256 image-space blob prior, with frame snapshots. Time goes to
           the splat generator (render, backward, parameter packing).
  naive -- `ism-lab distill` with the naive objective on an identity latent
           in image space (D=256, several blob components). Every gradient
           inverts to t and denoises back with guided pairs, one step after
           another, so nothing batches within the run.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

# Criterion 7: every interval-objective run of the race ends this close to
# the guided mode.
RACE_ISM_MAX_DISTANCE = 0.05
# Criterion 10: the final splat render is within this mean absolute error of
# one template, and strictly nearer it than the template average.
SPLAT_MAX_MAE = 0.15

GENTLE_SCHEDULE = {"T": 1000, "beta_start": 2e-05, "beta_end": 0.00045, "omega": "unit"}
IMAGE_SCHEDULE = {"T": 1000, "beta_start": 0.00085, "beta_end": 0.012, "omega": "unit"}
SIDE = 16
BLOB_SIGMA = 0.35
BLOB_PEAK = 0.9

RACE_SEEDS = 2
RACE_ITERATIONS = 800
SPLAT_ITERATIONS = 300
SPLAT_SNAPSHOT_EVERY = 50
SPLAT_CENTERS = {"left": (-0.45, 0.0), "right": (0.45, 0.0)}
NAIVE_ITERATIONS = 1200
NAIVE_CENTERS = {"nw": (-0.45, -0.4), "ne": (0.45, -0.4),
                 "sw": (-0.45, 0.4), "se": (0.45, 0.4)}

# Stream ids keep the workloads' random streams apart for equal seeds.
_STREAM = {"race": 1, "splat": 2, "naive": 3}


def blob_image(center) -> np.ndarray:
    """The `gaussian_blob` template as a flat SIDE x SIDE image, computed
    here independently of the program so the outcome check does not trust
    the code it checks."""
    axis = (np.arange(SIDE) + 0.5) / SIDE * 2.0 - 1.0
    gx, gy = np.meshgrid(axis, axis)
    d2 = (gx - center[0]) ** 2 + (gy - center[1]) ** 2
    return (BLOB_PEAK * np.exp(-0.5 * d2 / BLOB_SIGMA ** 2)).ravel()


def _blob_component(center) -> dict:
    return {"weight": 1.0, "sigma": 0.1,
            "mean": {"template": "gaussian_blob", "center": list(center),
                     "sigma": BLOB_SIGMA, "peak": BLOB_PEAK,
                     "width": SIDE, "height": SIDE, "channels": 1}}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM[workload], seed])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31))


def race_config(seed: int) -> dict:
    rng = _rng("race", seed)
    return {
        "schedule": GENTLE_SCHEDULE,
        "oracle": {
            "dim": 2,
            "components": [
                {"weight": 0.5, "mean": [1.0, 0.0], "sigma": 0.05},
                {"weight": 0.5, "mean": [-1.0, 0.0], "sigma": 0.05},
            ],
            "labels": {"right": [0], "left": [1]},
        },
        "guidance": {"positive": "right", "negative": None, "scale": 7.5},
        "generator": {"kind": "identity", "theta": [0.0, 0.0]},
        "distill": {
            "objective": "ism", "iterations": RACE_ITERATIONS,
            "t_min": 220, "t_max": 980, "delta_T_start": 200,
            "delta_T_end": 50, "delta_S": 50, "view_batch": 1, "seed": 0,
        },
        "experiment": {"seeds": [_seed(rng) for _ in range(RACE_SEEDS)],
                       "threshold": 0.2},
    }


def splat_config(seed: int) -> dict:
    rng = _rng("splat", seed)
    names = sorted(SPLAT_CENTERS)
    return {
        "schedule": IMAGE_SCHEDULE,
        "oracle": {
            "components": [_blob_component(SPLAT_CENTERS[n]) for n in names],
            "labels": {n: [i] for i, n in enumerate(names)},
        },
        "guidance": {"positive": names[int(rng.integers(len(names)))],
                     "negative": None, "scale": 3.0},
        "generator": {"kind": "splats", "n_splats": 32, "channels": 1,
                      "init_seed": _seed(rng)},
        "view": {"width": SIDE, "height": SIDE},
        "distill": {
            "objective": "ism", "iterations": SPLAT_ITERATIONS,
            "t_min": 150, "t_max": 500, "delta_T_start": 100,
            "delta_T_end": 50, "delta_S": 50, "seed": _seed(rng),
            "snapshot_every": SPLAT_SNAPSHOT_EVERY,
        },
    }


def naive_config(seed: int) -> dict:
    rng = _rng("naive", seed)
    names = sorted(NAIVE_CENTERS)
    return {
        "schedule": IMAGE_SCHEDULE,
        "oracle": {
            "dim": SIDE * SIDE,
            "components": [_blob_component(NAIVE_CENTERS[n]) for n in names],
            "labels": {n: [i] for i, n in enumerate(names)},
        },
        "guidance": {"positive": names[int(rng.integers(len(names)))],
                     "negative": None, "scale": 3.0},
        "generator": {"kind": "identity",
                      "theta": [float(v) for v in rng.uniform(0.0, 1.0, SIDE * SIDE)]},
        "distill": {
            "objective": "naive", "iterations": NAIVE_ITERATIONS,
            "t_min": 220, "t_max": 980, "delta_T_start": 200,
            "delta_T_end": 50, "seed": _seed(rng),
        },
    }


CONFIGS = {"race": race_config, "splat": splat_config, "naive": naive_config}
KINDS = {"race": "race", "splat": "distill", "naive": "distill"}


# ---------------------------------------------------------------------------
# outcome checks: each returns a list of problems, empty when the run passed
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(values, what: str) -> list[str]:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{len(bad)} non-finite {what}"] if bad else []


def read_pgm(path: Path) -> np.ndarray:
    """Flat float image of a binary P5 pixmap, header parsed by position."""
    raw = path.read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if header is None:
        raise ValueError(f"{path.name}: not a binary P5 pixmap")
    w, h, maxval = (int(v) for v in header.groups())
    body = raw[header.end():header.end() + w * h]
    if len(body) != w * h:
        raise ValueError(f"{path.name}: truncated pixel body")
    return np.frombuffer(body, dtype=np.uint8).astype(float) / maxval


def check_race(out: Path, cfg: dict) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    rows = _read_csv(out / "race.csv")
    _read_csv(out / "race_summary.csv")
    finals: dict[tuple[str, str], float] = {}
    for r in rows:
        finals[(r["seed"], r["objective"])] = float(r["mode_distance"])
    problems = _finite([float(r["mode_distance"]) for r in rows], "mode distances")
    expected = {(str(s), o) for s in cfg["experiment"]["seeds"] for o in ("ism", "sds")}
    if set(finals) != expected:
        problems.append("race.csv does not hold one curve per seed and objective")
    worst = max((d for (s, o), d in finals.items() if o == "ism"), default=math.inf)
    if not worst < RACE_ISM_MAX_DISTANCE:
        problems.append(f"ism final mode distance {worst:.4f} "
                        f"(criterion 7 needs < {RACE_ISM_MAX_DISTANCE})")
    if report.get("kind") != "race":
        problems.append("report.json is not a race report")
    return problems


def _check_distill_common(out: Path, cfg: dict) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    rows = _read_csv(out / "metrics.csv")
    problems = _finite([report["initial_mode_distance"],
                        report["final_mode_distance"]], "report distances")
    problems += _finite([float(r["nearest_mode_distance"]) for r in rows],
                        "metrics.csv distances")
    if len(rows) != cfg["distill"]["iterations"]:
        problems.append(f"metrics.csv has {len(rows)} rows, expected "
                        f"{cfg['distill']['iterations']}")
    if sum(int(r["oracle_calls"]) for r in rows) != report["oracle_calls"]:
        problems.append("metrics.csv oracle_calls do not sum to report.json's")
    return problems


def check_splat(out: Path, cfg: dict) -> list[str]:
    problems = _check_distill_common(out, cfg)
    img = read_pgm(out / "frames" / "final.ppm")
    templates = [blob_image(c) for c in SPLAT_CENTERS.values()]
    mae_near = min(float(np.abs(img - t).mean()) for t in templates)
    mae_avg = float(np.abs(img - sum(templates) / len(templates)).mean())
    if not (mae_near < SPLAT_MAX_MAE and mae_avg > mae_near):
        problems.append(f"final render MAE to nearer template {mae_near:.3f} "
                        f"(criterion 10 needs < {SPLAT_MAX_MAE}), to template "
                        f"average {mae_avg:.3f} (needs more)")
    n_snap = cfg["distill"]["iterations"] // cfg["distill"]["snapshot_every"]
    if len(list((out / "frames").glob("iter_*.ppm"))) != n_snap:
        problems.append(f"expected {n_snap} snapshot frames")
    return problems


def check_naive(out: Path, cfg: dict) -> list[str]:
    return _check_distill_common(out, cfg)


CHECKS = {"race": check_race, "splat": check_splat, "naive": check_naive}


def check_outputs(workload: str, out: Path, cfg: dict) -> list[str]:
    """Outcome checks for one invocation; a missing or unparseable output
    file is a problem, not a crash of the benchmark."""
    try:
        return CHECKS[workload](out, cfg)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
