"""JSON experiment configuration: parsing and object builders.

The schema is documented in docs/config.md. Each config object is declared
once, as a table key -> (default, converter) beside its builder; ``read``
checks an object against its table. Builders raise ConfigError with the
dotted key that failed, so the CLI can exit with the config-error code.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .distill import DistillConfig, OptimConfig
from .errors import ConfigError
from .generators import IdentityLatent, SplatGenerator, ViewJitterSpec, random_scene
from .oracle import GuidanceSpec, MixtureOracle
from .schedule import NoiseSchedule, make_schedule

REQUIRED = object()  # table default of a key that must be given
# The top-level sections of a config; each is read by its own table.
SECTIONS = dict.fromkeys(("schedule", "oracle", "guidance", "view", "jitter", "generator",
                          "distill", "experiment"), (None, lambda v: v))


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def read(section, table: dict, path: str) -> dict:
    """The values of the config object at a dotted path ("" for the top level),
    by its table key -> (default, converter); a missing or null object takes
    every default. An unknown or missing REQUIRED key, or a value its converter
    rejects with TypeError, ValueError or OverflowError, is a ConfigError
    naming the dotted key."""
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    prefix = f"{path}." if path else ""
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown config key {prefix}{key}")
    values = {}
    for key, (default, convert) in table.items():
        if key not in section:
            if default is REQUIRED:
                raise ConfigError(f"missing config key {prefix}{key}")
            values[key] = default
        else:
            try:
                values[key] = convert(section[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for config key {prefix}{key}: {exc}") from exc
    return values


def _optional(convert):
    """Converter that passes null through as None."""
    return lambda value: None if value is None else convert(value)


def nonempty_ints(value) -> list[int]:
    """Converter to a non-empty list of integers."""
    out = [int(v) for v in value]
    if not out:
        raise ValueError("must be non-empty")
    return out


def positive(kind, or_zero=False, below=np.inf):
    """Converter to a finite number > 0 (>= 0 if or_zero) and < below of the given
    kind, int or float; a bool or string is rejected, and so is a fraction given
    for an int."""
    bound = (">= 0" if or_zero else "> 0") + (f" and < {below}" if below < np.inf else "")
    def convert(value):
        if type(value) not in (int, float) or not (0 <= value if or_zero else 0 < value) \
                or not value < below or kind(value) != value:
            raise ValueError(f"must be a finite {kind.__name__} {bound}, got {value!r}")
        return kind(value)
    return convert


SEED = positive(int, or_zero=True)


def _vector(value) -> np.ndarray:
    return np.asarray(value, dtype=float).ravel()


SCHEDULE = {"T": (1000, positive(int)), "beta_start": (0.00085, float), "beta_end": (0.012, float),
            "omega": ("unit", str)}


def build_schedule(cfg: dict) -> NoiseSchedule:
    s = read(cfg.get("schedule"), SCHEDULE, "schedule")
    try:
        return make_schedule(num_steps=s["T"], beta_start=s["beta_start"],
                             beta_end=s["beta_end"], omega_kind=s["omega"])
    except ConfigError:
        raise
    except (ValueError, MemoryError) as exc:  # numpy cannot allocate T + 1 steps
        raise ConfigError("bad value for config key schedule.T: too large to tabulate") from exc


def gaussian_blob_template(width: int, height: int, channels: int,
                           center, sigma: float, peak: float) -> np.ndarray:
    """Flat image of an isotropic blob over the canonical [-1, 1]^2 square;
    used to define image-space mixture components from compact configs.
    A sigma too large to square (above about 1.3e154) gives the flat limit,
    every pixel peak."""
    xs = (np.arange(width) + 0.5) / width * 2.0 - 1.0
    ys = (np.arange(height) + 0.5) / height * 2.0 - 1.0
    gx, gy = np.meshgrid(xs, ys)
    d2 = (gx - center[0]) ** 2 + (gy - center[1]) ** 2
    try:
        var = sigma ** 2
    except OverflowError:
        var = math.inf
    img = peak * np.exp(-0.5 * d2 / var)
    return np.repeat(img.ravel()[:, None], channels, axis=1).ravel()


def _center(value) -> list[float]:
    """A template center; coordinates after the second are ignored."""
    center = [float(v) for v in value]
    if len(center) < 2:
        raise ValueError("needs two coordinates")
    return center


ORACLE = {"dim": (None, _optional(int)), "components": (REQUIRED, list),
          "labels": (None, lambda v: v)}
COMPONENT = {"weight": (1.0, float), "sigma": (0.1, float),
             "mean": (REQUIRED, lambda v: v if isinstance(v, dict) else _vector(v))}
TEMPLATE = {"template": (REQUIRED, str), "center": ((0.0, 0.0), _center), "peak": (0.9, float),
            "width": (16, positive(int)), "height": (16, positive(int)),
            "channels": (1, positive(int)), "sigma": (0.35, positive(float))}


def build_oracle(cfg: dict) -> MixtureOracle:
    o = read(cfg.get("oracle"), ORACLE, "oracle")
    if not o["components"]:
        raise ConfigError("oracle.components must be non-empty")
    comps, means = [], []
    for i, comp in enumerate(o["components"]):
        path = f"oracle.components[{i}]"
        comps.append(read(comp, COMPONENT, path))
        mean = comps[-1]["mean"]
        if isinstance(mean, dict):
            blob = read(mean, TEMPLATE, f"{path}.mean")
            if blob.pop("template") != "gaussian_blob":
                raise ConfigError(f"unknown template kind {mean['template']!r} in {path}.mean")
            mean = gaussian_blob_template(**blob)
        elif o["dim"] is not None and mean.shape[0] != o["dim"]:
            raise ConfigError(f"{path}.mean has length {mean.shape[0]}, expected {o['dim']}")
        means.append(mean)
    if len({m.shape[0] for m in means}) != 1:
        raise ConfigError("oracle components disagree on dimension")
    # every key of oracle.labels names a label; its value lists component indices
    names = o["labels"] if isinstance(o["labels"], dict) else ()
    labels = read(o["labels"], dict.fromkeys(names, (None, nonempty_ints)), "oracle.labels")
    return MixtureOracle(means=means, sigmas=[c["sigma"] for c in comps],
                         weights=[c["weight"] for c in comps], labels=labels)


# experiments.build_experiment checks the labels against the oracle.
GUIDANCE = {"positive": (None, lambda v: v), "negative": (None, lambda v: v),
            "scale": (7.5, float)}


def build_guidance(cfg: dict) -> GuidanceSpec:
    return GuidanceSpec(**read(cfg.get("guidance"), GUIDANCE, "guidance"))


VIEW = {"width": (16, positive(int)), "height": (16, positive(int))}
JITTER = {"rotation_max": (0.0, float), "zoom_min": (1.0, float), "zoom_max": (1.0, float),
          "shift_max": (0.0, float)}


def build_jitter(cfg: dict) -> ViewJitterSpec:
    return ViewJitterSpec(**read(cfg.get("view"), VIEW, "view"),
                          **read(cfg.get("jitter"), JITTER, "jitter"))


GENERATOR = {"kind": ("identity", str), "theta": (None, _vector), "n_splats": (32, positive(int)),
             "channels": (1, positive(int)), "init_seed": (0, SEED),
             "splats": (None, _optional(list)), "background": (None, _optional(_vector))}
SPLAT = {"center": (REQUIRED, _vector), "log_scale": (REQUIRED, _vector),
         "rotation": (REQUIRED, _vector), "color": (REQUIRED, _vector),
         "logit_opacity": (REQUIRED, _vector), "depth": (0.0, float)}


def _explicit_splats(splats: list, background: np.ndarray) -> SplatGenerator:
    """Generator from a generator.splats list; each entry becomes one row."""
    lengths = {"center": 2, "log_scale": 2, "rotation": 1,
               "color": background.shape[0], "logit_opacity": 1}
    rows, depth = [], []
    for i, entry in enumerate(splats):
        path = f"generator.splats[{i}]"
        splat = read(entry, SPLAT, path)
        for key, length in lengths.items():
            if len(splat[key]) != length:
                raise ConfigError(f"{path}.{key} has length {len(splat[key])}, expected {length}"
                                  + (", the background's length" if key == "color" else ""))
        rows.append(np.concatenate([splat[key] for key in lengths]))
        depth.append(splat["depth"])
    return SplatGenerator(rows, background, depth)


def build_generator(cfg: dict):
    g = read(cfg.get("generator"), GENERATOR, "generator")
    if g["kind"] == "identity":
        if g["theta"] is None:
            raise ConfigError("missing config key generator.theta")
        return IdentityLatent(g["theta"])
    if g["kind"] == "splats":
        if g["splats"] is not None:
            background = g["background"] if g["background"] is not None else np.zeros(1)
            return _explicit_splats(g["splats"], background)
        return random_scene(n_splats=g["n_splats"], channels=g["channels"],
                            seed=g["init_seed"], background=g["background"])
    raise ConfigError(f"generator.kind must be 'identity' or 'splats', got {g['kind']!r}")


# DistillConfig fields by their own names, except the delta_ keys and the
# optimizer (read with OPTIMIZER); t_min defaults to 20 + delta_T_start.
DISTILL = {"objective": ("ism", str), "iterations": (1000, int), "t_min": (None, int),
           "t_max": (980, int), "delta_T_start": (200, int), "delta_T_end": (50, int),
           "delta_S": (50, int), "view_batch": (1, int), "seed": (0, SEED),
           "snapshot_every": (0, int), "optimizer": (None, lambda v: v)}
OPTIMIZER = {"step_size": (0.01, positive(float)), "beta1": (0.9, positive(float, True, 1)),
             "beta2": (0.99, positive(float, True, 1)), "eps_hat": (1e-8, positive(float))}


def build_distill(cfg: dict, guidance: GuidanceSpec | None = None,
                  jitter: ViewJitterSpec | None = None) -> DistillConfig:
    """The distill section; the guidance and jitter are built from cfg unless given."""
    d = read(cfg.get("distill"), DISTILL, "distill")
    if d["t_min"] is None:
        d["t_min"] = 20 + d["delta_T_start"]
    return DistillConfig(
        delta_t_start=d.pop("delta_T_start"), delta_t_end=d.pop("delta_T_end"),
        delta_s=d.pop("delta_S"), guidance=guidance or build_guidance(cfg),
        jitter=jitter or build_jitter(cfg),
        optimizer=OptimConfig(**read(d.pop("optimizer"), OPTIMIZER, "distill.optimizer")), **d)
