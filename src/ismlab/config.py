"""JSON experiment configuration: parsing and object builders.

The schema is in docs/config.md. Each config object is declared once, as a
table key -> (default, converter) beside its builder: ``read`` checks an
object against its table (a key's range is its converter), the builder the
constraints across keys (``need``). Each ConfigError names its dotted keys.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

from .distill import OBJECTIVES, DistillConfig, OptimConfig
from .errors import ConfigError
from .generators import MIN_DET, IdentityLatent, SplatGenerator, ViewJitterSpec, random_scene
from .oracle import GuidanceSpec, MixtureOracle
from .schedule import OMEGA_KINDS, NoiseSchedule, make_schedule

REQUIRED = object()  # table default of a key that must be given
# The top-level sections of a config; each is read by its own table.
SECTIONS = dict.fromkeys(("schedule", "oracle", "guidance", "view", "jitter", "generator",
                          "distill", "experiment"), (None, lambda v: v))


class JSONObject(dict):
    """A JSON object as read; repeated lists the keys it gives more than once."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.repeated = [key for key, n in Counter(k for k, _ in pairs).items() if n > 1]


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:  # the encoding JSON requires
            return json.load(fh, object_pairs_hook=JSONObject)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad bytes, text or int
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def read(section, table: dict, path: str) -> dict:
    """The values of the config object at a dotted path ("" for the top level, never
    null), by its table key -> (default, converter): a missing key (every key of a
    missing or null section) reads its default, a JSON value, as if written. A repeated,
    unknown or missing REQUIRED key, or a value its converter rejects with TypeError,
    ValueError or OverflowError, is a ConfigError naming the dotted key."""
    section = {} if section is None and path else section
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'the top level of a config'} must be an object")
    prefix = f"{path}." if path else ""
    if getattr(section, "repeated", None):
        raise ConfigError(f"repeated config key {prefix}{section.repeated[0]}")
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown config key {prefix}{key}")
    values = {}
    for key, (default, convert) in table.items():
        if key not in section and default is REQUIRED:
            raise ConfigError(f"missing config key {prefix}{key}")
        try:
            values[key] = convert(section.get(key, default))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value for config key {prefix}{key}: {exc}") from exc
    return values


def _optional(convert):
    """Converter that passes null through as None."""
    return lambda value: None if value is None else convert(value)


def positive(kind, low=0, closed=False, below=math.inf):
    """Converter to a finite number of the given kind, int or float, > low
    (>= low if closed; of any sign if low is -inf) and < below; a bool or
    string is rejected, and so is a fraction given for an int."""
    bound = " and ".join(([f"{'>=' if closed else '>'} {low}"] if low > -math.inf else [])
                         + ([f"< {below}"] if below < math.inf else []))
    def convert(value):
        if type(value) not in (int, float) or not (low <= value if closed else low < value) \
                or not value < below or kind(value) != value:
            raise ValueError(f"must be a finite {' '.join((kind.__name__, bound)).strip()}, "
                             f"got {value!r}")
        return kind(value)
    return convert


MAX_SIZE = 2 ** 24  # above every size, and every value count of an array that sizes span
SIZE = positive(int, below=MAX_SIZE)
NON_NEGATIVE = positive(int, 0, True)
FINITE = positive(float, -math.inf)
SQUARED = 1e150  # bound on the size of a value the builders square: two such squares add finitely
SQUARABLE = positive(float, -SQUARED, below=SQUARED)


def unit(value) -> float:
    """Converter to a float in [0, 1], a color."""
    if type(value) not in (int, float) or not 0 <= value <= 1:
        raise ValueError(f"must be a float in [0, 1], got {value!r}")
    return float(value)


def one_of(*choices):
    """Converter accepting only the given values."""
    def convert(value):
        if value not in choices:
            raise ValueError(f"must be one of {choices}, got {value!r}")
        return value
    return convert


def nonempty(convert, at_least=1, distinct=False):
    """Converter to a list of at_least or more entries, each by convert; distinct: none repeats."""
    def convert_list(value):
        if type(value) is not list or len(value) < at_least:
            raise ValueError(f"must be a list of {at_least} or more entries, got {value!r}")
        entries = [convert(v) for v in value]
        if distinct and len(set(entries)) < len(entries):
            raise ValueError(f"must not repeat an entry, got {value!r}")
        return entries
    return convert_list


def vector(entry):
    """Converter to a non-empty flat array of floats, each converted by entry; a
    number is a vector of one."""
    return lambda value: np.array(nonempty(entry)(value if type(value) is list else [value]))


def need(holds: bool, rule: str, *values) -> None:
    """A constraint across config keys: unless it holds, a ConfigError stating
    the rule, which names the keys, and their values."""
    if not holds:
        raise ConfigError(f"need {rule}, got " + ", ".join(
            str(v.tolist() if isinstance(v, np.ndarray) else v) for v in values))


SCHEDULE = {"T": (1000, positive(int, 2, True, 2 ** 17)),  # five (T + 1)-float tables, 28 MB at 2^17
            "beta_start": (0.00085, positive(float, below=1)),
            "beta_end": (0.012, positive(float, below=1)), "omega": ("unit", one_of(*OMEGA_KINDS))}


def build_schedule(cfg: dict) -> NoiseSchedule:
    s = read(cfg.get("schedule"), SCHEDULE, "schedule")
    need(s["beta_start"] <= s["beta_end"], "schedule.beta_start <= schedule.beta_end",
         s["beta_start"], s["beta_end"])
    try:
        return make_schedule(num_steps=s["T"], beta_start=s["beta_start"],
                             beta_end=s["beta_end"], omega_kind=s["omega"])
    except ConfigError:  # the one check the table leaves: alpha_bar_T underflows to 0
        need(False, "schedule.T, schedule.beta_start and schedule.beta_end with alpha_bar_T > 0",
             s["T"], s["beta_start"], s["beta_end"])


def gaussian_blob_template(width: int, height: int, channels: int,
                           center, sigma: float, peak: float) -> np.ndarray:
    """Flat image of an isotropic blob over the canonical [-1, 1]^2 square, for
    image-space mixture components; one formula for every sigma > 0. A square
    that overflows (sigma above about 1.3e154) gives the flat limit, every pixel
    peak; one that underflows, the point limit: peak at a pixel on the center, else 0."""
    xs = (np.arange(width) + 0.5) / width * 2.0 - 1.0
    ys = (np.arange(height) + 0.5) / height * 2.0 - 1.0
    gx, gy = np.meshgrid(xs, ys)
    d2 = (gx - center[0]) ** 2 + (gy - center[1]) ** 2
    with np.errstate(over="ignore"):  # an infinite square or quotient is the limit above
        img = peak * np.exp(-0.5 * d2 / max(np.float64(sigma) ** 2, 5e-324))
    return np.repeat(img.ravel()[:, None], channels, axis=1).ravel()


ORACLE = {"dim": (None, _optional(SIZE)), "components": (REQUIRED, nonempty(lambda v: v)),
          "labels": (None, lambda v: v)}
COMPONENT = {"weight": (1.0, positive(float)), "sigma": (0.1, positive(float, 0, True, SQUARED)),
             "mean": (REQUIRED, lambda v: v if isinstance(v, dict) else vector(SQUARABLE)(v))}
TEMPLATE = {"template": (REQUIRED, one_of("gaussian_blob")),
            "center": ([0.0, 0.0], nonempty(SQUARABLE, 2)),
            "peak": (0.9, FINITE), "width": (16, SIZE), "height": (16, SIZE),
            "channels": (1, SIZE), "sigma": (0.35, positive(float))}


def build_oracle(cfg: dict) -> MixtureOracle:
    o = read(cfg.get("oracle"), ORACLE, "oracle")
    comps, means, dim = [], [], o["dim"]
    # every mean has the length of oracle.dim, or of the first mean without one
    first = "oracle.components[0].mean" if dim is None else "oracle.dim"
    for i, comp in enumerate(o["components"]):
        path = f"oracle.components[{i}]"
        comps.append(read(comp, COMPONENT, path))
        mean = comps[-1]["mean"]
        if isinstance(mean, dict):
            blob = read(mean, TEMPLATE, f"{path}.mean")
            del blob["template"]
            need(blob["width"] * blob["height"] * blob["channels"] < MAX_SIZE,
                 f"{path}.mean.width * height * channels < {MAX_SIZE}",
                 blob["width"], blob["height"], blob["channels"])
            mean = gaussian_blob_template(**blob)
        dim = dim or mean.shape[0]
        need(len(o["components"]) * dim < MAX_SIZE, "len(oracle.components) * the oracle's "
             f"dimension < {MAX_SIZE}", len(o["components"]), dim)
        if mean.shape[0] != dim:
            raise ConfigError(f"{path}.mean has length {mean.shape[0]} but {first} gives {dim}")
        means.append(mean)
    # every key of oracle.labels names a label; its value lists component indices
    names = o["labels"] if isinstance(o["labels"], dict) else ()
    index = nonempty(positive(int, 0, True, len(means)), distinct=True)
    labels = read(o["labels"], dict.fromkeys(names, (None, index)), "oracle.labels")
    weights = [c["weight"] for c in comps]  # whose sum may overflow, or a share underflow
    need(min(weights) / sum(weights) > 0, "min(oracle.components[].weight) / their sum > 0",
         min(weights), sum(weights))
    return MixtureOracle(means=means, sigmas=[c["sigma"] for c in comps], weights=weights,
                         labels=labels)


# experiments.build_experiment checks the labels against the oracle.
GUIDANCE = {"positive": (None, lambda v: v), "negative": (None, lambda v: v),
            "scale": (7.5, FINITE)}


def build_guidance(cfg: dict) -> GuidanceSpec:
    return GuidanceSpec(**read(cfg.get("guidance"), GUIDANCE, "guidance"))


VIEW = {"width": (16, SIZE), "height": (16, SIZE)}
JITTER_RANGE = positive(float, 0, True, 2.0 ** 1023)  # rng.uniform(-r, r) needs a finite 2 * r
JITTER = {"rotation_max": (0.0, JITTER_RANGE), "zoom_min": (1.0, positive(float)),
          "zoom_max": (1.0, positive(float)), "shift_max": (0.0, JITTER_RANGE)}


def build_jitter(cfg: dict) -> ViewJitterSpec:
    view, jitter = read(cfg.get("view"), VIEW, "view"), read(cfg.get("jitter"), JITTER, "jitter")
    need(jitter["zoom_min"] <= jitter["zoom_max"], "jitter.zoom_min <= jitter.zoom_max",
         jitter["zoom_min"], jitter["zoom_max"])
    zoom = jitter["zoom_min"]  # its view's |det| must reach View.pixel_centers' MIN_DET
    need(zoom * zoom * view["width"] * view["height"] / 4 >= MIN_DET,
         f"jitter.zoom_min ** 2 * view.width * view.height / 4 >= {MIN_DET}",
         zoom, view["width"], view["height"])
    return ViewJitterSpec(**view, **jitter)


GENERATOR = {"kind": ("identity", one_of("identity", "splats")),
             "theta": (None, _optional(vector(FINITE))), "n_splats": (32, SIZE),
             "channels": (1, SIZE), "init_seed": (0, NON_NEGATIVE),
             "splats": (None, _optional(nonempty(lambda v: v))),
             "background": (None, _optional(vector(unit)))}
SPLAT = {"center": (REQUIRED, vector(FINITE)), "log_scale": (REQUIRED, vector(FINITE)),
         "rotation": (REQUIRED, vector(FINITE)), "color": (REQUIRED, vector(unit)),
         "logit_opacity": (REQUIRED, vector(FINITE)), "depth": (0.0, FINITE)}


def _explicit_splats(splats: list, background: np.ndarray) -> SplatGenerator:
    """Generator from a generator.splats list, one row per entry in stable depth order."""
    lengths = {"center": 2, "log_scale": 2, "rotation": 1,
               "color": background.shape[0], "logit_opacity": 1}
    rows = []  # (depth, row) per entry
    for i, entry in enumerate(splats):
        path = f"generator.splats[{i}]"
        splat = read(entry, SPLAT, path)
        for key, length in lengths.items():
            if len(splat[key]) != length:
                raise ConfigError(f"{path}.{key} has length {len(splat[key])}, expected {length}"
                                  + (", the background's length" if key == "color" else ""))
        rows.append((splat["depth"], np.concatenate([splat[key] for key in lengths])))
    return SplatGenerator([row for _, row in sorted(rows, key=lambda r: r[0])], background)


def build_generator(cfg: dict):
    g = read(cfg.get("generator"), GENERATOR, "generator")
    for key in cfg.get("generator") or {}:  # identity reads kind and theta, splats all but theta
        if key != "kind" and (key == "theta") != (g["kind"] == "identity"):
            raise ConfigError(f"generator.kind {g['kind']!r} reads no config key generator.{key}")
    if g["kind"] == "identity":
        if g["theta"] is None:
            raise ConfigError("missing config key generator.theta")
        return IdentityLatent(g["theta"])
    background = g["background"]
    if g["splats"] is not None:
        return _explicit_splats(g["splats"], np.zeros(1) if background is None else background)
    n, c = g["n_splats"], g["channels"]
    need(n * (6 + c) < MAX_SIZE, f"generator.n_splats * (6 + generator.channels) < {MAX_SIZE}",
         n, c)
    need(background is None or len(background) == c,
         "generator.background as long as generator.channels", background, c)
    return random_scene(n_splats=n, channels=c, seed=g["init_seed"], background=background)


# DistillConfig fields by their own names, the optimizer read with OPTIMIZER;
# t_min defaults to 20 + delta_T_start.
DISTILL = {"objective": ("ism", one_of(*OBJECTIVES)),
           "iterations": (1000, positive(int, 0, True, MAX_SIZE)),
           "t_min": (None, _optional(positive(int))), "t_max": (980, positive(int)),
           "delta_T_start": (200, positive(int)), "delta_T_end": (50, positive(int)),
           "delta_S": (50, positive(int)), "view_batch": (1, SIZE),
           "seed": (0, NON_NEGATIVE), "snapshot_every": (0, NON_NEGATIVE),
           "optimizer": (None, lambda v: v)}
OPTIMIZER = {"step_size": (0.01, positive(float)), "beta1": (0.9, positive(float, 0, True, 1)),
             "beta2": (0.99, positive(float, 0, True, 1)), "eps_hat": (1e-8, positive(float))}


def build_distill(cfg: dict) -> DistillConfig:
    """The distill section, with the guidance and jitter built from cfg."""
    d = read(cfg.get("distill"), DISTILL, "distill")
    d["t_min"] = d["t_min"] or 20 + d["delta_T_start"]  # null, as a given t_min is >= 1
    T = read(cfg.get("schedule"), SCHEDULE, "schedule")["T"]
    need(d["t_min"] <= d["t_max"] <= T, "distill.t_min <= distill.t_max <= schedule.T",
         d["t_min"], d["t_max"], T)
    need(d["delta_T_end"] <= d["delta_T_start"] < d["t_min"],
         "distill.delta_T_end <= distill.delta_T_start < distill.t_min",
         d["delta_T_end"], d["delta_T_start"], d["t_min"])
    need(d["iterations"] * d["view_batch"] < MAX_SIZE,
         f"distill.iterations * distill.view_batch < {MAX_SIZE}", d["iterations"], d["view_batch"])
    return DistillConfig(
        guidance=build_guidance(cfg), jitter=build_jitter(cfg),
        optimizer=OptimConfig(**read(d.pop("optimizer"), OPTIMIZER, "distill.optimizer")), **d)
