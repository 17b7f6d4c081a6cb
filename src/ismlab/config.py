"""JSON experiment configuration: parsing and object builders.

The schema is documented in docs/config.md. Builders raise ConfigError with
the dotted key that failed, so the CLI can exit with the config-error code.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .distill import DistillConfig, OptimConfig
from .errors import ConfigError
from .generators import IdentityLatent, SplatGenerator, ViewJitterSpec, random_scene
from .oracle import GuidanceSpec, MixtureOracle
from .schedule import NoiseSchedule, make_schedule


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def get_key(cfg: dict, key: str, default=None, required: bool = False):
    node = cfg
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing config key {key!r}")
            return default
        node = node[part]
    return node


SCHEDULE_KEYS = ("T", "beta_start", "beta_end", "omega")
ORACLE_KEYS = ("dim", "components", "labels")
COMPONENT_KEYS = ("weight", "mean", "sigma")
TEMPLATE_KEYS = ("template", "width", "height", "channels", "center", "sigma", "peak")
GUIDANCE_KEYS = ("positive", "negative", "scale")
VIEW_KEYS = ("width", "height")
JITTER_KEYS = ("rotation_max", "zoom_min", "zoom_max", "shift_max")
DISTILL_KEYS = ("objective", "iterations", "t_min", "t_max", "delta_T_start",
                "delta_T_end", "delta_S", "view_batch", "seed", "snapshot_every",
                "optimizer")
OPTIMIZER_KEYS = ("step_size", "beta1", "beta2", "eps_hat")
GENERATOR_KEYS = ("kind", "theta", "n_splats", "channels", "init_seed", "splats", "background")
EXPERIMENT_KEYS = ("t_values", "delta_T_values", "delta_S_values", "noise_draws", "seeds",
                   "threshold", "start_points", "checks", "corrupt_renderer_scale")


def reject_unknown_keys(section, known, path: str) -> None:
    """Raise ConfigError naming the dotted path of the first key of the
    section that is not in known, or the section if it is not an object."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key {path}.{key}")


def check_section(cfg: dict, path: str, known) -> None:
    """reject_unknown_keys for the section at a dotted path of cfg; a missing
    or null section takes all defaults and passes."""
    section = get_key(cfg, path)
    if section is not None:
        reject_unknown_keys(section, known, path)


def build_schedule(cfg: dict) -> NoiseSchedule:
    check_section(cfg, "schedule", SCHEDULE_KEYS)
    return make_schedule(
        num_steps=int(get_key(cfg, "schedule.T", 1000)),
        beta_start=float(get_key(cfg, "schedule.beta_start", 0.00085)),
        beta_end=float(get_key(cfg, "schedule.beta_end", 0.012)),
        omega_kind=get_key(cfg, "schedule.omega", "unit"),
    )


def gaussian_blob_template(width: int, height: int, channels: int,
                           center, sigma: float, peak: float) -> np.ndarray:
    """Flat image of an isotropic blob over the canonical [-1, 1]^2 square;
    used to define image-space mixture components from compact configs."""
    xs = (np.arange(width) + 0.5) / width * 2.0 - 1.0
    ys = (np.arange(height) + 0.5) / height * 2.0 - 1.0
    gx, gy = np.meshgrid(xs, ys)
    d2 = (gx - center[0]) ** 2 + (gy - center[1]) ** 2
    img = peak * np.exp(-0.5 * d2 / sigma ** 2)
    return np.repeat(img.ravel()[:, None], channels, axis=1).ravel()


def _component_mean(spec, dim: Optional[int], path: str) -> np.ndarray:
    if isinstance(spec, dict):
        reject_unknown_keys(spec, TEMPLATE_KEYS, path)
        kind = spec.get("template")
        if kind != "gaussian_blob":
            raise ConfigError(f"unknown template kind {kind!r} in {path}")
        return gaussian_blob_template(
            width=int(spec.get("width", 16)),
            height=int(spec.get("height", 16)),
            channels=int(spec.get("channels", 1)),
            center=[float(v) for v in spec.get("center", (0.0, 0.0))],
            sigma=float(spec.get("sigma", 0.35)),
            peak=float(spec.get("peak", 0.9)),
        )
    mean = np.asarray(spec, dtype=float).ravel()
    if dim is not None and mean.shape[0] != dim:
        raise ConfigError(f"{path} has length {mean.shape[0]}, expected {dim}")
    return mean


def build_oracle(cfg: dict) -> MixtureOracle:
    check_section(cfg, "oracle", ORACLE_KEYS)
    comps = get_key(cfg, "oracle.components", required=True)
    if not comps:
        raise ConfigError("oracle.components must be non-empty")
    dim = get_key(cfg, "oracle.dim")
    dim = int(dim) if dim is not None else None
    means, sigmas, weights = [], [], []
    for i, comp in enumerate(comps):
        path = f"oracle.components[{i}]"
        reject_unknown_keys(comp, COMPONENT_KEYS, path)
        means.append(_component_mean(comp.get("mean"), dim, f"{path}.mean"))
        sigmas.append(float(comp.get("sigma", 0.1)))
        weights.append(float(comp.get("weight", 1.0)))
    lens = {m.shape[0] for m in means}
    if len(lens) != 1:
        raise ConfigError("oracle components disagree on dimension")
    labels = get_key(cfg, "oracle.labels", {})
    return MixtureOracle(means=means, sigmas=sigmas, weights=weights, labels=labels)


def build_guidance(cfg: dict) -> GuidanceSpec:
    check_section(cfg, "guidance", GUIDANCE_KEYS)
    return GuidanceSpec(
        positive=get_key(cfg, "guidance.positive"),
        negative=get_key(cfg, "guidance.negative"),
        scale=float(get_key(cfg, "guidance.scale", 7.5)),
    )


def build_jitter(cfg: dict) -> ViewJitterSpec:
    check_section(cfg, "view", VIEW_KEYS)
    check_section(cfg, "jitter", JITTER_KEYS)
    return ViewJitterSpec(
        rotation_max=float(get_key(cfg, "jitter.rotation_max", 0.0)),
        zoom_min=float(get_key(cfg, "jitter.zoom_min", 1.0)),
        zoom_max=float(get_key(cfg, "jitter.zoom_max", 1.0)),
        shift_max=float(get_key(cfg, "jitter.shift_max", 0.0)),
        width=int(get_key(cfg, "view.width", 16)),
        height=int(get_key(cfg, "view.height", 16)),
    )


def _explicit_splats(splats, background: np.ndarray) -> SplatGenerator:
    """Generator from a generator.splats list; each entry becomes one row."""
    lengths = {"center": 2, "log_scale": 2, "rotation": 1,
               "color": background.shape[0], "logit_opacity": 1}
    rows = []
    for i, entry in enumerate(splats):
        path = f"generator.splats[{i}]"
        reject_unknown_keys(entry, (*lengths, "depth"), path)
        rows.append([])
        for key, length in lengths.items():
            if key not in entry:
                raise ConfigError(f"missing config key {path}.{key}")
            value = np.asarray(entry[key], dtype=float).ravel()
            if value.shape[0] != length:
                raise ConfigError(f"{path}.{key} has length {value.shape[0]}, expected {length}"
                                  + (", the background's length" if key == "color" else ""))
            rows[-1].extend(value)
    return SplatGenerator(rows, background, [float(e.get("depth", 0.0)) for e in splats])


def build_generator(cfg: dict):
    check_section(cfg, "generator", GENERATOR_KEYS)
    kind = get_key(cfg, "generator.kind", "identity")
    if kind == "identity":
        theta = get_key(cfg, "generator.theta", required=True)
        return IdentityLatent(theta)
    if kind == "splats":
        explicit = get_key(cfg, "generator.splats")
        if explicit is not None:
            background = np.asarray(get_key(cfg, "generator.background", [0.0]), dtype=float).ravel()
            return _explicit_splats(explicit, background)
        return random_scene(
            n_splats=int(get_key(cfg, "generator.n_splats", 32)),
            channels=int(get_key(cfg, "generator.channels", 1)),
            seed=int(get_key(cfg, "generator.init_seed", 0)),
            background=get_key(cfg, "generator.background"),
        )
    raise ConfigError(f"generator.kind must be 'identity' or 'splats', got {kind!r}")


def build_distill(cfg: dict) -> DistillConfig:
    check_section(cfg, "distill", DISTILL_KEYS)
    check_section(cfg, "distill.optimizer", OPTIMIZER_KEYS)
    opt = OptimConfig(
        step_size=float(get_key(cfg, "distill.optimizer.step_size", 0.01)),
        beta1=float(get_key(cfg, "distill.optimizer.beta1", 0.9)),
        beta2=float(get_key(cfg, "distill.optimizer.beta2", 0.99)),
        eps_hat=float(get_key(cfg, "distill.optimizer.eps_hat", 1e-8)),
    )
    delta_t_start = int(get_key(cfg, "distill.delta_T_start", 200))
    return DistillConfig(
        objective=get_key(cfg, "distill.objective", "ism"),
        iterations=int(get_key(cfg, "distill.iterations", 1000)),
        t_min=int(get_key(cfg, "distill.t_min", 20 + delta_t_start)),
        t_max=int(get_key(cfg, "distill.t_max", 980)),
        delta_t_start=delta_t_start,
        delta_t_end=int(get_key(cfg, "distill.delta_T_end", 50)),
        delta_s=int(get_key(cfg, "distill.delta_S", 50)),
        guidance=build_guidance(cfg),
        view_batch=int(get_key(cfg, "distill.view_batch", 1)),
        optimizer=opt,
        seed=int(get_key(cfg, "distill.seed", 0)),
        jitter=build_jitter(cfg),
        snapshot_every=int(get_key(cfg, "distill.snapshot_every", 0)),
    )


def int_list(cfg, key, default):
    vals = get_key(cfg, key, default)
    out = [int(v) for v in vals]
    if not out:
        raise ConfigError(f"{key} must be non-empty")
    return out
