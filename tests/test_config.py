import copy
import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from ismlab import (
    ConfigError,
    DistillConfig,
    GuidanceSpec,
    IdentityLatent,
    OptimConfig,
    SplatGenerator,
    ViewJitterSpec,
    config,
    experiments,
    make_schedule,
)
from ismlab.cli import RUNNERS
from ismlab.config import (
    build_distill,
    build_generator,
    build_guidance,
    build_jitter,
    build_oracle,
    build_schedule,
    load_json,
)
from ismlab.experiments import EXPERIMENT, ExperimentSpec, build_experiment
from ismlab.generators import random_scene


def test_schedule_defaults():
    sch = build_schedule({})
    assert sch.num_steps == 1000
    assert sch.ab[0] == 1.0
    assert sch.omega_kind == "unit"


def test_oracle_dimension_mismatch():
    cfg = {"oracle": {"dim": 3, "components": [
        {"weight": 1.0, "mean": [0.0, 0.0], "sigma": 0.1}]}}
    with pytest.raises(ConfigError):
        build_oracle(cfg)


def test_oracle_ragged_components():
    cfg = {"oracle": {"components": [
        {"weight": 1.0, "mean": [0.0, 0.0], "sigma": 0.1},
        {"weight": 1.0, "mean": [0.0, 0.0, 0.0], "sigma": 0.1}]}}
    with pytest.raises(ConfigError):
        build_oracle(cfg)


def test_oracle_unknown_template():
    cfg = {"oracle": {"components": [
        {"weight": 1.0, "mean": {"template": "checkerboard"}, "sigma": 0.1}]}}
    with pytest.raises(ConfigError):
        build_oracle(cfg)


def test_oracle_requires_components():
    with pytest.raises(ConfigError):
        build_oracle({"oracle": {"components": []}})
    with pytest.raises(ConfigError):
        build_oracle({})


def test_guidance_defaults():
    g = build_guidance({})
    assert g.positive is None and g.negative is None and g.scale == 7.5


def test_generator_builders():
    ident = build_generator({"generator": {"kind": "identity", "theta": [1.0, 2.0]}})
    assert isinstance(ident, IdentityLatent)
    assert ident.get_params().tolist() == [1.0, 2.0]

    splats = build_generator({"generator": {
        "kind": "splats", "n_splats": 4, "channels": 1, "init_seed": 3}})
    assert isinstance(splats, SplatGenerator)
    assert splats.n_params == 4 * 7 + 1

    explicit = build_generator({"generator": {
        "kind": "splats",
        "splats": [{"center": [0, 0], "log_scale": [-1, -1], "rotation": 0.0,
                    "color": [0.5], "logit_opacity": 0.0}],
        "background": [0.25]}})
    assert explicit.get_params().tolist() == [0, 0, -1, -1, 0.0, 0.5, 0.0, 0.25]

    # identical seeds give identical scenes
    a = build_generator({"generator": {"kind": "splats", "n_splats": 3, "init_seed": 9}})
    b = build_generator({"generator": {"kind": "splats", "n_splats": 3, "init_seed": 9}})
    assert np.array_equal(a.get_params(), b.get_params())


def test_distill_defaults_follow_interval_start():
    cfg = build_distill({"distill": {"delta_T_start": 100}})
    assert cfg.t_min == 120
    assert cfg.delta_T_start == 100
    assert cfg.guidance.scale == 7.5


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DOCS = Path(__file__).resolve().parent.parent / "docs" / "config.md"
BAD_VALUES = ["x", None, [], {}, ["a"], {"a": 1}]


def kind_of(name: str) -> str:
    """The CLI kind a shipped config is written for."""
    return "distill" if name.startswith("distill") else name.split(".")[0].replace("_", "-")


def key_paths(node, prefix=()):
    """Every path to an object key or list entry inside a JSON value."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


def test_wrong_typed_values_are_config_errors():
    """Each of six wrong-typed values at every key path of every shipped
    config either builds (for example null where null means the default) or
    raises ConfigError, never another exception."""
    leaks = []
    for path in sorted(CONFIGS.glob("*.json")):
        base = load_json(path)
        for keys in key_paths(base):
            for bad in BAD_VALUES:
                cfg = copy.deepcopy(base)
                node = cfg
                for key in keys[:-1]:
                    node = node[key]
                node[keys[-1]] = bad
                try:
                    build_experiment(cfg, kind_of(path.name)).generator
                except ConfigError:
                    pass
                except Exception as exc:  # any other exception type is a leak
                    leaks.append(f"{path.name} {keys} = {bad!r}: {type(exc).__name__}")
    assert leaks == []


@pytest.mark.parametrize("key, value", [
    ("distill.iterations", "many"),
    ("distill.iterations", None),
    ("guidance.scale", "x"),
    ("experiment.seeds", 5),
    ("experiment.seeds", []),
    ("generator.theta", {"a": 1}),
    ("oracle.components[0].mean", ["a", "b"]),
    ("oracle.labels.left", "x"),
    ("distill.optimizer.beta1", [0.9]),
])
def test_wrong_typed_value_names_its_key(key, value):
    cfg = load_json(CONFIGS / "race.json")
    node, parts = cfg, key.replace("[0]", ".0").split(".")
    for part in parts[:-1]:
        node = node[int(part)] if part.isdigit() else node.setdefault(part, {})
    node[parts[-1]] = value
    with pytest.raises(ConfigError, match=re.escape(f"config key {key}: ")):
        build_experiment(cfg, "race").generator


PROBE_VALUES = [-1, 0, 2.5, 1e300, True, float("nan"), "x"]
TEXTS = {path.name: path.read_text() for path in CONFIGS.glob("*.json")}


def dotted(keys) -> str:
    """The dotted key of a key path, list indices as [i]."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def key_path(key: str) -> tuple:
    """The key path of a dotted key."""
    return tuple(int(k) if k.isdigit() else k
                 for k in key.replace("[", ".").replace("]", "").split("."))


@pytest.fixture()
def reads(monkeypatch):
    """Dotted path -> the values config.read returned for the object there,
    filled by every build in the test."""
    recorded = {}
    def recording(section, table, path, original=config.read):
        values = original(section, table, path)
        recorded[path] = dict(values)
        return values
    monkeypatch.setattr(config, "read", recording)
    monkeypatch.setattr(experiments, "read", recording)
    return recorded


def probe(reads, name: str, keys: tuple, value):
    """Build a shipped config under its kind with value at the key path. A
    ConfigError must name the dotted key (its list indices aside) and is
    returned; a build must read the value unchanged (no fraction truncated,
    no bool read as a number, no NaN accepted) and returns None. Any other
    exception propagates."""
    cfg = json.loads(TEXTS[name])
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[keys[-1]] = value
    last = max(i for i, key in enumerate(keys) if isinstance(key, str))
    try:
        build_experiment(cfg, kind_of(name)).generator
    except ConfigError as exc:
        assert dotted(keys[:last + 1]) in str(exc), f"{name} {dotted(keys)} = {value!r}: {exc}"
        return exc
    got = reads[dotted(keys[:last])][keys[last]]
    for index in keys[last + 1:]:
        got = got[index]
    assert isinstance(value, bool) == isinstance(got, bool) and np.all(np.asarray(got) == value), \
        f"{name} {dotted(keys)} = {value!r} read as {got!r}"
    return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_key_takes_a_value_unchanged_or_refuses_it_by_name(reads):
    """Each probe value at every key path of every shipped config either
    builds, read unchanged and without a numpy overflow warning, or is a
    ConfigError naming its key; and the distill values DistillConfig.validate
    refused before the checks moved to the config builders are such a
    ConfigError, as is a view count (2000 iterations times the batch) of
    2^24 or more."""
    for name, text in sorted(TEXTS.items()):
        for keys in key_paths(json.loads(text)):
            for value in PROBE_VALUES:
                probe(reads, name, keys, value)
    for key, value in [("distill.objective", "vsd"), ("distill.t_min", 100),
                       ("distill.t_max", 1200), ("distill.delta_T_end", 300),
                       ("distill.view_batch", 0), ("distill.view_batch", 2 ** 14)]:
        assert probe(reads, "distill_identity.json", key_path(key), value) is not None, key


def test_view_count_is_bounded_below_max_size():
    """distill.iterations * distill.view_batch, the views a run renders, is
    below 2^24: both sizes near 2^24 are refused naming both keys, while one
    iteration of the largest batch, or the largest run of one view, builds."""
    def distill(iterations, view_batch):
        return build_distill({"distill": {"iterations": iterations, "view_batch": view_batch}})
    with pytest.raises(ConfigError, match=re.escape(
            "need distill.iterations * distill.view_batch < 16777216, "
            "got 16777215, 16777215")):
        distill(2 ** 24 - 1, 2 ** 24 - 1)
    assert distill(1, 2 ** 24 - 1).view_batch == distill(2 ** 24 - 1, 1).iterations == 2 ** 24 - 1


@pytest.mark.parametrize("key, value", [
    ("generator.n_splats", -1),
    ("generator.n_splats", 0),
    ("generator.n_splats", 2.7),
    ("generator.n_splats", True),
    ("generator.n_splats", "32"),
    ("generator.channels", -1),
    ("generator.channels", float("inf")),
    ("view.width", -3),
    ("view.width", 0),
    ("view.height", 2.5),
    ("view.height", float("nan")),
    ("oracle.components[0].mean.sigma", 0),
    ("oracle.components[0].mean.sigma", -0.35),
    ("oracle.components[0].mean.sigma", float("inf")),
    ("oracle.components[0].mean.sigma", 10 ** 400),
    ("oracle.components[0].mean.channels", -1),
    ("oracle.components[0].mean.width", 0),
    ("oracle.components[0].mean.height", 16.5),
    ("distill.iterations", float("inf")),
    ("distill.seed", -1),
    ("distill.seed", 2.5),
    ("distill.seed", "7"),
    ("generator.init_seed", -1),
    ("generator.init_seed", True),
    ("experiment.seeds", [0, -1]),
    ("experiment.seeds", [1.5]),
    ("experiment.start_points", 0),
    ("experiment.start_points", -1),
    ("experiment.start_points", 2.5),
    ("experiment.noise_draws", 1e300),
    ("experiment.noise_draws", 10 ** 13),
    ("schedule.T", 2.7),
    ("schedule.T", True),
    ("schedule.T", 0),
    ("schedule.T", 1e300),
    ("schedule.T", 2 ** 63),
    ("distill.optimizer.step_size", -0.01),
    ("distill.optimizer.step_size", 0),
    ("distill.optimizer.step_size", float("inf")),
    ("distill.optimizer.eps_hat", 0),
    ("distill.optimizer.eps_hat", float("nan")),
    ("distill.optimizer.beta1", 1),
    ("distill.optimizer.beta1", 1.5),
    ("distill.optimizer.beta1", -0.1),
    ("distill.optimizer.beta2", 1),
    ("distill.optimizer.beta2", True),
])
def test_out_of_range_values_name_their_key(reads, key, value):
    """Sizes, schedule.T and start_points must be positive integers and seeds
    non-negative integers (a fraction is rejected, not truncated); the
    template sigma, the optimizer step_size and eps_hat finite positive
    numbers, and the optimizer betas in [0, 1). A T too large to tabulate is
    a config error too. Each case runs through the probe."""
    exc = probe(reads, "distill_splats.json", key_path(key), value)
    assert exc is not None and str(exc).startswith(f"bad value for config key {key}: ")


def test_an_oracle_past_its_size_bound_builds_no_second_template(monkeypatch):
    """1,000 templates of 400 x 400 would hold 1.6e8 mean values; the first
    template gives the oracle's dimension, so the bound refuses the oracle
    before a second one is built."""
    built = []
    def counting(*args, original=config.gaussian_blob_template, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(config, "gaussian_blob_template", counting)
    blob = {"template": "gaussian_blob", "width": 400, "height": 400}
    with pytest.raises(ConfigError, match=r"need len\(oracle.components\) \* the oracle's "
                                          r"dimension < 16777216, got 1000, 160000"):
        config.build_oracle({"oracle": {"components": [{"mean": blob}] * 1000}})
    assert len(built) == 1


def test_zero_seeds_and_integral_seeds_in_float_form_are_accepted():
    cfg = load_json(CONFIGS / "distill_splats.json")
    cfg["distill"]["seed"] = 0
    cfg["generator"]["init_seed"] = 3.0
    cfg["experiment"] = {"seeds": [0, 2.0, 2 ** 70], "start_points": 1}
    spec = build_experiment(cfg, "distill")
    assert spec.distill.seed == 0 and spec.seeds == [0, 2, 2 ** 70] and spec.start_points == 1
    assert all(type(s) is int for s in spec.seeds)
    np.testing.assert_array_equal(spec.generator.get_params(),
                                  random_scene(32, 1, seed=3).get_params())


def test_integral_sizes_in_float_form_are_accepted():
    cfg = load_json(CONFIGS / "distill_splats.json")
    cfg["generator"]["n_splats"] = 4.0
    cfg["view"]["width"] = 16.0
    spec = build_experiment(cfg, "distill")
    assert spec.generator.n_params == 4 * 7 + 1
    assert spec.distill.jitter.width == 16 and isinstance(spec.distill.jitter.width, int)


@pytest.mark.parametrize("key, value", [("positive", "nope"), ("negative", "nope"),
                                        ("positive", ["right"]), ("negative", {"a": 1})])
def test_guidance_label_must_be_an_oracle_label(key, value):
    cfg = load_json(CONFIGS / "race.json")
    cfg["guidance"][key] = value
    with pytest.raises(ConfigError, match=f"guidance.{key} is not null or an oracle label"):
        build_experiment(cfg, "race")


def test_a_spec_builds_guidance_view_and_jitter_once(monkeypatch):
    """Every shipped config under every kind it builds for reads the
    guidance, view and jitter sections once each. A spec with a distill
    section holds its guidance and jitter; one without builds both itself."""
    paths = []
    def counting(section, table, path, original=config.read):
        paths.append(path)
        return original(section, table, path)
    monkeypatch.setattr(config, "read", counting)
    built = set()
    for name, text in sorted(TEXTS.items()):
        for kind in RUNNERS:
            paths.clear()
            try:
                spec = build_experiment(json.loads(text), kind)
            except ConfigError:
                continue
            assert [paths.count(p) for p in ("guidance", "view", "jitter")] == [1, 1, 1], \
                (name, kind)
            if spec.distill is not None:
                assert spec.guidance is spec.distill.guidance, (name, kind)
                assert spec.jitter is spec.distill.jitter, (name, kind)
            else:
                assert spec.guidance == build_guidance(json.loads(text)), (name, kind)
            built.add((kind, spec.distill is not None))
    assert {(kind, True) for kind in experiments.DISTILL_KINDS} <= built
    assert ("quality", False) in built


def test_every_table_key_is_documented():
    """Each key of each section table has a `dotted.key` entry in docs/config.md."""
    tables = {"schedule": config.SCHEDULE, "oracle": config.ORACLE,
              "oracle.components[]": config.COMPONENT,
              "oracle.components[].mean": config.TEMPLATE, "guidance": config.GUIDANCE,
              "view": config.VIEW, "jitter": config.JITTER, "generator": config.GENERATOR,
              "generator.splats[]": config.SPLAT, "distill": config.DISTILL,
              "distill.optimizer": config.OPTIMIZER, "experiment": EXPERIMENT}
    docs = DOCS.read_text()
    missing = [f"{path}.{key}" for path, table in tables.items() for key in table
               if f"`{path}.{key}`" not in docs]
    assert missing == []


def test_table_defaults_match_the_constructor_defaults():
    """A config that omits a key builds what the library constructors build
    when the same argument is omitted; DistillConfig and ExperimentSpec have
    no defaults of their own, since DISTILL and EXPERIMENT declare them."""
    assert build_schedule({}).ab == make_schedule(1000).ab
    assert build_jitter({}) == ViewJitterSpec()
    assert build_guidance({}) == GuidanceSpec(positive=None)
    assert build_distill({}) == DistillConfig(
        objective="ism", iterations=1000, t_min=220, t_max=980, delta_T_start=200,
        delta_T_end=50, delta_S=50, view_batch=1, seed=0, snapshot_every=0,
        optimizer=OptimConfig(), guidance=GuidanceSpec(positive=None), jitter=ViewJitterSpec())
    for cls in (DistillConfig, ExperimentSpec):
        assert [f.name for f in fields(cls)
                if f.default is not MISSING or f.default_factory is not MISSING] == [], cls


TABLES = {name: getattr(config, name) for name in (
    "SCHEDULE", "ORACLE", "COMPONENT", "TEMPLATE", "GUIDANCE", "VIEW", "JITTER", "GENERATOR",
    "SPLAT", "DISTILL", "OPTIMIZER")} | {"EXPERIMENT": EXPERIMENT}


@pytest.mark.parametrize("table, key", [(name, key) for name, table in TABLES.items()
                                        for key, (default, _) in table.items()
                                        if default is not config.REQUIRED])
def test_a_default_is_read_like_a_written_value(table, key):
    """Every default is a JSON value its converter accepts, so reading it gives
    the declared default, of the type a written value reads as; null checks
    read as all four."""
    default, convert = TABLES[table][key]
    assert json.loads(json.dumps(default)) == default  # a tuple is not JSON
    value = config.read({}, {key: (default, convert)}, table.lower())[key]
    expected = list(experiments.GRADCHECKS) if key == "checks" else default
    assert value == expected and type(value) is type(expected)


def test_section_keys_are_the_field_names():
    """Every distill key but the optimizer, which becomes an OptimConfig, and
    every experiment key is the field of the same name and holds the value as
    read; the other fields are the sections the builders add."""
    distill = {"objective": "sds", "iterations": 7, "t_min": 300, "t_max": 900,
               "delta_T_start": 150, "delta_T_end": 40, "delta_S": 30, "view_batch": 2,
               "seed": 3, "snapshot_every": 5}
    experiment = {"t_values": [200], "delta_T_values": [20, 40], "delta_S_values": [10],
                  "seeds": [4, 5], "noise_draws": 3, "threshold": 0.1, "start_points": 6,
                  "checks": ["score_fd"]}
    assert set(distill) == set(config.DISTILL) - {"optimizer"}
    assert set(experiment) == set(EXPERIMENT)
    spec = build_experiment({"oracle": {"components": [{"mean": [0.0, 0.0]}]},
                             "distill": distill, "experiment": experiment}, "quality")
    assert {key: getattr(spec.distill, key) for key in distill} == distill
    assert {key: getattr(spec, key) for key in experiment} == experiment
    assert {f.name for f in fields(DistillConfig)} == set(config.DISTILL) | {"guidance", "jitter"}
    assert {f.name for f in fields(ExperimentSpec)} == set(EXPERIMENT) | {
        "schedule", "oracle", "guidance", "jitter", "generator", "distill"}
