import numpy as np
import pytest

from ismlab import ConfigError, IdentityLatent, SplatGenerator
from ismlab.config import (
    build_distill,
    build_generator,
    build_guidance,
    build_oracle,
    build_schedule,
    get_key,
)


def test_dotted_key_access():
    cfg = {"a": {"b": {"c": 3}}}
    assert get_key(cfg, "a.b.c") == 3
    assert get_key(cfg, "a.b.d", default=7) == 7
    with pytest.raises(ConfigError):
        get_key(cfg, "a.x.c", required=True)


def test_schedule_defaults():
    sch = build_schedule({})
    assert sch.num_steps == 1000
    assert sch.alpha_bar[0] == 1.0
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
    assert cfg.delta_t_start == 100
    assert cfg.guidance.scale == 7.5
