import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ismlab import cli
from ismlab.cli import main
from ismlab.config import (
    build_generator,
    build_jitter,
    build_oracle,
    gaussian_blob_template,
    load_json,
)
from ismlab.distill import METRICS_CSV_HEADER
from ismlab.experiments import build_experiment
from ismlab.oracle import MixtureOracle
from ismlab.ppm import read_ppm, write_ppm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tweak_config(tmp_path, name, **tweaks):
    cfg = load_json(CONFIGS / name)
    for key, value in tweaks.items():
        node = cfg
        parts = key.replace("[", ".").replace("]", "").split(".")
        for p in parts[:-1]:
            node = node[int(p)] if p.isdigit() else node.setdefault(p, {})
        node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_gradcheck_exits_zero(tmp_path):
    cfg = tweak_config(tmp_path, "gradcheck.json",
                       **{"experiment.checks": ["gradient_forms", "decomposition"]})
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert (out / "gradcheck.csv").exists()


def test_gradcheck_failure_exits_two(tmp_path, capsys, corrupt_backward):
    cfg = tweak_config(tmp_path, "gradcheck.json", **{"experiment.checks": ["renderer_fd"]})
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 2
    assert "renderer_fd" in capsys.readouterr().err


def test_gradcheck_with_a_nan_error_exits_two(tmp_path, capsys, monkeypatch):
    """A check whose error is NaN fails: its max_error is NaN, not the 0.0 a
    running max() started from."""
    monkeypatch.setattr(MixtureOracle, "eps_predict",
                        lambda self, schedule, x, t, label=None: np.full(np.shape(x), np.nan))
    cfg = tweak_config(tmp_path, "gradcheck.json", **{"experiment.checks": ["score_fd"]})
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 2
    assert "score_fd" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert math.isnan(report["rows"][0]["max_error"]) and report["rows"][0]["passed"] is False


@pytest.mark.parametrize("below", [False, True])
def test_unwritable_out_is_a_one_line_output_error(tmp_path, capsys, monkeypatch, below):
    """An --out that is an existing file, or a path below one, exits 1 with one
    stderr line naming it, and the runner is never called."""
    monkeypatch.setitem(cli.RUNNERS, "gradcheck", lambda spec: pytest.fail("runner called"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x" if below else blocker
    assert main(["gradcheck", "--config", str(CONFIGS / "gradcheck.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {out}: ") and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_config_error_exits_one(tmp_path, capsys):
    cfg = tweak_config(tmp_path, "gradcheck.json", **{"schedule.T": 1})
    assert main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert main(["gradcheck", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("key, value", [("view.width", -3), ("view.width", 0),
                                        ("generator.n_splats", -1), ("generator.n_splats", 2.7)])
def test_out_of_range_size_is_a_one_line_config_error(tmp_path, capsys, key, value):
    cfg = tweak_config(tmp_path, "distill_splats.json", **{key: value})
    assert main(["distill", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: bad value for config key {key}: must be a finite int > 0 and < 16777216, "
        f"got {value!r}"]


@pytest.mark.parametrize("kind, name, key, value, size, dim", [
    ("distill", "distill_splats.json", "view.width", 8, 128, 256),
    ("distill", "distill_splats.json", "generator.channels", 2, 512, 256),
    ("distill", "distill_identity.json", "generator.theta", [0.0, 0.0, 0.0], 3, 2),
    ("consistency", "consistency.json", "generator.theta", [0.0], 1, 2),
    ("eta-sweep", "eta_sweep.json", "generator.theta", [0.0, 0.0, 0.0], 3, 2),
])
def test_render_size_other_than_oracle_dim_is_a_one_line_config_error(
        tmp_path, capsys, kind, name, key, value, size, dim):
    cfg = tweak_config(tmp_path, name, **{key: value})
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    rendered = "len(generator.theta)" if key == "generator.theta" else \
        "view.width * view.height * generator.channels"
    assert capsys.readouterr().err.splitlines() == [
        f"config error: need {rendered} == the oracle's dimension, got {size}, {dim}"]


def test_template_sigma_too_large_to_square_gives_the_flat_template(tmp_path):
    flat = gaussian_blob_template(16, 16, 1, (0.45, 0.0), 1e300, 0.9)
    assert flat.tobytes() == np.full(256, 0.9).tobytes()
    blob = {"template": "gaussian_blob", "center": [0.45, 0.0]}
    cfg = tweak_config(tmp_path, "distill_splats.json",
                       **{"distill.iterations": 3, "oracle.components": [
                           {"mean": {**blob, "sigma": 1e300}}, {"mean": blob}]})
    assert main(["distill", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_eta_sweep_outputs(tmp_path):
    cfg = tweak_config(tmp_path, "eta_sweep.json",
                       **{"experiment.t_values": [200],
                          "experiment.delta_T_values": [50, 200]})
    out = tmp_path / "out"
    assert main(["eta-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "eta_sweep.csv").exists()
    assert (out / "gradients.csv").exists()


def test_distill_kind_writes_metrics_and_frames(tmp_path):
    cfg = tweak_config(tmp_path, "distill_splats.json",
                       **{"distill.iterations": 30,
                          "distill.snapshot_every": 10,
                          "generator.n_splats": 6})
    out = tmp_path / "out"
    assert main(["distill", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    frames = sorted(p.name for p in (out / "frames").glob("*.ppm"))
    assert "final.ppm" in frames
    assert "iter_000010.ppm" in frames
    report = json.loads((out / "report.json").read_text())
    assert report["iterations"] == 30


def test_distill_identity_has_no_frames(tmp_path):
    cfg = tweak_config(tmp_path, "distill_identity.json",
                       **{"distill.iterations": 25})
    out = tmp_path / "out"
    assert main(["distill", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["metrics.csv", "report.json"]


def test_race_kind(tmp_path):
    cfg = tweak_config(tmp_path, "race.json",
                       **{"distill.iterations": 40, "experiment.seeds": [0, 1]})
    out = tmp_path / "out"
    assert main(["race", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "race.csv").exists()
    assert (out / "race_summary.csv").exists()


# Small image-generator overrides for configs that ship with an identity latent.
_SPLATS = load_json(CONFIGS / "distill_splats.json")
SPLAT_IMAGE = {"schedule": _SPLATS["schedule"], "oracle": _SPLATS["oracle"],
               "guidance.positive": "left",
               "generator": {"kind": "splats", "n_splats": 4, "channels": 1, "init_seed": 0},
               "view": {"width": 16, "height": 16}}


@pytest.mark.parametrize("kind, name, tweaks, files", [
    ("consistency", "consistency.json",
     {"experiment.noise_draws": 2, "experiment.t_values": [300]},
     {"report.json", "consistency.csv"}),
    ("consistency", "consistency.json",
     {"experiment.noise_draws": 2, "experiment.t_values": [300], **SPLAT_IMAGE},
     {"report.json", "consistency.csv", "frames/sds_pseudo_gt_grid.ppm",
      "frames/ism_pseudo_gt_grid.ppm", "frames/input_view.ppm"}),
    ("quality", "quality.json",
     {"experiment.t_values": [200], "experiment.start_points": 2},
     {"report.json", "quality.csv"}),
    ("eta-sweep", "eta_sweep.json",
     {"experiment.t_values": [200], "experiment.delta_T_values": [50]},
     {"report.json", "eta_sweep.csv", "gradients.csv"}),
    ("interval-sweep", "interval_sweep.json",
     {"distill.iterations": 3, "experiment.delta_T_values": [50],
      "experiment.delta_S_values": [50, 100]},
     {"report.json", "interval_sweep.csv"}),
    ("interval-sweep", "interval_sweep.json",
     {"distill.iterations": 3, "experiment.delta_T_values": [50],
      "experiment.delta_S_values": [50, 100], **SPLAT_IMAGE},
     {"report.json", "interval_sweep.csv", "frames/final_dT50_dS50.ppm",
      "frames/final_dT50_dS100.ppm"}),
    ("race", "race.json", {"distill.iterations": 3, "experiment.seeds": [0, 1]},
     {"report.json", "race.csv", "race_summary.csv"}),
    ("gradcheck", "gradcheck.json", {"experiment.checks": ["gradient_forms"]},
     {"report.json", "gradcheck.csv"}),
    ("distill", "distill_identity.json", {"distill.iterations": 3},
     {"report.json", "metrics.csv"}),
    ("distill", "distill_splats.json",
     {"distill.iterations": 4, "distill.snapshot_every": 2, "generator.n_splats": 4},
     {"report.json", "metrics.csv", "frames/iter_000002.ppm", "frames/iter_000004.ppm",
      "frames/final.ppm"}),
], ids=["consistency", "consistency-image", "quality", "eta-sweep", "interval-sweep",
        "interval-sweep-image", "race", "gradcheck", "distill", "distill-image"])
def test_each_kind_writes_its_file_set(tmp_path, kind, name, tweaks, files):
    """The files of each kind, as listed in docs/config.md under Outputs."""
    cfg = tweak_config(tmp_path, name, **tweaks)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == files
    assert json.loads((out / "report.json").read_text())["kind"] == kind.replace("-", "_")


@given(st.integers(1, 300), st.integers(1, 300), st.sampled_from([1, 3]))
@example(255, 2, 1)
@example(3, 255, 3)
@example(5, 7, 1)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ppm_round_trip(tmp_path, height, width, channels):
    # sizes containing the maxval digits used to shift the pixel body
    img = np.random.default_rng(height * 1000 + width).uniform(0, 1, size=(height, width, channels))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == (height, width, channels)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-9
    with open(path, "rb") as fh:
        assert fh.read(2) == (b"P5" if channels == 1 else b"P6")
    if channels == 1:  # an (H, W) image is its one channel
        flat = tmp_path / "flat.ppm"
        write_ppm(flat, img[:, :, 0])
        assert flat.read_bytes() == path.read_bytes()


def test_ppm_rejects_bad_shapes_and_headers(tmp_path):
    path = tmp_path / "img.ppm"
    for shape in ((4, 4, 2), (4,), (2, 2, 2, 1)):
        with pytest.raises(ValueError, match="expected"):
            write_ppm(path, np.zeros(shape))
    path.write_bytes(b"P3\n4 4\n255\n" + bytes(48))
    with pytest.raises(ValueError, match="unsupported pixmap header"):
        read_ppm(path)


def test_blob_template_oracle_from_config():
    cfg = load_json(CONFIGS / "distill_splats.json")
    oracle = build_oracle(cfg)
    assert oracle.dim == 256
    direct = gaussian_blob_template(16, 16, 1, (-0.45, 0.0), 0.35, 0.9)
    assert np.array_equal(oracle.means[0], direct)


def test_unknown_generator_kind_raises(tmp_path):
    cfg = tweak_config(tmp_path, "eta_sweep.json", **{"generator.kind": "mesh"})
    assert main(["eta-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


SPLAT = {"center": [0.0, 0.0], "log_scale": [-1.0, -1.0], "rotation": 0.0,
         "color": [0.5], "logit_opacity": 0.0}


@pytest.mark.parametrize("generator, key", [
    ({"truncate_sigma": 3.0}, "generator.truncate_sigma"),
    ({"splats": [SPLAT, dict(SPLAT, opacity=1.0)]}, "generator.splats[1].opacity"),
    ({"splats": [dict(SPLAT, center=[0.0, 0.0, 0.0])]}, "generator.splats[0].center"),
    ({"splats": [dict(SPLAT, log_scale=[-1.0])]}, "generator.splats[0].log_scale"),
    ({"splats": [SPLAT] * 3 + [dict(SPLAT, color=[0.5, 0.5, 0.5])]},
     "generator.splats[3].color"),
    ({"splats": [dict(SPLAT, color=[1.5])]}, "generator.splats[0].color"),
])
def test_bad_generator_section_exits_one(tmp_path, capsys, generator, key):
    cfg = tweak_config(tmp_path, "distill_splats.json",
                       **{f"generator.{k}": v for k, v in generator.items()})
    assert main(["distill", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_splat_distill_matches_recorded_reference(tmp_path):
    """A 300-iteration splat distillation reproduces the outputs recorded from
    the per-splat renderer at commit f58c6ec: integer columns and oracle calls
    exactly, floats to 1e-8 relative, since the vectorised compositor sums in
    a different order."""
    ref = json.loads((Path(__file__).parent / "data" / "splat_distill_300.json").read_text())
    cfg = tweak_config(tmp_path, "distill_splats.json",
                       **{"distill.iterations": ref["iterations"]})
    out = tmp_path / "out"
    assert main(["distill", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for key, values in ref["int_columns"].items():
        assert [int(r[key]) for r in rows] == values
    for key, values in ref["float_columns"].items():
        np.testing.assert_allclose([float(r[key]) for r in rows], values, rtol=1e-8, atol=0)
    report = json.loads((out / "report.json").read_text())
    for key, value in ref["report"].items():
        assert report[key] == (pytest.approx(value, rel=1e-8, abs=0)
                               if isinstance(value, float) else value)


@pytest.mark.parametrize("name, kind, key", [
    ("distill_identity.json", "distill", "distill.delta_t_start"),
    ("distill_identity.json", "distill", "schedule.beta_strat"),
    ("distill_identity.json", "distill", "distill.optimizer.stepsize"),
    ("race.json", "race", "experiment.seed"),
    ("gradcheck.json", "gradcheck", "guidance.scael"),
    ("distill_splats.json", "distill", "jitter.rotation"),
])
def test_misspelled_key_exits_one(tmp_path, capsys, name, kind, key):
    cfg = tweak_config(tmp_path, name, **{key: 3})
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("name, kind, key, value", [
    ("race.json", "race", "distill.iterations", "many"),
    ("distill_splats.json", "distill", "guidance.negative", ["left"]),
    ("gradcheck.json", "gradcheck", "experiment.checks", ["score_fd", "nope"]),
    ("distill_identity.json", "distill", "distill.iterations", 2.7),
    ("distill_identity.json", "distill", "distill.view_batch", True),
    ("distill_identity.json", "distill", "distill.snapshot_every", -1),
    ("distill_identity.json", "distill", "distill.delta_S", 2.5),
    ("distill_identity.json", "distill", "distill.t_min", 0),
    ("distill_identity.json", "distill", "schedule.T", 1),
    ("race.json", "race", "experiment.threshold", float("nan")),
    ("distill_identity.json", "distill", "oracle.dim", 2.7),
    ("distill_identity.json", "distill", "oracle.components[0].sigma", -1),
    ("distill_identity.json", "distill", "oracle.components[0].sigma", 1e300),
    ("distill_splats.json", "distill", "oracle.components[0].mean.center", [1e300, 0]),
    ("distill_splats.json", "distill", "jitter.rotation_max", float("nan")),
    ("distill_splats.json", "distill", "view.width", 1e300),
    ("distill_splats.json", "distill", "generator.n_splats", 1e12),
    ("consistency.json", "consistency", "experiment.noise_draws", 1),
    ("race.json", "race", "experiment.seeds", [3]),
    ("race.json", "race", "experiment.seeds", [0, 0]),
    ("interval_sweep.json", "interval-sweep", "experiment.delta_T_values", [10, 5000]),
    ("gradcheck.json", "gradcheck", "schedule.T", 50),
    ("distill_identity.json", "distill", "schedule.beta_end", 0.99),
    ("distill_identity.json", "distill", "oracle.components",
     [{"weight": 1e308, "mean": [1.0, 0.0]}, {"weight": 1e308, "mean": [-1.0, 0.0]}]),
    ("distill_identity.json", "distill", "oracle.components",
     [{"weight": 1e-200, "mean": [1.0, 0.0]}, {"weight": 1e200, "mean": [-1.0, 0.0]}]),
    ("eta_sweep.json", "eta-sweep", "oracle.components[0].mean", [1e300, 0.0]),
    ("quality.json", "quality", "oracle.components[0].mean", [1e300, 0.0]),
    ("gradcheck.json", "gradcheck", "oracle.components[0].mean", [1e300, 0.0]),
    ("distill_splats.json", "distill", "generator.background", [5.0]),
    ("distill_splats.json", "distill", "jitter.zoom_min", 1e-7),
    ("quality.json", "quality", "experiment.start_points", 2 ** 23),
    ("consistency.json", "consistency", "experiment.noise_draws", 2 ** 23),
])
def test_bad_value_exits_one(tmp_path, capsys, name, kind, key, value):
    """A wrong-typed or out-of-range value, an unknown guidance label or
    gradcheck name, or a value a kind cannot run is a config error naming its
    key, raised before anything runs and without a numpy warning: a fraction
    is not truncated, a bool not read as a number, NaN not accepted, and a
    size numpy cannot allocate is refused before allocation, as is a value
    too large to square, a schedule whose alpha_bar_T underflows to 0,
    weights whose sum overflows, a color outside [0, 1] and a zoom too small
    to solve a view for."""
    cfg = tweak_config(tmp_path, name, **{key: value})
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and key in err
    assert not out.exists()


@pytest.mark.parametrize("name, kind, key, value", [
    ("quality.json", "quality", "view.widht", 16),
    ("quality.json", "quality", "jitter.zoom_mn", 1.0),
    ("gradcheck.json", "gradcheck", "generator.kindd", "identity"),
    ("gradcheck.json", "gradcheck", "jitter.rotaton_max", 0.1),
    ("gradcheck.json", "gradcheck", "distill.optimizer.beta1", 1.5),
    ("quality.json", "quality", "schedule.T", 1e300),
])
def test_sections_a_kind_does_not_use_are_still_checked(tmp_path, capsys, name, kind, key,
                                                        value):
    """Every section present is built for every kind, so a misspelled key or an
    out-of-range value in a section the kind never reads is a one-line config
    error naming the key, not a silent default."""
    cfg = tweak_config(tmp_path, name, **{key: value})
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and key in err
    assert not out.exists()


def test_misspelled_component_key_exits_one(tmp_path, capsys):
    cfg = load_json(CONFIGS / "distill_identity.json")
    cfg["oracle"]["components"][1]["sigm"] = 0.2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["distill", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "oracle.components[1].sigm" in capsys.readouterr().err

    # keys of a template mean object: a misspelled one would otherwise run
    # silently with its default
    cfg = load_json(CONFIGS / "distill_splats.json")
    cfg["oracle"]["components"][1]["mean"]["sigam"] = 0.1
    path.write_text(json.dumps(cfg))
    assert main(["distill", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "oracle.components[1].mean.sigam" in err

    cfg = load_json(CONFIGS / "distill_splats.json")
    cfg["oracle"]["components"][1]["mean"]["template"] = "gaussian_blub"
    path.write_text(json.dumps(cfg))
    assert main(["distill", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "'gaussian_blub'" in err and "oracle.components[1].mean" in err


SECTION_TYPOS = {"schedule": "schedul", "oracle": "orcale", "guidance": "guidence",
                 "view": "veiw", "jitter": "jiter", "generator": "generater",
                 "distill": "distil", "experiment": "experiments"}


@pytest.mark.parametrize("section, typo", SECTION_TYPOS.items())
def test_misspelled_section_is_a_one_line_config_error(tmp_path, capsys, section, typo):
    """A top-level key other than the eight section names is a config error
    naming it, raised before anything runs; a misspelled `distill` section no
    longer runs 1000 default iterations."""
    cfg = load_json(CONFIGS / "distill_identity.json")
    cfg[typo] = cfg.pop(section, {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["distill", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: unknown config key {typo}"]
    assert not out.exists()


@pytest.mark.parametrize("text", ["[]", "null", '"race"', "3", '[{"schedule": {}}]'])
def test_top_level_value_other_than_an_object_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["race", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: the top level of a config must be an object"]


@pytest.mark.parametrize("kind, name", [("consistency", "consistency.json"),
                                        ("quality", "quality.json"),
                                        ("eta-sweep", "eta_sweep.json")])
@pytest.mark.parametrize("t", [2000, 1001, 0, -5])
def test_timestep_outside_the_schedule_is_a_one_line_config_error(tmp_path, capsys, kind,
                                                                  name, t):
    """Was an IndexError traceback, or for eta-sweep at 0 an exit 0 with an
    empty eta_sweep.csv."""
    cfg = tweak_config(tmp_path, name, **{"experiment.t_values": [200, t]})
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: need every experiment.t_values entry in [1, schedule.T], "
        f"got [200, {t}], 1000"]
    assert not out.exists()


def test_timesteps_are_checked_only_for_the_kinds_that_read_them():
    for kind, name in [("consistency", "consistency.json"), ("quality", "quality.json"),
                       ("eta-sweep", "eta_sweep.json")]:
        cfg = load_json(CONFIGS / name)
        cfg["experiment"].update(t_values=[1, 1000], delta_S_values=[1])
        assert build_experiment(cfg, kind).t_values == [1, 1000]
    for kind, name in [("race", "race.json"), ("gradcheck", "gradcheck.json"),
                       ("interval-sweep", "interval_sweep.json")]:
        cfg = load_json(CONFIGS / name)
        cfg["experiment"]["t_values"] = [2000]
        assert build_experiment(cfg, kind).t_values == [2000]


@pytest.mark.parametrize("key", ["experiment.delta_T_values", "experiment.delta_S_values"])
@pytest.mark.parametrize("value", [0, -1, 2.5, True, "50"])
def test_grid_step_other_than_a_positive_int_is_a_one_line_config_error(tmp_path, capsys,
                                                                        key, value):
    cfg = tweak_config(tmp_path, "quality.json", **{key: [50, value]})
    assert main(["quality", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: bad value for config key {key}: must be a finite int > 0, got {value!r}"]


@pytest.mark.parametrize("name, kind, key, value, bad, bound", [
    ("distill_splats.json", "distill", "distill.seed", -1, -1, ">= 0"),
    ("distill_splats.json", "distill", "generator.init_seed", -1, -1, ">= 0"),
    ("race.json", "race", "experiment.seeds", [0, -1], -1, ">= 0"),
    ("quality.json", "quality", "experiment.start_points", 0, 0, "> 0 and < 16777216"),
    ("quality.json", "quality", "experiment.start_points", -1, -1, "> 0 and < 16777216"),
])
def test_negative_seed_or_no_start_points_is_a_one_line_config_error(
        tmp_path, capsys, name, kind, key, value, bad, bound):
    """Was a numpy traceback for a negative seed, and for start_points 0 an
    exit 0 with NaN rows."""
    cfg = tweak_config(tmp_path, name, **{key: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: bad value for config key {key}: must be a finite int {bound}, got {bad!r}"]


def test_consistency_stride_above_a_timestep_is_a_one_line_config_error(tmp_path, capsys):
    cfg = tweak_config(tmp_path, "consistency.json",
                       **{"experiment.t_values": [100, 30], "experiment.delta_S_values": [50]})
    assert main(["consistency", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: need experiment.delta_S_values[0] <= every experiment.t_values entry "
        "for consistency, got 50, 30"]


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_configs_have_no_unknown_keys(name):
    cfg = load_json(CONFIGS / name)
    build_experiment(cfg, "distill" if name.startswith("distill") else name.split(".")[0])
    build_jitter(cfg)
    if "generator" in cfg:
        build_generator(cfg)


@pytest.mark.parametrize("kind, name, tweaks, run", [
    ("distill", "distill_identity.json", {"distill.objective": "ism"},
     "of the ism run with seed=0, delta_T=200, delta_S=50"),
    ("distill", "distill_identity.json", {"distill.objective": "sds"},
     "of the sds run with seed=0, delta_T=200, delta_S=50"),
    ("distill", "distill_identity.json", {"distill.objective": "naive"},
     "of the naive run with seed=0, delta_T=200, delta_S=50"),
    ("race", "race.json", {"experiment.seeds": [3, 4]}, "of the ism run with seed=3, "),
    ("interval-sweep", "interval_sweep.json", {"experiment.delta_T_values": [100],
                                               "experiment.delta_S_values": [200]},
     ", delta_T=100, delta_S=200"),
    *[(kind, name, {"generator.theta": [0.3, -0.2], "guidance.scale": 1e300}, None)
      for kind, name in (("consistency", "consistency.json"), ("eta-sweep", "eta_sweep.json"),
                         ("gradcheck", "gradcheck.json"))],
], ids=["ism", "sds", "naive", "race", "interval-sweep", "consistency", "eta-sweep",
        "gradcheck"])
def test_numerical_failure_exits_three_with_partial_metrics(tmp_path, capsys, kind, name,
                                                           tweaks, run):
    """An identity latent at 1e200 overflows |x - mu|^2 in the two-component
    unconditional branch, and a guidance scale of 1e300 the guided prediction:
    the run stops with exit code 3, one stderr line and no numpy warning,
    whatever the kind. In a distillation the line names the iteration and the
    failing run (the race's seed and objective, the interval-sweep's grid
    cell), and a metrics.csv holds the rows logged before the failure."""
    cfg = tweak_config(tmp_path, name, **{"generator.theta": [1e200, 1e200],
                                          "distill.iterations": 5, **tweaks})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert not (out / "report.json").exists()
    if run is None:  # no distillation: no run to name and no metrics
        return
    assert "at iteration 0, t=" in err and run in err
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_CSV_HEADER
    assert len(rows) - 1 < 5
