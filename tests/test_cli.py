import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
from ismlab.ppm import read_ppm, write_ppm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tweak_config(tmp_path, name, **tweaks):
    cfg = load_json(CONFIGS / name)
    for key, value in tweaks.items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
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


def test_gradcheck_failure_exits_two(tmp_path, capsys):
    cfg = tweak_config(tmp_path, "gradcheck.json",
                       **{"experiment.checks": ["renderer_fd"],
                          "experiment.corrupt_renderer_scale": 1.01})
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 2
    assert "renderer_fd" in capsys.readouterr().err


def test_config_error_exits_one(tmp_path, capsys):
    cfg = tweak_config(tmp_path, "gradcheck.json", **{"schedule.T": 1})
    assert main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert main(["gradcheck", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1


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


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_configs_have_no_unknown_keys(name):
    cfg = load_json(CONFIGS / name)
    build_experiment(cfg, "distill" if name.startswith("distill") else name.split(".")[0])
    build_jitter(cfg)
    if "generator" in cfg:
        build_generator(cfg)


@pytest.mark.parametrize("objective", ["ism", "sds", "naive"])
def test_numerical_failure_exits_three_with_partial_metrics(tmp_path, capsys, objective):
    """An identity latent at 1e200 overflows |x - mu|^2 in the two-component
    unconditional branch: the run stops with exit code 3, one stderr line
    naming the iteration, no numpy warning and a metrics.csv of the rows
    logged before the failure."""
    cfg = tweak_config(tmp_path, "distill_identity.json",
                       **{"generator.theta": [1e200, 1e200],
                          "distill.objective": objective, "distill.iterations": 5})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["distill", "--config", str(cfg), "--out", str(out)]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert "at iteration 0, t=" in err
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_CSV_HEADER
    assert len(rows) - 1 < 5
    assert not (out / "report.json").exists()
