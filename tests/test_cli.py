import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ismlab import cli, experiments, objectives
from ismlab.cli import main
from ismlab.config import (
    build_generator,
    build_jitter,
    build_oracle,
    gaussian_blob_template,
    load_json,
)
from ismlab.distill import METRICS_CSV_HEADER
from ismlab.experiments import Report, build_experiment
from ismlab.objectives import GAP_LIMIT
from ismlab.oracle import MixtureOracle
from ismlab.ppm import write_ppm

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


def strict_json(path):
    """The JSON value in the file at path, refusing NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


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
    """A check whose error is NaN fails, not passes as the 0.0 a running max()
    started from would: its max_error is null in a strict-JSON report.json and
    an empty gradcheck.csv cell, and the stderr line names the check."""
    monkeypatch.setattr(MixtureOracle, "eps_predict",
                        lambda self, schedule, x, t, label=None: np.full(np.shape(x), np.nan))
    cfg = tweak_config(tmp_path, "gradcheck.json", **{"experiment.checks": ["score_fd"]})
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "gradcheck failed: score_fd\n"
    report = strict_json(out / "report.json")
    assert report["ok"] is False
    assert report["rows"] == [{"check": "score_fd", "max_error": None, "tolerance": 1e-5,
                               "passed": False}]
    with open(out / "gradcheck.csv") as fh:
        assert [r["max_error"] for r in csv.DictReader(fh)] == [""]


def test_a_report_with_failed_checks_is_written_then_exits_two(tmp_path, capsys, monkeypatch):
    """Whatever the kind, a runner's Report that names failed checks is
    written in full, then one `<kind> failed: <names>` line, exit 2."""
    report = Report({"kind": "quality", "rows": []}, {"quality": (("t",), [(1,)])},
                    failed=["x"])
    monkeypatch.setitem(cli.RUNNERS, "quality", lambda spec: report)
    out = tmp_path / "out"
    assert main(["quality", "--config", str(CONFIGS / "quality.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "quality failed: x\n"
    assert strict_json(out / "report.json") == {"kind": "quality", "rows": []}
    assert (out / "quality.csv").read_text().splitlines() == ["t", "1"]


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


def failed_cells(out) -> list[str]:
    """The failed-check names an eta-sweep's eta_sweep.csv implies: each cell
    whose decomposition_residual is not below GAP_LIMIT, in row order."""
    with open(out / "eta_sweep.csv") as fh:
        return [f"decomposition at t={r['t']}, delta_T={r['delta_T']} "
                f"(gap {float(r['decomposition_residual']):.3e})"
                for r in csv.DictReader(fh) if not float(r["decomposition_residual"]) < GAP_LIMIT]


def test_steep_eta_sweep_is_a_one_line_check_failure(tmp_path, capsys, monkeypatch):
    """A valid schedule steep enough that double precision cannot hold the
    multi-step estimate within GAP_LIMIT (alpha_bar_T about 1e-46) fails
    eta-sweep's decomposition check in some cells: every cell runs, the three
    files and a strict-JSON report of every cell are written, and one stderr
    line names each failed cell with its gap, exit 2. Of the 16 cells, 11 fail;
    at t 200 and 400, three of eight, all at t=400. Other arithmetic errors
    are not caught."""
    at_400 = [(400, dt) for dt in (10, 25, 50)]
    above_400 = [(t, dt) for t in (600, 800) for dt in (10, 25, 50, 100)]
    for tweaks, cells, n_rows in (({}, at_400 + above_400, 16),
                                  ({"experiment.t_values": [200, 400]}, at_400, 8)):
        cfg = tweak_config(tmp_path, "eta_sweep.json", **tweaks,
                           **{"schedule.beta_start": 0.1, "schedule.beta_end": 0.1})
        out = tmp_path / f"o{n_rows}"
        assert main(["eta-sweep", "--config", str(cfg), "--out", str(out)]) == 2
        names = failed_cells(out)
        assert [n.split(" (")[0] for n in names] == [
            f"decomposition at t={t}, delta_T={dt}" for t, dt in cells]
        assert capsys.readouterr().err == f"eta-sweep failed: {', '.join(names)}\n"
        rows = strict_json(out / "report.json")["rows"]
        assert [tuple(r[:2]) for r in rows if not r[5] < GAP_LIMIT] == cells
        assert len(rows) == n_rows
        assert {p.name for p in out.iterdir()} == {"report.json", "eta_sweep.csv", "gradients.csv"}
    monkeypatch.setitem(cli.RUNNERS, "eta-sweep", lambda spec: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["eta-sweep", "--config", str(cfg), "--out", str(out)])


def test_a_nan_gap_is_a_numerical_failure_of_its_cell(tmp_path, capsys, monkeypatch):
    """A NaN gap is no failed check but a non-finite decomposition_residual,
    which the Report refuses: exit 3, one line naming the first cell, no
    report.json."""
    monkeypatch.setattr(objectives._IntervalPieces, "gap", math.nan)
    cfg = tweak_config(tmp_path, "eta_sweep.json", **{"experiment.t_values": [200]})
    out = tmp_path / "o"
    assert main(["eta-sweep", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical error: non-finite decomposition_residual "
                                       "at t=200, delta_T=10\n")
    assert not (out / "report.json").exists()


def test_race_median_imports_no_numpy_ma(tmp_path):
    """A race in which a run never crosses takes the median of float values,
    for which np.median imports numpy.ma; the race's own median does not."""
    cfg = tweak_config(tmp_path, "race.json", **{"distill.iterations": 20})
    out = tmp_path / "o"
    code = ("import sys; from ismlab.cli import main; "
            f"assert main(['race', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0; "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'")
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert None in json.loads((out / "report.json").read_text())["crossings"].values()


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


@pytest.mark.parametrize("kind, name, tweaks, got", [
    ("race", "distill_identity.json", {}, "need two or more experiment.seeds for a race median, "
     "got [0]"),
    ("quality", "gradcheck.json", {"schedule.T": 400}, "need every experiment.t_values entry in "
     "[1, schedule.T], got [100, 300, 500, 700, 900], 400"),
    ("distill", "distill_splats.json", {"generator": {
        "kind": "splats", "n_splats": 4, "channels": 2, "background": [0.0, 0.5, 0.1]}},
     "need generator.background as long as generator.channels, got [0.0, 0.5, 0.1], 2")],
    ids=["default-seeds", "default-t_values", "array"])
def test_need_prints_a_value_as_a_config_writes_it(tmp_path, capsys, kind, name, tweaks, got):
    """A defaulted list prints as a written one, not as the tuple (0,), and an
    array as a list, not as numpy's [0.  0.5 0.1]."""
    cfg = tweak_config(tmp_path, name, **tweaks)
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {got}"]


def test_eta_sweep_without_a_runnable_cell_is_a_one_line_config_error(tmp_path, capsys):
    cfg = tweak_config(tmp_path, "eta_sweep.json",
                       **{"experiment.t_values": [200], "experiment.delta_T_values": [900]})
    out = tmp_path / "o"
    assert main(["eta-sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: need some experiment.delta_T_values entry <= some experiment.t_values "
        "entry for eta-sweep, got 900, 200"]
    assert not out.exists()


@pytest.mark.parametrize("key, code", [("jitter.rotation_max", 0), ("jitter.shift_max", 3)])
def test_largest_jitter_range_runs_to_its_end(tmp_path, capsys, key, code):
    """The largest range below 2^1023 is accepted: a rotation that large
    runs, and a shift that large moves the scene out of any finite render,
    a one-line numerical error."""
    cfg = tweak_config(tmp_path, "distill_splats.json",
                       **{key: math.nextafter(2 ** 1023, 0), "distill.iterations": 5})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["distill", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err == "" if code == 0 else err.startswith("numerical error: ") and err.count("\n") == 1


FLAT = np.full(256, 0.9)
POINT = np.where(np.arange(256) == 136, 0.9, 0.0)  # 136: the pixel centred on (0.0625, 0.0625)


@pytest.mark.parametrize("sigma, center, expected", [
    (1e300, (0.45, 0.0), FLAT),  # the square overflows
    (1e-300, (0.0625, 0.0625), POINT),  # the square underflows to 0
    (5e-324, (0.0625, 0.0625), POINT),
    (1e-160, (0.0625, 0.0625), POINT),  # a subnormal square
    (1e-160, (0.45, 0.0), np.zeros(256)),  # no pixel on the center
    (1e-100, (1e100, 0.0), np.zeros(256)),  # every quotient overflows
], ids=["flat", "point", "point-5e-324", "point-subnormal", "off-center", "far-center"])
def test_template_sigma_at_either_limit_gives_the_limit_template(tmp_path, capsys, sigma,
                                                                  center, expected):
    """A width too large to square gives the flat template, one whose square
    is 0 or subnormal the point template, bit for bit; each builds and runs
    without a RuntimeWarning."""
    template = gaussian_blob_template(16, 16, 1, center, sigma, 0.9)
    assert template.tobytes() == expected.tobytes()
    blob = {"template": "gaussian_blob", "center": [0.45, 0.0]}
    cfg = tweak_config(tmp_path, "distill_splats.json",
                       **{"distill.iterations": 3, "oracle.components": [
                           {"mean": {**blob, "center": list(center), "sigma": sigma}},
                           {"mean": blob}]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["distill", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@settings(max_examples=200, deadline=None)
@given(sigma=st.floats(2.0 ** -511, 1.3e154),
       center=st.lists(st.floats(-1, 1), min_size=2, max_size=2),
       peak=st.floats(-1e3, 1e3))
def test_template_is_one_formula_between_the_limits(sigma, center, peak):
    """Where sigma squares to a normal double, the template is
    peak * exp(-0.5 * d2 / sigma ** 2) bit for bit, an overflowing quotient
    taken as its limit."""
    xs = (np.arange(16) + 0.5) / 16 * 2.0 - 1.0
    d2 = (xs[None, :] - center[0]) ** 2 + (xs[:, None] - center[1]) ** 2
    with np.errstate(over="ignore"):
        expected = peak * np.exp(-0.5 * d2 / sigma ** 2)
    template = gaussian_blob_template(16, 16, 1, center, sigma, peak)
    assert template.tobytes() == expected.ravel().tobytes()


def test_eta_sweep_outputs(tmp_path):
    cfg = tweak_config(tmp_path, "eta_sweep.json",
                       **{"experiment.t_values": [200],
                          "experiment.delta_T_values": [50, 200]})
    out = tmp_path / "out"
    assert main(["eta-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "eta_sweep.csv").exists()
    assert (out / "gradients.csv").exists()


def test_eta_sweep_ratio_of_a_zero_interval_is_null(tmp_path):
    """An identity latent at the mean of a one-component oracle, unguided
    extrapolation (scale 1): every cell's interval norm is 0, so its ratio is
    JSON null and an empty CSV cell, never the non-JSON Infinity."""
    cfg = tweak_config(tmp_path, "eta_sweep.json",
                       **{"oracle.components": [{"weight": 1.0, "mean": [0.0, 0.0], "sigma": 0.3}],
                          "oracle.labels": {"a": [0]}, "guidance.scale": 1.0,
                          "generator.theta": [0.0, 0.0], "experiment.t_values": [200, 400],
                          "experiment.delta_T_values": [50, 100]})
    out = tmp_path / "out"
    assert main(["eta-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = strict_json(out / "report.json")["rows"]
    assert len(rows) == 4 and all(r[3] == 0.0 and r[4] is None for r in rows)
    with open(out / "eta_sweep.csv") as fh:
        assert [r["ratio"] for r in csv.DictReader(fh)] == [""] * 4


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


@pytest.mark.parametrize("iterations", [0, 3])
def test_initial_mode_distance_is_the_first_metrics_distance(tmp_path, iterations):
    cfg = tweak_config(tmp_path, "distill_splats.json",
                       **{"distill.iterations": iterations, "generator.n_splats": 4})
    out = tmp_path / "out"
    assert main(["distill", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    with open(out / "metrics.csv") as fh:
        curve = [float(r["nearest_mode_distance"]) for r in csv.DictReader(fh)]
    assert len(curve) == iterations
    curve.append(report["final_mode_distance"])
    assert report["initial_mode_distance"] == curve[0]


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
    """The files of each kind, as listed in docs/config.md under Outputs; each
    report.json is strict JSON, with no NaN or Infinity."""
    cfg = tweak_config(tmp_path, name, **tweaks)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == files
    assert strict_json(out / "report.json")["kind"] == kind.replace("-", "_")


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
    raw = path.read_bytes()
    # magic, width, height, maxval, then one whitespace byte before the body
    header = re.match(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
    assert header is not None
    w, h, maxval = map(int, header.groups()[1:])
    assert (header[1], w, h, maxval) == (b"P5" if channels == 1 else b"P6", width, height, 255)
    body = raw[header.end():]
    assert len(body) == width * height * channels
    back = np.frombuffer(body, dtype=np.uint8).reshape(height, width, channels) / maxval
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-9


def test_ppm_rejects_bad_shapes(tmp_path):
    path = tmp_path / "img.ppm"
    for shape in ((4, 4, 2), (4, 4), (4,), (2, 2, 2, 1)):
        with pytest.raises(ValueError, match="expected"):
            write_ppm(path, np.zeros(shape))


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


@pytest.mark.parametrize("name, key, value", [
    ("distill_identity.json", "splats", [{"centre": [0, 0]}]),
    ("distill_identity.json", "n_splats", 5),
    ("distill_splats.json", "theta", [0.0, 0.0])])
def test_generator_key_its_kind_does_not_read_is_a_one_line_config_error(tmp_path, capsys,
                                                                          name, key, value):
    """An identity latent reads only generator.theta, a splat scene every key
    but it; the key the kind ignored was accepted, and the run exited 0."""
    cfg = tweak_config(tmp_path, name, **{f"generator.{key}": value})
    kind = load_json(cfg)["generator"]["kind"]
    out = tmp_path / "o"
    assert main(["distill", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: generator.kind {kind!r} reads no config key generator.{key}"]
    assert not out.exists()


TWO_CHANNELS = {"generator.channels": 2, "distill.iterations": 3,
                "oracle.components[0].mean.channels": 2, "oracle.components[1].mean.channels": 2}


@pytest.mark.parametrize("kind", ["distill", "consistency", "interval-sweep"])
@pytest.mark.parametrize("explicit", [False, True])
def test_frames_of_other_than_1_or_3_channels_are_a_one_line_config_error(
        tmp_path, capsys, kind, explicit):
    """The kinds that write frames refuse a 2-channel image before creating --out."""
    splats = {"generator.splats": [dict(SPLAT, color=[0.5, 0.5])],
              "generator.background": [0.1, 0.2]} if explicit else {}
    cfg = tweak_config(tmp_path, "distill_splats.json", **TWO_CHANNELS, **splats)
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: need generator.channels (generator.background's length with "
        "generator.splats) of 1 or 3 to write frames, got 2"]
    assert not out.exists()


@pytest.mark.parametrize("kind, tweaks", [
    ("race", {"experiment.seeds": [0, 1]}),
    ("eta-sweep", {"experiment.t_values": [200], "experiment.delta_T_values": [50]})])
def test_kinds_that_write_no_frames_accept_2_channels(tmp_path, kind, tweaks):
    cfg = tweak_config(tmp_path, "distill_splats.json", **TWO_CHANNELS, **tweaks)
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    assert not (out / "frames").exists()


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


BLOB_256, BLOB_64 = ({"mean": {"template": "gaussian_blob", "width": w, "height": w}}
                     for w in (256, 64))


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
    ("gradcheck.json", "gradcheck", "experiment.checks", {"score_fd": 1}),
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
    ("distill_identity.json", "distill", "distill.iterations", 1e300),
    ("race.json", "race", "distill.view_batch", 1e300),
    ("distill_splats.json", "distill", "jitter.rotation_max", 2.0 ** 1023),
    ("distill_splats.json", "race", "jitter.rotation_max", 1e308),
    ("distill_splats.json", "interval-sweep", "jitter.shift_max", 2.0 ** 1023),
    ("distill_splats.json", "distill", "jitter.shift_max", 1e308),
    ("gradcheck.json", "gradcheck", "experiment.checks", "score_fd"),
    ("distill_splats.json", "distill", "oracle.components", [BLOB_256] * 300),
    ("consistency.json", "consistency", "experiment.noise_draws", 2 ** 21),
    ("quality.json", "quality", "experiment.start_points", 2 ** 22),
    ("distill_splats.json", "gradcheck", "oracle.components", [BLOB_64] * 2),
    ("distill_splats.json", "distill", "generator.n_splats", 2 ** 15),
    ("distill_splats.json", "interval-sweep", "experiment.delta_T_values", [50, 50]),
    ("interval_sweep.json", "interval-sweep", "experiment.delta_S_values", [50, 100, 50]),
    ("eta_sweep.json", "eta-sweep", "experiment.t_values", [400, 400]),
    ("consistency.json", "consistency", "experiment.t_values", [300, 100, 300]),
    ("quality.json", "quality", "experiment.t_values", [200, 200]),
    ("eta_sweep.json", "eta-sweep", "experiment.delta_T_values", [50, 100, 50]),
    ("gradcheck.json", "gradcheck", "experiment.checks", ["score_fd", "score_fd"]),
    ("distill_identity.json", "distill", "oracle.labels.right", [0, 1, 1]),
])
def test_bad_value_exits_one(tmp_path, capsys, name, kind, key, value):
    """A wrong-typed or out-of-range value, an unknown guidance label or
    gradcheck name, or a value a kind cannot run is a config error naming its
    key, raised before anything runs and without a numpy warning: a fraction
    is not truncated, a bool not read as a number, NaN not accepted, and a
    size numpy cannot allocate is refused before allocation, as is a value
    too large to square, a schedule whose alpha_bar_T underflows to 0,
    weights whose sum overflows, a color outside [0, 1], a zoom too small
    to solve a view for, a run size that would never end, a jitter range
    whose width 2 * r, drawn from by rng.uniform(-r, r), overflows, and runs
    whose (rows, K, D) oracle arrays, score_fd's (D, K, D) ones or splat
    planes would hold 2^24 values or more. A grid, seed or check list that
    repeats an entry, which ran one cell twice, is refused for every kind, and
    so is a label that repeats a component, which weighed it twice."""
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


@pytest.mark.parametrize("data, reason", [
    (b'{"schedule": {"T": 1000}, "note": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100000, "maximum recursion depth exceeded"),
    (b'{"schedule": {"T": ' + b"9" * 5000 + b"}}", "Exceeds the limit (4300 digits)")],
    ids=["not_utf8", "deep_nesting", "long_int"])
def test_unreadable_config_is_a_one_line_config_error(tmp_path, capsys, data, reason):
    """Bytes that are not UTF-8, nesting deeper than the parser recurses and an
    integer literal past Python's digit limit each gave a traceback."""
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    out = tmp_path / "o"
    assert main(["race", "--config", str(path), "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: cannot read config {path}: ") and reason in line
    assert not out.exists()


@pytest.mark.parametrize("after, pairs, key", [
    ('"distill": {', '"iterations": 5, "iterations": 3, ', "distill.iterations"),
    ("{", '"jitter": {}, "jitter": null, ', "jitter"),
    ('{"weight": 0.5, ', '"weight": 0.5, ', "oracle.components[0].weight"),
    ('"labels": {', '"left": [0], ', "oracle.labels.left")])
def test_repeated_key_is_a_one_line_config_error(tmp_path, capsys, after, pairs, key):
    """A key given twice in one JSON object is refused, naming its dotted path;
    the last value was kept, so iterations 5 then 3 ran 3 iterations, exit 0."""
    path = tmp_path / "cfg.json"
    text = (CONFIGS / "distill_identity.json").read_text()
    path.write_text(text.replace(after, after + pairs, 1))
    out = tmp_path / "o"
    assert main(["distill", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: repeated config key {key}"]
    assert not out.exists()


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


def test_consistency_stride_above_a_timestep_is_the_one_hop_walk(tmp_path, capsys,
                                                                  monkeypatch):
    """delta_S above a t_values entry runs: at that t the ISM targets are
    the stride-t walk's, bit for bit."""
    real, targets = experiments.denoise_path, {}

    def spy(oracle, schedule, xt, t, stride, g):
        traj = real(oracle, schedule, xt, t, stride, g)
        targets[t, stride] = traj.latents[-1]
        return traj

    monkeypatch.setattr(experiments, "denoise_path", spy)
    for t_values, stride in (([100, 30], 50), ([30], 30)):
        cfg = tweak_config(tmp_path, "consistency.json", **{
            "experiment.t_values": t_values, "experiment.delta_S_values": [stride]})
        assert main(["consistency", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    assert targets[30, 50].tobytes() == targets[30, 30].tobytes()


@pytest.mark.parametrize("T", [50, 2])
def test_gradcheck_runs_on_a_schedule_shorter_than_its_intervals(tmp_path, T):
    """The decomposition check's intervals (up to 100) may exceed every
    timestep; an interval above t is the one hop [0, t], so all four checks
    run and pass."""
    cfg = tweak_config(tmp_path, "gradcheck.json", **{"schedule.T": T})
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert [(r["check"], r["passed"]) for r in rows] == [
        ("score_fd", True), ("renderer_fd", True), ("gradient_forms", True),
        ("decomposition", True)]


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_configs_have_no_unknown_keys(name):
    cfg = load_json(CONFIGS / name)
    build_experiment(cfg, "distill" if name.startswith("distill") else name.split(".")[0])
    build_jitter(cfg)
    if "generator" in cfg:
        build_generator(cfg)


@pytest.mark.parametrize("kind, name, tweaks, where", [
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
    *[(kind, name, {"generator.theta": [0.3, -0.2], "guidance.scale": 1e300}, where)
      for kind, name, where in (("consistency", "consistency.json", " at t=300"),
                                ("eta-sweep", "eta_sweep.json", " at t=200, delta_T=10"),
                                ("gradcheck", "gradcheck.json", " in the decomposition check"))],
    ("quality", "quality.json", {"guidance.positive": "a", "guidance.scale": 1e300}, " at t=200"),
    *[(kind, name, {"generator.theta": [1e200, 0.0], **tweaks}, f"numerical error: {line}")
      for kind, name, tweaks, line in (
          ("distill", "distill_identity.json", {"distill.iterations": 0},
           "non-finite mode distance at iteration 0 of the ism run with seed=0, "
           "delta_T=200, delta_S=50"),
          ("distill", "distill_identity.json", {"distill.iterations": 3,
                                                "distill.objective": "sds",
                                                "guidance.scale": 1.0},
           "non-finite gradient at iteration 0, t=830 of the sds run with seed=0, "
           "delta_T=200, delta_S=50"),
          ("race", "race.json", {"distill.iterations": 0},
           "non-finite mode distance at iteration 0 of the ism run with seed=0, "
           "delta_T=200, delta_S=50"),
          ("interval-sweep", "interval_sweep.json", {"distill.iterations": 0},
           "non-finite mode distance at iteration 0 of the ism run with seed=0, "
           "delta_T=50, delta_S=50"))],
    *[("consistency", "consistency.json", {"generator.theta": [0.0, 0.0], **tweaks},
       "numerical error: non-finite sds_noise_variance at t=100")
      for tweaks in ({"guidance.scale": 1e154},  # the spreads overflow to inf
                     {"guidance.scale": 1e160, "experiment.delta_S_values": [1000]})],  # NaN
    ("quality", "quality.json", {"guidance.positive": "a", "experiment.delta_T_values": [1000],
                                 "experiment.delta_S_values": [1000], "guidance.scale": 1e300},
     "numerical error: non-finite err_single at t=50"),
    ("eta-sweep", "eta_sweep.json", {"generator.theta": [0.3, -0.2], "experiment.t_values": [200],
                                     "experiment.delta_T_values": [200],
                                     "experiment.delta_S_values": [1000], "guidance.scale": 1e300},
     "numerical error: non-finite interval_norm at t=200, delta_T=200"),
    *[(kind, name, {"generator.theta": [0.0, 0.0], "guidance.scale": 1e154},
       "numerical error: non-finite gradient at iteration 0, t=830 of the ism run with seed=0, "
       f"delta_T={delta_T}, delta_S=50")
      for kind, name, delta_T in (("distill", "distill_identity.json", 200),
                                  ("race", "race.json", 200),
                                  ("interval-sweep", "interval_sweep.json", 50))],
], ids=["ism", "sds", "naive", "race", "interval-sweep", "consistency", "eta-sweep",
        "gradcheck", "quality", "distance-initial", "distance-sds", "distance-race",
        "distance-interval-sweep", "spread-inf", "spread-nan", "report-quality",
        "report-eta-sweep", "report-distill", "frozen-race", "frozen-interval-sweep"])
def test_numerical_failure_exits_three_with_partial_metrics(tmp_path, capsys, kind, name,
                                                           tweaks, where):
    """An identity latent at 1e200 overflows |x - mu|^2 in the two-component
    unconditional branch, and a guidance scale of 1e300 the guided prediction:
    the run stops with exit code 3, one stderr line and no numpy warning,
    whatever the kind, and the line says where. In a distillation it names the
    iteration and the failing run (the race's seed and objective, the
    interval-sweep's grid cell), and a metrics.csv holds the rows logged before
    the failure; otherwise it ends naming the timestep (and interval) or check.
    A latent at (1e200, 0) whose squared mode distance overflows fails at its
    first state without a step; with an SDS step (the one-component ``right``
    label at scale 1 keeps that step's oracle finite) the step's gradient,
    whose entries are finite but whose norm is not, fails first: the whole
    line is given. So it is for consistency at a guidance scale of 1e154, or
    1e160 in one hop, whose targets are finite but whose squared spreads are
    not, and for a one-hop quality estimate and an eta-sweep interval spanning
    its whole cell, both at 1e300, whose points stay finite but whose reports
    would not: their Report refuses its first non-finite column, and a run
    refused there writes no metrics.csv. At 1e154 every distilling kind stops
    its first run at its first step, whose gradient norm overflows (Adam would
    never move again), and keeps that step's row."""
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
    if where.startswith("numerical error: "):
        assert err == f"{where}\n"
    elif kind not in experiments.DISTILL_KINDS:
        assert err == f"numerical error: non-finite input point{where}\n"
    else:
        assert "at iteration 0, t=" in err and where in err
    if kind not in experiments.DISTILL_KINDS or " at iteration " not in err:
        assert not (out / "metrics.csv").exists()  # no distillation failed mid-run
        return
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_CSV_HEADER
    assert len(rows) - 1 < 5


@pytest.mark.parametrize("scale", [1e153, 1e154])
@pytest.mark.parametrize("kind, name, delta_T", [("race", "race.json", 200),
                                                 ("interval-sweep", "interval_sweep.json", 50)])
def test_a_distilling_kind_fails_where_distill_of_its_first_run_fails(tmp_path, capsys, scale,
                                                                     kind, name, delta_T):
    """A guidance scale whose gradient norms overflow stops race and
    interval-sweep at their first run, at the step where distill of that run
    stops (the interval-sweep's first cell is delta_T = 50): the same line,
    and the same metrics.csv apart from wall time."""
    wall = METRICS_CSV_HEADER.index("wall_time")
    seen = []
    for runner, tweaks in ((kind, {}), ("distill", {"distill.delta_T_start": delta_T,
                                                    "distill.delta_T_end": delta_T})):
        cfg = tweak_config(tmp_path, name, **{"guidance.scale": scale, **tweaks})
        out = tmp_path / runner
        assert main([runner, "--config", str(cfg), "--out", str(out)]) == 3
        with open(out / "metrics.csv", newline="") as fh:
            rows = [row[:wall] + row[wall + 1:] for row in csv.reader(fh)]
        seen.append((capsys.readouterr().err, rows))
    assert seen[0] == seen[1]
    assert seen[0][0].startswith("numerical error: non-finite gradient at iteration ")


def test_a_failed_rerun_leaves_no_earlier_report(tmp_path, capsys):
    """A run removes an earlier report.json from its --out before it starts, so
    a failed rerun into the directory of a success leaves its metrics.csv and
    no report; a config error touches nothing under --out."""
    out = tmp_path / "out"
    ok = tweak_config(tmp_path, "distill_identity.json", **{"distill.iterations": 20})
    assert main(["distill", "--config", str(ok), "--out", str(out)]) == 0
    report = (out / "report.json").read_bytes()
    bad_key = tweak_config(tmp_path, "race.json", **{"distill.unknown_key": 1})
    assert main(["distill", "--config", str(bad_key), "--out", str(out)]) == 1
    assert (out / "report.json").read_bytes() == report
    failing = tweak_config(tmp_path, "distill_identity.json",
                           **{"generator.theta": [1e200, 1e200], "distill.iterations": 5})
    assert main(["distill", "--config", str(failing), "--out", str(out)]) == 3
    assert (out / "metrics.csv").exists() and not (out / "report.json").exists()

def leaf_paths(node, prefix=()):
    """Every key path to a value inside a JSON value that is not an object or a list."""
    if not isinstance(node, (dict, list)):
        yield prefix
        return
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield from leaf_paths(value, prefix + (key,))


# (config name, key path, value): -1, 0, 2.5, 1e300 and 1e-300 at every leaf key
# path of every shipped config, 1,365 cases taking about 14 s in all
RUN_PROBE = [(p.name, keys, value) for p in sorted(CONFIGS.glob("*.json"))
             for keys in leaf_paths(load_json(p)) for value in (-1, 0, 2.5, 1e300, 1e-300)]


class Hung(Exception):
    """A probed run outlived its alarm (not an OSError, which main would catch)."""


def hung(signum, frame):
    raise Hung()


@settings(max_examples=375, deadline=None)
@given(case=st.sampled_from(RUN_PROBE))
@example(case=("race.json", ("distill", "iterations"), 1e300))
@example(case=("race.json", ("distill", "view_batch"), 1e300))
@example(case=("distill_splats.json", ("oracle", "components", 0, "mean", "sigma"), 1e-300))
def test_every_accepted_value_runs_or_fails_in_one_line(case):
    """A sample of the run probe: the config with the value at the key path,
    run in process through the config's kind with distill.iterations capped at
    5 unless it is the probed key, ends within its own 20 s alarm and raises
    no RuntimeWarning: it exits 0 with nothing on stderr, or 1, 2 or 3 with
    one stderr line and no traceback."""
    name, keys, value = case
    cfg = load_json(CONFIGS / name)
    if "distill" in cfg:
        cfg["distill"]["iterations"] = min(cfg["distill"].get("iterations", 1000), 5)
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    kind = "distill" if name.startswith("distill") else name.split(".")[0].replace("_", "-")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(cfg))
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                code = main([kind, "--config", str(path), "--out", str(Path(tmp) / "out")])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    assert (code, err) == (0, "") or code in (1, 2, 3) and err.count("\n") == 1, \
        f"exit {code}, stderr {err!r}"
