import copy
import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismlab import cli, experiments
from ismlab.config import load_json
from ismlab.errors import ConfigError, NumericalError
from ismlab.experiments import (
    CONSISTENCY_CSV_HEADER,
    ETA_CSV_HEADER,
    GRADCHECK_CSV_HEADER,
    GRADIENTS_CSV_HEADER,
    INTERVAL_CSV_HEADER,
    QUALITY_CSV_HEADER,
    RACE_CSV_HEADER,
    RACE_SUMMARY_CSV_HEADER,
    _median_crossing,
    build_experiment,
    run_consistency,
    run_distillations,
    run_eta_sweep,
    run_gradcheck,
    run_interval_sweep,
    run_quality,
    run_race,
    write_report,
)
from ismlab.generators import canonical_view
from ismlab.objectives import interval_pieces, ism_gradient, naive_gradient
from test_recorded_reports import CASES as RECORDED

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def load_spec(name, kind, **tweaks):
    cfg = load_json(CONFIGS / name)
    for key, value in tweaks.items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    return build_experiment(cfg, kind)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_consistency_deterministic_branch_has_zero_spread(tmp_path):
    spec = load_spec("consistency.json", "consistency",
                     **{"experiment.noise_draws": 6,
                        "experiment.t_values": [300, 700]})
    report = run_consistency(spec)
    assert report.summary["ism_noise_variance"] == [0.0, 0.0]
    assert all(v > 0 for v in report.summary["sds_noise_variance"])
    write_report(report, tmp_path)
    rows = read_csv(tmp_path / "consistency.csv")
    assert tuple(rows[0]) == CONSISTENCY_CSV_HEADER
    assert len(rows) == 3
    assert json.loads((tmp_path / "report.json").read_text())["kind"] == "consistency"


def test_consistency_single_component_variance_matches_closed_form(schedule):
    # mean-started single component: the one-step clean target is
    # mu + gamma(t) * (ab sigma^2 / v) * noise, so its spread has a closed form
    spec = load_spec("consistency.json", "consistency",
                     **{"experiment.noise_draws": 4096,
                        "experiment.t_values": [400],
                        "oracle.components": [
                            {"weight": 1.0, "mean": [0.4, -0.2], "sigma": 0.5}],
                        "oracle.labels": {"m": [0]},
                        "guidance.positive": "m",
                        "guidance.scale": 1.0,
                        "generator.theta": [0.4, -0.2]})
    report = run_consistency(spec)
    t = 400
    ab = spec.schedule.ab[t]
    v = ab * 0.25 + (1 - ab)
    gamma = spec.schedule.nsr[t]
    expected = 2 * (gamma * ab * 0.25 / v) ** 2
    rel_sd = np.sqrt(2.0 / (2 * 4096))
    assert report.summary["sds_noise_variance"][0] == pytest.approx(expected, rel=5 * rel_sd)


def test_consistency_rejects_single_draw():
    with pytest.raises(ConfigError, match="experiment.noise_draws"):
        load_spec("consistency.json", "consistency", **{"experiment.noise_draws": 1})


VARIANCE, DISTANCE = experiments._variance, experiments.nearest_mode_distance


@pytest.mark.parametrize("name, fake, stat", [
    ("_variance", lambda p: VARIANCE(p) if p.ndim == 3 else np.float64(math.inf),
     "sds_across_t_variance"),  # the spread of the per-t means, not of each t's draws
    ("nearest_mode_distance", lambda o, label, x: math.inf if np.ndim(x) == 1
     else DISTANCE(o, label, x), "sds_mean_target_mode_distance"),  # a point's distance
    ("nearest_mode_distance", lambda o, label, x: DISTANCE(o, label, x) if np.ndim(x) == 1
     else [math.inf] * len(x), "sds_mean_of_target_distances"),  # the rows' distances
], ids=["across-t", "point-distance", "row-distances"])
def test_consistency_refuses_a_non_finite_statistic(monkeypatch, name, fake, stat):
    """The first spread or distance that is not finite is a NumericalError
    naming it; only a per-timestep spread (test_cli) also names its t. Here one
    statistic is made infinite while the ones before it stay finite."""
    spec = load_spec("consistency.json", "consistency", **{"experiment.noise_draws": 4})
    monkeypatch.setattr(experiments, name, fake)
    with pytest.raises(NumericalError) as exc:
        run_consistency(spec)
    assert str(exc.value) == f"non-finite {stat}"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf),
                                 np.float64(math.nan)], ids=["inf", "-inf", "nan", "np-inf",
                                                             "np-nan"])
def test_report_refuses_its_first_non_finite_float(bad):
    """A table's first non-finite float names its column and the row's cells
    before its first float; a summary's names its key. Tables come first."""
    header = ("t", "objective", "err", "calls", "ratio")
    rows = [(1, "ism", 0.5, 3, None), (7, "sds", 0.25, 4, bad), (9, "ism", bad, 5, 1.0)]
    with pytest.raises(NumericalError) as exc:
        experiments.Report({"kind": "k", "norm": bad}, {"other": (header[:1], [(2,)]),
                                                        "table": (header, rows)})
    assert str(exc.value) == "non-finite ratio at t=7, objective=sds"
    with pytest.raises(NumericalError) as exc:
        experiments.Report({"kind": "k", "rows": [bad], "ok": 1.0, "norm": bad, "last": bad})
    assert str(exc.value) == "non-finite norm"
    with pytest.raises(NumericalError) as exc:  # a row that starts with its float
        experiments.Report({}, {"table": (("err", "t"), [(bad, 2)])})
    assert str(exc.value) == "non-finite err"


def test_report_accepts_other_cells_and_refuses_a_nan_gradcheck_error():
    """Ints, bools, None and strings are not checked, and every table is held
    to the one rule: a gradcheck's NaN or infinite max_error is refused like
    any other column's (run_gradcheck writes a failed check's non-finite
    error as None). A Report's failed list is not part of its summary."""
    rows = [(0, True, None, "sds", np.int64(2 ** 62), 1e308)]
    report = experiments.Report({"kind": "k", "n": 10 ** 400, "flag": False, "label": None},
                                {"table": (("a", "b", "c", "d", "e", "f"), rows)})
    assert report.tables["table"][1] == rows and report.failed == []
    for bad in (math.nan, np.float64(math.inf)):
        with pytest.raises(NumericalError, match="^non-finite max_error at check=score_fd$"):
            experiments.Report({"kind": "gradcheck"}, {"gradcheck": (GRADCHECK_CSV_HEADER, [
                ("score_fd", bad, 1e-5, False)])}, failed=["score_fd"])
    assert experiments.Report({"kind": "gradcheck"}, {"gradcheck": (GRADCHECK_CSV_HEADER, [
        ("score_fd", None, 1e-5, False)])}, failed=["score_fd"]).summary == {"kind": "gradcheck"}
    with pytest.raises(NumericalError, match="^non-finite tolerance at check=score_fd$"):
        experiments.Report({}, {"gradcheck": (GRADCHECK_CSV_HEADER, [
            ("score_fd", 0.0, math.inf, True)])})


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_every_kinds_summary_is_strict_json(case):
    """Every kind's Report, on the recorded reports' small configs, has a
    summary that JSON without NaN or Infinity can hold."""
    kind, name, overrides = RECORDED[case]
    report = cli.RUNNERS[kind](load_spec(name, kind, **overrides))
    json.dumps(report.summary, allow_nan=False)


def test_quality_low_noise_estimates_agree(tmp_path):
    spec = load_spec("quality.json", "quality",
                     **{"experiment.t_values": [50, 900],
                        "experiment.start_points": 6})
    report = run_quality(spec)
    assert [r[0] for r in report.summary["rows"]] == [50, 900]
    t50, t900 = report.summary["rows"]
    assert t50[1] == pytest.approx(t50[2], abs=0.05)   # near-exact at low noise
    assert t900[2] < t900[1]                           # multi-step wins at high noise
    write_report(report, tmp_path)
    rows = read_csv(tmp_path / "quality.csv")
    assert tuple(rows[0]) == QUALITY_CSV_HEADER


def test_quality_single_component_near_exact():
    spec = load_spec("quality.json", "quality",
                     **{"experiment.t_values": [100, 500, 900],
                        "experiment.start_points": 5,
                        "oracle.components": [
                            {"weight": 1.0, "mean": [0.5, 0.5], "sigma": 0.0001}],
                        "oracle.labels": {"m": [0]},
                        "guidance.positive": "m"})
    report = run_quality(spec)
    for row in report.summary["rows"]:
        assert row[1] < 1e-3 and row[2] < 1e-3


def test_eta_sweep_identities_and_costs(tmp_path):
    spec = load_spec("eta_sweep.json", "eta-sweep",
                     **{"experiment.t_values": [100, 400],
                        "experiment.delta_T_values": [25, 100]})
    report = run_eta_sweep(spec)
    by_key = {(r[0], r[1]): r for r in report.summary["rows"]}
    # full-span interval rows have no telescoping bias
    assert by_key[(100, 100)][2] < 1e-12
    for row in report.summary["rows"]:
        assert row[5] < 1e-9                 # decomposition residual
        if row[7] is not None:
            assert row[7] < row[6]           # interval cheaper than multi-step
    assert report.failed == []
    write_report(report, tmp_path)
    rows = read_csv(tmp_path / "eta_sweep.csv")
    assert tuple(rows[0]) == ETA_CSV_HEADER
    grads = read_csv(tmp_path / "gradients.csv")
    assert grads[0] == ["t", "s", "grad_norm", "oracle_calls", "objective"]
    assert {r[4] for r in grads[1:]} <= {"naive", "ism"}


def test_eta_sweep_gradient_rows_are_direct_objective_calls(tmp_path):
    """Each gradients.csv row is one objective at its cell: s = t - delta_T
    (the multi-step grid's node below t), the norm of a direct call to the
    bit, the cell's calls, naive before ism; a cell whose ism interval is
    empty (delta_T = t) has the naive row only, and one whose s is below
    delta_S inverts to s in one hop."""
    spec = load_spec("eta_sweep.json", "eta-sweep",
                     **{"experiment.t_values": [50, 100, 400],
                        "experiment.delta_T_values": [25, 75, 100]})
    report = run_eta_sweep(spec)
    write_report(report, tmp_path)
    grads = read_csv(tmp_path / "gradients.csv")
    assert tuple(grads[0]) == GRADIENTS_CSV_HEADER
    sch, oracle, g, ds = spec.schedule, spec.oracle, spec.guidance, spec.delta_S_values[0]
    x0 = spec.generator.render(canonical_view(spec.jitter.width, spec.jitter.height))
    expected = []
    for t, dt, *_, naive_calls, ism_calls in report.summary["rows"]:
        assert interval_pieces(oracle, sch, x0, t, dt, g).grid[-2] == t - dt
        expected.append((t, t - dt, naive_gradient(oracle, sch, x0, t, dt, g), naive_calls,
                         "naive"))
        if ism_calls is not None:
            expected.append((t, t - dt, ism_gradient(oracle, sch, x0, t, dt, ds, g), ism_calls,
                             "ism"))
    cells = [(r[0], r[1]) for r in report.summary["rows"]]
    assert cells == [(50, 25), (100, 25), (100, 75), (100, 100),
                     (400, 25), (400, 75), (400, 100)]
    assert [r[7] is None for r in report.summary["rows"]] == [
        False, False, False, True, False, False, False]
    assert len(grads) - 1 == len(expected) == 13
    for row, (t, s, direct, calls, name) in zip(grads[1:], expected):
        assert (int(row[0]), int(row[1]), row[4]) == (t, s, name)
        assert float(row[2]) == float(np.linalg.norm(direct.grad_x0))
        assert int(row[3]) == calls == direct.oracle_calls


# A one-component oracle with the view at its mean, at scale 1: the interval
# score of the delta_T = 50 cells is rounding dust (norms near 1e-17).
DUST = {"oracle.components": [{"mean": [0.3, -0.2], "sigma": 0.3}],
        "oracle.labels": {"m": [0]}, "guidance.positive": "m", "guidance.scale": 1.0,
        "generator.theta": [0.3, -0.2], "experiment.t_values": [200, 400],
        "experiment.delta_T_values": [50, 100]}


def test_eta_sweep_interval_norm_is_the_scaled_interval():
    """Each cell's interval_norm is the norm of gamma(t) times its pieces'
    interval bit for bit, rounding dust included, and ratio divides eta_norm
    by it."""
    spec = load_spec("eta_sweep.json", "eta-sweep", **DUST)
    sch, oracle, g = spec.schedule, spec.oracle, spec.guidance
    x0 = spec.generator.render(canonical_view(spec.jitter.width, spec.jitter.height))
    rows = run_eta_sweep(spec).summary["rows"]
    assert [r[:2] for r in rows] == [(200, 50), (200, 100), (400, 50), (400, 100)]
    for t, dt, eta_norm, interval_norm, ratio, *_ in rows:
        interval = interval_pieces(oracle, sch, x0, t, dt, g).interval
        assert interval_norm == float(np.linalg.norm(sch.nsr[t] * interval)), (t, dt)
        assert ratio == (eta_norm / interval_norm if interval_norm > 0 else None)
    assert [r[3] > 0 for r in rows] == [True, False, True, False]


@pytest.mark.parametrize("kind", sorted(cli.RUNNERS))
def test_every_kind_leaves_the_built_generator_unchanged(kind):
    """A kind that only renders spec.generator renders it as built and one
    that distils optimises a copy per run, so its parameters keep their bits."""
    spec = load_spec("distill_splats.json", kind,
                     **{"distill.iterations": 3, "experiment.t_values": [200],
                        "experiment.delta_T_values": [50], "experiment.noise_draws": 2,
                        "experiment.seeds": [0, 1], "experiment.start_points": 2,
                        "experiment.checks": ["gradient_forms"]})
    before = spec.generator.get_params()
    cli.RUNNERS[kind](spec)
    assert spec.generator.get_params().tobytes() == before.tobytes()


def test_interval_sweep_costs_and_determinism(tmp_path):
    spec = load_spec("interval_sweep.json", "interval-sweep",
                     **{"distill.iterations": 40,
                        "experiment.delta_T_values": [50],
                        "experiment.delta_S_values": [50, 200]})
    report = run_interval_sweep(spec)
    again = run_interval_sweep(spec)
    assert [r[:4] for r in report.summary["rows"]] == [r[:4] for r in again.summary["rows"]]
    by_ds = {r[1]: r for r in report.summary["rows"]}
    assert by_ds[200][3] < by_ds[50][3]      # larger stride, fewer evaluations
    write_report(report, tmp_path)
    rows = read_csv(tmp_path / "interval_sweep.csv")
    assert tuple(rows[0]) == INTERVAL_CSV_HEADER


def test_interval_sweep_takes_no_snapshots(monkeypatch):
    """A sweep writes each cell's final frame only, so its runs snapshot nothing
    even when the spec's distill section asks for snapshots."""
    spec = load_spec("distill_splats.json", "interval-sweep",
                     **{"distill.iterations": 4, "distill.snapshot_every": 2,
                        "generator.n_splats": 4, "experiment.delta_T_values": [50],
                        "experiment.delta_S_values": [50, 100]})
    assert spec.distill.snapshot_every == 2
    runs, run = [], experiments.run_distillation

    def recorded(gen, oracle, schedule, cfg):
        runs.append((cfg, run(gen, oracle, schedule, cfg)))
        return runs[-1][1]

    monkeypatch.setattr(experiments, "run_distillation", recorded)
    report = run_interval_sweep(spec)
    assert len(runs) == 2
    assert all(cfg.snapshot_every == 0 and set(log.frames) == {"final"} for cfg, log in runs)
    assert set(report.frames) == {"final_dT50_dS50", "final_dT50_dS100"}


def test_interval_sweep_wall_time_is_each_logs_last(monkeypatch):
    """A sweep row's wall_time is the last metrics.csv wall_time of its cell's
    run, and 0.0 for a cell of 0 iterations, whose column is empty."""
    logs, run = [], experiments.run_distillation

    def recorded(gen, oracle, schedule, cfg):
        logs.append(run(gen, oracle, schedule, cfg))
        return logs[-1]

    monkeypatch.setattr(experiments, "run_distillation", recorded)
    for iterations in (3, 0):
        logs.clear()
        spec = load_spec("interval_sweep.json", "interval-sweep",
                         **{"distill.iterations": iterations,
                            "experiment.delta_S_values": [50, 200]})
        rows = run_interval_sweep(spec).summary["rows"]
        assert len(rows) == len(logs) == 6
        assert [r[4] for r in rows] == [(log.columns["wall_time"] or [0.0])[-1] for log in logs]
        assert all(type(r[4]) is float and (r[4] > 0.0) == (iterations > 0) for r in rows)


def test_run_distillations_runs_each_cell_on_a_copy():
    """Each cell's log is a direct run_distillation of spec.distill with the
    cell's fields replaced, on a deep copy of spec.generator, wall_time aside."""
    spec = load_spec("distill_splats.json", "distill",
                     **{"distill.iterations": 4, "distill.snapshot_every": 2,
                        "generator.n_splats": 4})
    cells = [{}, {"objective": "sds", "seed": 3}, {"delta_S": 100, "snapshot_every": 0},
             {"iterations": 0}]
    before = spec.generator.get_params().tobytes()
    logs = run_distillations(spec, cells)
    assert len(logs) == len(cells)
    for cell, log in zip(cells, logs):
        direct = experiments.run_distillation(copy.deepcopy(spec.generator), spec.oracle,
                                              spec.schedule, replace(spec.distill, **cell))
        for name in set(log.columns) - {"wall_time"}:
            assert log.columns[name] == direct.columns[name], (cell, name)
        assert len(log.columns["wall_time"]) == len(direct.columns["wall_time"])
        assert log.final_mode_distance == direct.final_mode_distance
        assert {k: v.tobytes() for k, v in log.frames.items()} == \
            {k: v.tobytes() for k, v in direct.frames.items()}
    assert spec.generator.get_params().tobytes() == before


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(0, 2 ** 32), min_size=2, max_size=3, unique=True),
       st.integers(0, 6), st.sampled_from(["race.json", "distill_splats.json"]),
       st.floats(0.0, 2.0))
def test_race_equals_one_cell_distill_runs(seeds, iterations, name, threshold):
    """Each race run's curve and crossing equal, bit for bit, those of the
    plain distill kind run on the same replaced config."""
    spec = load_spec(name, "race", **{"distill.iterations": iterations,
                                      "experiment.seeds": seeds,
                                      "experiment.threshold": threshold})
    report = run_race(spec)
    assert list(report.summary["crossings"]) == [f"{seed}:{objective}" for seed in seeds
                                                 for objective in ("ism", "sds")]
    for seed in seeds:
        for objective in ("ism", "sds"):
            cfg = replace(spec.distill, objective=objective, seed=seed, snapshot_every=0)
            one = cli._run_distill(replace(spec, distill=cfg))
            header, rows = one.tables["metrics"]
            curve = [r[header.index("nearest_mode_distance")] for r in rows]
            curve.append(one.summary["final_mode_distance"])
            raced = [r[3] for r in report.tables["race"][1] if r[:2] == (seed, objective)]
            assert np.array(raced).tobytes() == np.array(curve).tobytes()
            crossing = next((i for i, d in enumerate(curve) if d <= threshold), None)
            assert report.summary["crossings"][f"{seed}:{objective}"] == crossing


def test_race_self_consistency(tmp_path):
    spec = load_spec("race.json", "race",
                     **{"distill.iterations": 60,
                        "experiment.seeds": [0, 1],
                        "experiment.threshold": 10.0})
    report = run_race(spec)
    # threshold above the starting distance crosses at iteration zero
    assert all(c == 0 for c in report.summary["crossings"].values())
    write_report(report, tmp_path)
    race_rows = read_csv(tmp_path / "race.csv")
    assert tuple(race_rows[0]) == RACE_CSV_HEADER
    summary = read_csv(tmp_path / "race_summary.csv")
    assert tuple(summary[0]) == RACE_SUMMARY_CSV_HEADER
    assert len(summary) == 3


def test_race_matched_streams(schedule):
    spec = load_spec("race.json", "race", **{"distill.iterations": 50,
                                             "experiment.seeds": [3, 4]})
    report = run_race(spec)
    curves = report.tables["race"][1]
    ism = [r[3] for r in curves if r[:2] == (3, "ism")]
    sds = [r[3] for r in curves if r[:2] == (3, "sds")]
    assert len(ism) == len(sds) == 51
    assert ism[0] == sds[0] == 1.0


@given(st.lists(st.one_of(st.integers(0, 10 ** 6), st.none()), min_size=1, max_size=9),
       st.lists(st.integers(0, 10 ** 6), max_size=3))
def test_median_crossing_is_numpys_median(ism, sds):
    """The race median, a run that never crossed (None) counting as infinite,
    is float(np.median(...)) over that objective's runs, None when not finite."""
    crossings = {**{(seed, "ism"): c for seed, c in enumerate(ism)},
                 **{(seed, "sds"): c for seed, c in enumerate(sds)}}
    median = float(np.median([math.inf if c is None else c for c in ism]))
    got = _median_crossing(crossings, "ism")
    assert got == (median if math.isfinite(median) else None)
    assert got is None or type(got) is float


def test_race_needs_two_seeds():
    with pytest.raises(ConfigError, match="experiment.seeds"):
        load_spec("race.json", "race", **{"experiment.seeds": [3]})


def test_gradcheck_default_passes(tmp_path):
    spec = load_spec("gradcheck.json", "gradcheck")
    report = run_gradcheck(spec)
    assert report.summary["ok"]
    assert {r["check"] for r in report.summary["rows"]} == {
        "score_fd", "renderer_fd", "gradient_forms", "decomposition"}
    write_report(report, tmp_path)
    rows = read_csv(tmp_path / "gradcheck.csv")
    assert tuple(rows[0]) == GRADCHECK_CSV_HEADER


def test_gradcheck_detects_corruption(corrupt_backward):
    spec = load_spec("gradcheck.json", "gradcheck", **{"experiment.checks": ["renderer_fd"]})
    report = run_gradcheck(spec)
    assert not report.summary["ok"]


def test_gradcheck_empty_check_list(tmp_path):
    spec = load_spec("gradcheck.json", "gradcheck",
                     **{"experiment.checks": []})
    report = run_gradcheck(spec)
    assert report.summary["rows"] == [] and report.summary["ok"]
    write_report(report, tmp_path)
    assert len(read_csv(tmp_path / "gradcheck.csv")) == 1


def test_splat_consistency_writes_image_grids(tmp_path):
    spec = load_spec("distill_splats.json", "consistency",
                     **{"experiment.noise_draws": 3,
                        "experiment.t_values": [200, 500],
                        "experiment.delta_S_values": [100]})
    report = run_consistency(spec)
    assert set(report.frames) == {"sds_pseudo_gt_grid", "ism_pseudo_gt_grid", "input_view"}
    write_report(report, tmp_path)
    grids = sorted(p.name for p in (tmp_path / "frames").glob("*.ppm"))
    assert grids == ["input_view.ppm", "ism_pseudo_gt_grid.ppm", "sds_pseudo_gt_grid.ppm"]
