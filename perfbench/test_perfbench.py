"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They check the tracer's self-time arithmetic on a synthetic call tree, that
every wrapper point resolves on the current tree (and that a missing one is
reported as absent), span attribution on a real gradient, the host-speed
calibration of wall times, and the helpers the output checks rely on.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import POINTS, Tracer, _resolve  # noqa: E402


@pytest.fixture()
def installed():
    tracer = Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def _synthetic(tree):
    """Tracer holding spans given as (point name, parent, start, end)."""
    names = sorted({n for n, *_ in tree})
    tracer = Tracer(points={n: () for n in names})
    for n, par, s, e in tree:
        tracer.point.append(names.index(n))
        tracer.parent.append(par)
        tracer.start.append(s)
        tracer.end.append(e)
    return tracer


def test_self_time_on_nested_tree():
    # a[0,10] -> b[1,4], c[5,9] -> d[6,7];  a second root e[20,22]
    tracer = _synthetic([("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0),
                         ("c", 0, 5.0, 9.0), ("d", 2, 6.0, 7.0),
                         ("e", -1, 20.0, 22.0)])
    _, _, dur, self_t = tracer.arrays()
    assert dur.tolist() == [10.0, 3.0, 4.0, 1.0, 2.0]
    assert self_t.tolist() == [3.0, 3.0, 3.0, 1.0, 2.0]
    layers = tracer.summarize()
    assert layers["a.self_s"] == 3.0 and layers["c.self_s"] == 3.0
    assert layers["b.calls"] == 1 and layers["d.us_per_call"] == 1e6


def test_wrappers_record_nesting():
    tracer = Tracer(points={"outer": (), "inner": ()})
    inner = tracer.wrap(lambda x: x + 1, 1)
    outer = tracer.wrap(lambda x: inner(inner(x)), 0)
    assert outer(1) == 3
    assert tracer.point == [0, 1, 1] and tracer.parent == [-1, 0, 0]
    _, _, dur, self_t = tracer.arrays()
    assert self_t.sum() == pytest.approx(dur[0], rel=1e-12)
    assert tracer.stack == [-1]


def test_exception_closes_span():
    tracer = Tracer(points={"boom": ()})

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, 0)()
    assert tracer.end[0] >= tracer.start[0] and tracer.stack == [-1]


def test_every_point_resolves(installed):
    assert installed.absent == []
    for targets in POINTS.values():
        for target in targets:
            assert hasattr(_resolve(target)[2], "__wrapped__"), target


def test_every_binding_is_replaced_and_restored():
    import ismlab
    from ismlab import cli, distill, experiments, objectives, oracle, trajectory
    originals = (objectives.ism_gradient, experiments.RUNNERS["race"],
                 oracle.MixtureOracle.eps_predict, trajectory.hop)
    tracer = Tracer()
    tracer.install()
    try:
        assert distill.ism_gradient is objectives.ism_gradient is ismlab.ism_gradient
        assert objectives.ism_gradient is not originals[0]
        assert experiments.RUNNERS["race"] is experiments.run_race is not originals[1]
        assert cli.write_report is experiments.write_report
        assert objectives.invert_along is trajectory.invert_along
    finally:
        tracer.uninstall()
    assert (objectives.ism_gradient, experiments.RUNNERS["race"],
            oracle.MixtureOracle.eps_predict, trajectory.hop) == originals
    assert distill.ism_gradient is originals[0]


def test_missing_point_is_absent_not_zero():
    tracer = Tracer(points={"oracle.eps_predict": ("ismlab.oracle:MixtureOracle.eps_predict",),
                            "gone.fn": ("ismlab.oracle:no_such_function",),
                            "gone.mod": ("ismlab.no_such_module:f",)})
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["ismlab.oracle:no_such_function", "ismlab.no_such_module:f"]
    layers = tracer.summarize()
    assert "oracle.eps_predict.calls" in layers
    assert not any(k.startswith("gone.") for k in layers)


def test_phase_branch_and_ratio_attribution(installed):
    from ismlab import GuidanceSpec, MixtureOracle, ism_gradient, make_schedule, naive_gradient
    sch = make_schedule(1000)
    orc = MixtureOracle(means=[[1.0, 0.0], [-1.0, 0.0]], sigmas=[0.1, 0.1],
                        weights=[0.5, 0.5], labels={"r": [0]})
    g = GuidanceSpec(positive="r", scale=3.0)
    x0 = np.array([0.2, 0.1])
    ism = ism_gradient(orc, sch, x0, 500, 100, 50, g)
    naive = naive_gradient(orc, sch, x0, 500, 100, g)
    layers = installed.summarize()
    total = ism.oracle_calls + naive.oracle_calls
    assert layers["oracle.eps_predict.calls"] == total == orc.eps_evals
    # ism: 8 inversion hops to s = 400 plus the hop to t, then a guided pair at t
    assert layers["oracle.calls.at_t"] == 2
    # naive: 5 inversion hops up to t, 5 guided pairs on the way down
    assert layers["oracle.calls.inversion"] == 9 + 5
    assert layers["oracle.calls.denoise"] == 10
    assert layers["oracle.calls.cond"] == 1 + 5
    assert layers["oracle.calls.uncond"] == total - 6
    assert layers["objectives.oracle_calls_per_grad.ism"] == ism.oracle_calls
    assert layers["objectives.oracle_calls_per_grad.naive"] == naive.oracle_calls
    assert layers["objectives.oracle_calls_per_grad.sds"] == 0.0


def test_configs_are_pure_functions_of_the_seed():
    for make in workloads.CONFIGS.values():
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_read_pgm_parses_header_by_position(tmp_path):
    img = (np.arange(255 * 2) % 256).astype(np.uint8)
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P5\n255 2\n255\n" + img.tobytes())
    assert np.array_equal(workloads.read_pgm(path), img / 255.0)


def test_blob_image_matches_program_template():
    from ismlab.config import gaussian_blob_template
    ours = workloads.blob_image((0.45, -0.4))
    theirs = gaussian_blob_template(16, 16, 1, (0.45, -0.4),
                                    workloads.BLOB_SIGMA, workloads.BLOB_PEAK)
    assert np.allclose(ours, theirs, rtol=0, atol=1e-15)


def test_digest_ignores_only_wall_time(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, wall, loss in ((a, "0.1", "1.5"), (b, "0.2", "1.5")):
        d.mkdir()
        (d / "metrics.csv").write_text(f"iter,loss_proxy,wall_time\n0,{loss},{wall}\n")
        (d / "report.json").write_text("{}")
    assert run.output_digest(a) == run.output_digest(b)
    (b / "metrics.csv").write_text("iter,loss_proxy,wall_time\n0,1.6,0.2\n")
    assert run.output_digest(a) != run.output_digest(b)


def test_calibrated_scales_wall_time_by_host_speed():
    op = run.Op(0, traced=False)
    op.result = {"run_s": 3.0, "setup_s": 0.6, "calibration_s": 2 * run.CALIBRATION_REF_S}
    # a host running the calibration at half the reference speed halves the times
    assert run.calibrated(op, "run_s") == pytest.approx(1.5)
    assert run.calibrated(op, "setup_s") == pytest.approx(0.3)
    op.result["calibration_s"] = None
    assert run.calibrated(op, "run_s") is None
