import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ismlab import (
    AdamOptimizer,
    ConfigError,
    DistillConfig,
    GuidanceSpec,
    IdentityLatent,
    MixtureOracle,
    NumericalError,
    OptimConfig,
    RunLog,
    ViewJitterSpec,
    canonical_view,
    nearest_mode_distance,
    run_distillation,
)
from ismlab.config import build_distill
from ismlab.distill import (
    METRICS_CSV_HEADER,
    DistillState,
    current_interval,
    distill_step,
)
from ismlab.generators import random_scene


BASE_CONFIG = build_distill({
    "distill": {"objective": "ism", "iterations": 20, "t_min": 220, "t_max": 600,
                "delta_T_start": 200, "delta_T_end": 50, "delta_S": 50, "seed": 0},
    "guidance": {"positive": "right", "scale": 7.5}})


def base_config(**overrides):
    return replace(BASE_CONFIG, **overrides)


def test_adam_converges_on_quadratic():
    mu = np.array([0.7, -1.3, 0.2])
    theta = np.zeros(3)
    adam = AdamOptimizer(3, OptimConfig(step_size=0.01))
    for _ in range(5000):
        theta = adam.step(theta, theta - mu)
        if np.abs(theta - mu).max() < 1e-4:
            break
    assert np.abs(theta - mu).max() < 1e-4


def test_interval_anneal_is_linear_and_monotone():
    cfg = base_config(iterations=100)
    vals = [current_interval(cfg, i) for i in range(100)]
    assert vals[0] == 200 and vals[-1] == 50
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    one = base_config(iterations=1)
    assert current_interval(one, 0) == 200


def test_nearest_mode_distance_cases(bimodal):
    assert nearest_mode_distance(bimodal, "right", np.array([1.0, 0.0])) == 0.0
    assert nearest_mode_distance(bimodal, None, np.array([0.0, 0.0])) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        expected = min(np.linalg.norm(x - m) for m in bimodal.means)
        assert nearest_mode_distance(bimodal, None, x) == pytest.approx(expected)


def test_fixed_point_run_is_stationary(schedule):
    oracle = MixtureOracle(means=[[0.6, -0.3]], sigmas=[1e-4], weights=[1.0],
                           labels={"m": [0]})
    cfg = base_config(objective="ism", iterations=100,
                      guidance=GuidanceSpec(positive="m", scale=1.0))
    gen = IdentityLatent([0.6, -0.3])
    log = run_distillation(gen, oracle, schedule, cfg)
    assert np.linalg.norm(gen.get_params() - np.array([0.6, -0.3])) < 1e-3
    assert all(g < 1e-4 for g in log.columns["grad_norm"])
    # the very first update moves the parameters by far less than a full step
    first_move = np.abs(log.columns["grad_norm"][0])
    assert first_move < cfg.optimizer.step_size * 1e-4


def test_view_batch_accumulates_linearly(bimodal, schedule):
    gen1 = IdentityLatent([0.2, 0.1])
    gen2 = IdentityLatent([0.2, 0.1])
    state1 = DistillState(gen1, base_config(view_batch=1))
    state2 = DistillState(gen2, base_config(view_batch=2))
    distill_step(state1, bimodal, schedule, base_config(view_batch=1), 0, 400, gen1.render(), 0.0)
    distill_step(state2, bimodal, schedule, base_config(view_batch=2), 0, 400, gen2.render(), 0.0)
    one, two = state1.log.columns, state2.log.columns
    assert two["t"] == one["t"]
    assert two["grad_norm"][0] == pytest.approx(2 * one["grad_norm"][0], rel=1e-12)


@pytest.mark.parametrize("view_batch", [1, 2])
@pytest.mark.parametrize("jitter", [ViewJitterSpec(),
                                    ViewJitterSpec(rotation_max=0.3, shift_max=0.1)])
def test_view_stream_draws_one_seed_per_view(bimodal, schedule, view_batch, jitter):
    """Every view draws one seed from the view substream, the canonical view
    of a zero jitter spec included, so matched runs keep sharing the stream."""
    cfg = base_config(view_batch=view_batch, jitter=jitter)
    state = DistillState(IdentityLatent([0.2, 0.1]), cfg)
    steps = 5
    for i in range(steps):
        distill_step(state, bimodal, schedule, cfg, i, 400, state.generator.render(), 0.0)
    fresh = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[1])
    expected = fresh.integers(0, 2 ** 63 - 1, size=steps * view_batch + 1)[-1]
    assert state.rng_view.integers(0, 2 ** 63 - 1) == expected


def test_zero_iterations_leaves_parameters(bimodal, schedule):
    gen = IdentityLatent([0.3, 0.3])
    log = run_distillation(gen, bimodal, schedule, base_config(iterations=0))
    assert all(column == [] for column in log.columns.values())
    assert np.array_equal(gen.get_params(), [0.3, 0.3])


def test_runs_are_reproducible(bimodal, schedule):
    logs, gens = [], []
    for _ in range(2):
        gens.append(IdentityLatent([0.0, 0.0]))
        logs.append(run_distillation(gens[-1], bimodal, schedule, base_config(objective="sds")))
    a, b = logs
    assert a.columns["t"] == b.columns["t"]
    assert a.columns["grad_norm"] == b.columns["grad_norm"]
    assert np.array_equal(gens[0].get_params(), gens[1].get_params())


def test_matched_seeds_share_timesteps(bimodal, schedule):
    logs = {}
    for objective in ("ism", "sds"):
        gen = IdentityLatent([0.0, 0.0])
        logs[objective] = run_distillation(gen, bimodal, schedule,
                                           base_config(objective=objective))
    assert logs["ism"].columns["t"] == logs["sds"].columns["t"]


def test_logged_interval_anneals(bimodal, schedule):
    gen = IdentityLatent([0.1, 0.1])
    log = run_distillation(gen, bimodal, schedule, base_config(iterations=30))
    deltas = log.columns["delta_T"]
    assert deltas[0] == 200 and deltas[-1] == 50
    assert all(b <= a for a, b in zip(deltas, deltas[1:]))


def test_wall_time_non_decreasing(bimodal, schedule):
    gen = IdentityLatent([0.1, 0.1])
    log = run_distillation(gen, bimodal, schedule, base_config(iterations=10))
    times = log.columns["wall_time"]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_first_crossing_semantics(bimodal, schedule):
    gen = IdentityLatent([0.0, 0.0])
    log = run_distillation(gen, bimodal, schedule, base_config(iterations=5))
    # threshold above the initial distance crosses immediately
    assert log.first_crossing(10.0) == 0
    assert log.first_crossing(-1.0) is None
    # a final state closer than every entering state is the only crossing below them
    closest = min(log.columns["nearest_mode_distance"])
    only_final = RunLog(columns=log.columns, final_mode_distance=closest / 2)
    assert only_final.first_crossing(closest / 2) == len(log.columns["iter"])


def test_curve_is_the_entering_distances_then_the_final_one(bimodal, schedule):
    log = run_distillation(IdentityLatent([0.0, 0.0]), bimodal, schedule,
                           base_config(iterations=5, snapshot_every=2))
    assert log.curve == log.columns["nearest_mode_distance"] + [log.final_mode_distance]
    assert log.frames == {}  # a latent is not an image
    empty = run_distillation(IdentityLatent([0.0, 0.0]), bimodal, schedule,
                             base_config(iterations=0))
    assert empty.curve == [nearest_mode_distance(bimodal, "right", [0.0, 0.0])]
    assert empty.first_crossing(empty.curve[0]) == 0


def image_run(iterations, snapshot_every):
    """A 6x5 one-channel splat scene, an oracle over its renders, and a
    two-view config with zero jitter, so every render is of the canonical view."""
    rng = np.random.default_rng(4)
    oracle = MixtureOracle(means=rng.uniform(0.0, 1.0, (2, 30)), sigmas=[0.2, 0.2],
                           weights=[0.5, 0.5], labels={"a": [0], "right": [1]})
    cfg = base_config(iterations=iterations, snapshot_every=snapshot_every, view_batch=2,
                      jitter=ViewJitterSpec(width=6, height=5))
    return random_scene(4, 1, seed=2, background=[0.3]), oracle, cfg


@pytest.mark.parametrize("iterations, snapshot_every, snapshots", [
    (0, 0, []), (0, 2, []), (5, 0, []), (6, 2, [2, 4, 6]), (7, 3, [3, 6])])
def test_a_run_renders_each_state_once_on_the_canonical_view(
        schedule, iterations, snapshot_every, snapshots):
    gen, oracle, cfg = image_run(iterations, snapshot_every)
    views, render = [], gen.render
    gen.render = lambda view: (views.append(view), render(view))[1]
    log = run_distillation(gen, oracle, schedule, cfg)
    assert len(views) == iterations + 1
    assert all(view is views[0] for view in views)
    assert list(log.frames) == [f"iter_{k:06d}" for k in snapshots] + ["final"]
    assert all(frame.shape == (5, 6, 1) for frame in log.frames.values())
    final = render(canonical_view(6, 5)).reshape(5, 6, 1)
    assert log.frames["final"].tobytes() == final.tobytes()
    assert log.curve[-1] == nearest_mode_distance(oracle, "right", final.ravel())


@pytest.mark.parametrize("jitter", [{}, {"rotation_max": 0.3, "shift_max": 0.1}],
                         ids=["canonical", "jittered"])
def test_each_snapshot_is_the_final_frame_of_the_run_stopped_there(schedule, jitter):
    """Snapshot iter_<k> is the canonical render of the state entering
    iteration k: bitwise the final frame, and its distance the final one, of
    the same run for k iterations (a constant interval makes that run a prefix
    of the longer one). Each state is rendered once on the canonical view, and
    a jittered run renders its view_batch views per iteration besides."""
    gen, oracle, cfg = image_run(6, 2)
    cfg = replace(cfg, delta_T_start=100, delta_T_end=100,
                  jitter=ViewJitterSpec(width=6, height=5, **jitter))
    views, render = [], gen.render
    gen.render = lambda view: (views.append(view), render(view))[1]
    log = run_distillation(gen, oracle, schedule, cfg)
    cview = canonical_view(6, 5).affine
    assert sum(np.array_equal(view.affine, cview) for view in views) == 7
    assert len(views) == 7 + (0 if cfg.jitter.is_canonical else 6 * cfg.view_batch)
    assert list(log.frames) == ["iter_000002", "iter_000004", "iter_000006", "final"]
    for k in (2, 4, 6):
        short = run_distillation(image_run(k, 0)[0], oracle, schedule,
                                 replace(cfg, iterations=k, snapshot_every=0))
        assert list(short.frames) == ["final"]
        assert log.frames[f"iter_{k:06d}"].tobytes() == short.frames["final"].tobytes()
        assert log.curve[k] == short.curve[-1]


def test_non_finite_gradient_aborts(bimodal, schedule):
    class BrokenGenerator(IdentityLatent):
        def backward(self, view, grad_output):
            return np.full_like(self.theta, np.nan)

    gen = BrokenGenerator([0.1, 0.1])
    with pytest.raises(RuntimeError, match="non-finite"):
        run_distillation(gen, bimodal, schedule, base_config(iterations=3))


def test_finite_gradient_whose_norm_overflows_is_accepted(bimodal, schedule):
    """The step reads finiteness from the gradient norm it logs and checks
    entry by entry only when that is not finite: finite entries of 1e200
    pass with an infinite norm, and one NaN among them still aborts."""
    class HugeGenerator(IdentityLatent):
        fill = 1e200

        def backward(self, view, grad_output):
            grad = np.full_like(self.theta, 1e200)
            grad[-1] = self.fill
            return grad

    with np.errstate(over="ignore"):  # as the CLI runs it: the norm reports the overflow
        log = run_distillation(HugeGenerator([0.1, 0.1]), bimodal, schedule,
                               base_config(iterations=1))
        assert log.columns["grad_norm"][0] == math.inf
        gen = HugeGenerator([0.1, 0.1])
        gen.fill = np.nan
        with pytest.raises(NumericalError, match="non-finite gradient at iteration 0"):
            run_distillation(gen, bimodal, schedule, base_config(iterations=1))


def test_numerical_error_carries_logged_rows(bimodal, schedule):
    class BrokenGenerator(IdentityLatent):
        def backward(self, view, grad_output):
            return np.full_like(self.theta, np.inf)

    gen = BrokenGenerator([0.1, 0.1])
    with pytest.raises(NumericalError) as info:
        run_distillation(gen, bimodal, schedule, base_config(iterations=3))
    # the diagnostic row of the failing iteration is logged before the abort
    assert info.value.log.columns["iter"] == [0]


def test_metrics_csv_schema(tmp_path, bimodal, schedule):
    gen = IdentityLatent([0.0, 0.0])
    log = run_distillation(gen, bimodal, schedule, base_config(iterations=4))
    path = tmp_path / "metrics.csv"
    log.write_metrics_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_CSV_HEADER
    assert len(rows) == 5


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
metric_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
metric_floats = st.one_of(metric_floats, metric_floats.map(np.float64))
metric_ints = st.integers(0, 50)
metric_rows = st.tuples(st.integers(0, 2 ** 24), st.integers(1, 1000), st.integers(1, 200),
                        metric_floats, st.one_of(metric_ints, metric_ints.map(np.int64)),
                        metric_floats, metric_floats, metric_floats)
# 300 rows through every special float, in every float column, as plain and numpy scalars
SPECIAL_ROWS = [(i, 1 + i % 1000, 1 + i % 200, f, np.int64(i % 50) if i % 2 else i % 50,
                 np.float64(f), SPECIAL_FLOATS[(i + 3) % 7], np.float64(SPECIAL_FLOATS[i // 7 % 7]))
                for i, f in enumerate(SPECIAL_FLOATS[i % 7] for i in range(300))]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(metric_rows, max_size=300), final=metric_floats, threshold=st.floats())
@example(rows=SPECIAL_ROWS, final=math.nan, threshold=0.0)
def test_the_record_is_its_rows_columns(tmp_path, rows, final, threshold):
    """A record holding the columns of some rows writes metrics.csv as
    csv.writer writes those rows, and reads its curve, first crossing and
    oracle calls from them; numpy scalars and special floats included."""
    log = RunLog(columns={name: [row[k] for row in rows]
                          for k, name in enumerate(METRICS_CSV_HEADER)},
                 final_mode_distance=final)
    log.write_metrics_csv(tmp_path / "metrics.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        writer.writerows(rows)
    assert (tmp_path / "metrics.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    curve = [row[6] for row in rows] + [final]
    assert log.curve == curve  # the same objects, so a NaN entry equals itself
    assert log.first_crossing(threshold) == min(
        (i for i, d in enumerate(curve) if d <= threshold), default=None)
    assert log.total_oracle_calls() == sum(row[4] for row in rows)


def test_a_failed_run_keeps_the_rows_of_the_run_stopped_before_it(bimodal, schedule):
    """A gradient that turns infinite at iteration 2 leaves three entries in
    every column: its diagnostic row after the two rows, bit for bit apart
    from wall time, of the same run for 2 iterations (a constant interval
    makes that run a prefix of the longer one)."""
    class FailsOnThirdBackward(IdentityLatent):
        backwards = 0

        def backward(self, view, grad_output):
            self.backwards += 1
            grad = super().backward(view, grad_output)
            return grad if self.backwards < 3 else np.full_like(grad, np.inf)

    cfg = base_config(iterations=5, delta_T_start=100, delta_T_end=100)
    with pytest.raises(NumericalError, match="non-finite gradient at iteration 2") as info:
        run_distillation(FailsOnThirdBackward([0.1, 0.1]), bimodal, schedule, cfg)
    log = info.value.log
    assert [len(column) for column in log.columns.values()] == [3] * len(METRICS_CSV_HEADER)
    assert log.columns["grad_norm"][2] == math.inf
    short = run_distillation(IdentityLatent([0.1, 0.1]), bimodal, schedule,
                             replace(cfg, iterations=2))
    wall = METRICS_CSV_HEADER.index("wall_time")

    def bits(rows):
        return [[np.float64(v).tobytes() for k, v in enumerate(row) if k != wall]
                for row in rows]

    assert bits(log.metrics_table()[1][:2]) == bits(short.metrics_table()[1])


def test_a_final_state_at_no_finite_mode_distance_fails_without_a_timestep(bimodal, schedule):
    """A render that overflows the squared mode distance only after the third
    update passes three steps and fails at the final state: the line names the
    iteration count, no timestep and the last step's interval, and the record
    holds all three rows."""
    class OverflowsAfterThirdUpdate(IdentityLatent):
        updates = 0

        def set_params(self, params):
            self.updates += 1
            super().set_params(params)

        def render(self, view=None):
            return super().render(view) * (1e300 if self.updates >= 3 else 1.0)

    with np.errstate(over="ignore"), pytest.raises(NumericalError) as info:
        run_distillation(OverflowsAfterThirdUpdate([0.2, 0.1]), bimodal, schedule,
                         base_config(iterations=3))
    assert str(info.value) == ("non-finite mode distance at iteration 3 of the ism run "
                               "with seed=0, delta_T=50, delta_S=50")
    assert info.value.log.columns["iter"] == [0, 1, 2]
    assert all(math.isfinite(d) for d in info.value.log.columns["nearest_mode_distance"])


def test_hand_built_config_with_an_unknown_objective_fails_loudly():
    """config.build_distill refuses an unknown objective by its key; a
    DistillConfig built by hand, or replaced from a valid one as the race and
    interval-sweep runners do, refuses it at construction, so no run can
    reach the step's dispatch with another objective."""
    unknown = r"objective must be one of \('ism', 'sds', 'naive'\), got 'vsd'"
    with pytest.raises(ConfigError, match=unknown):
        DistillConfig(**{**vars(base_config()), "objective": "vsd"})
    with pytest.raises(ConfigError, match=unknown):
        replace(base_config(), objective="vsd")
