import csv
import math
from dataclasses import astuple

import numpy as np
import pytest

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
    nearest_mode_distance,
    run_distillation,
)
from ismlab.distill import (
    METRICS_CSV_HEADER,
    LogRow,
    current_interval,
    distill_step,
    init_state,
)


def base_config(**overrides):
    defaults = dict(
        objective="ism",
        iterations=20,
        t_min=220,
        t_max=600,
        delta_t_start=200,
        delta_t_end=50,
        delta_s=50,
        guidance=GuidanceSpec(positive="right", scale=7.5),
        seed=0,
    )
    defaults.update(overrides)
    return DistillConfig(**defaults)


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
    assert all(r.grad_norm < 1e-4 for r in log.rows)
    # the very first update moves the parameters by far less than a full step
    first_move = np.abs(log.rows[0].grad_norm)
    assert first_move < cfg.optimizer.step_size * 1e-4


def test_view_batch_accumulates_linearly(bimodal, schedule):
    gen1 = IdentityLatent([0.2, 0.1])
    gen2 = IdentityLatent([0.2, 0.1])
    state1 = init_state(gen1, bimodal, base_config(view_batch=1))
    state2 = init_state(gen2, bimodal, base_config(view_batch=2))
    row1 = distill_step(state1, bimodal, schedule, base_config(view_batch=1), 0)
    row2 = distill_step(state2, bimodal, schedule, base_config(view_batch=2), 0)
    assert row2.t == row1.t
    assert row2.grad_norm == pytest.approx(2 * row1.grad_norm, rel=1e-12)


@pytest.mark.parametrize("view_batch", [1, 2])
@pytest.mark.parametrize("jitter", [ViewJitterSpec(),
                                    ViewJitterSpec(rotation_max=0.3, shift_max=0.1)])
def test_view_stream_draws_one_seed_per_view(bimodal, schedule, view_batch, jitter):
    """Every view draws one seed from the view substream, the canonical view
    of a zero jitter spec included, so matched runs keep sharing the stream."""
    cfg = base_config(view_batch=view_batch, jitter=jitter)
    state = init_state(IdentityLatent([0.2, 0.1]), bimodal, cfg)
    steps = 5
    for i in range(steps):
        distill_step(state, bimodal, schedule, cfg, i)
    fresh = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[1])
    expected = fresh.integers(0, 2 ** 63 - 1, size=steps * view_batch + 1)[-1]
    assert state.rng_view.integers(0, 2 ** 63 - 1) == expected


def test_zero_iterations_leaves_parameters(bimodal, schedule):
    gen = IdentityLatent([0.3, 0.3])
    log = run_distillation(gen, bimodal, schedule, base_config(iterations=0))
    assert log.rows == []
    assert np.array_equal(gen.get_params(), [0.3, 0.3])


def test_runs_are_reproducible(bimodal, schedule):
    logs, gens = [], []
    for _ in range(2):
        gens.append(IdentityLatent([0.0, 0.0]))
        logs.append(run_distillation(gens[-1], bimodal, schedule, base_config(objective="sds")))
    a, b = logs
    assert [r.t for r in a.rows] == [r.t for r in b.rows]
    assert [r.grad_norm for r in a.rows] == [r.grad_norm for r in b.rows]
    assert np.array_equal(gens[0].get_params(), gens[1].get_params())


def test_matched_seeds_share_timesteps(bimodal, schedule):
    logs = {}
    for objective in ("ism", "sds"):
        gen = IdentityLatent([0.0, 0.0])
        logs[objective] = run_distillation(gen, bimodal, schedule,
                                           base_config(objective=objective))
    assert [r.t for r in logs["ism"].rows] == [r.t for r in logs["sds"].rows]


def test_logged_interval_anneals(bimodal, schedule):
    gen = IdentityLatent([0.1, 0.1])
    log = run_distillation(gen, bimodal, schedule, base_config(iterations=30))
    deltas = [r.delta_t for r in log.rows]
    assert deltas[0] == 200 and deltas[-1] == 50
    assert all(b <= a for a, b in zip(deltas, deltas[1:]))


def test_wall_time_non_decreasing(bimodal, schedule):
    gen = IdentityLatent([0.1, 0.1])
    log = run_distillation(gen, bimodal, schedule, base_config(iterations=10))
    times = [r.wall_time for r in log.rows]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_first_crossing_semantics(bimodal, schedule):
    gen = IdentityLatent([0.0, 0.0])
    log = run_distillation(gen, bimodal, schedule, base_config(iterations=5))
    # threshold above the initial distance crosses immediately
    assert log.first_crossing(10.0) == 0
    assert log.first_crossing(-1.0) is None
    # a final state closer than every entering state is the only crossing below them
    closest = min(r.mode_distance for r in log.rows)
    only_final = RunLog(rows=log.rows, final_mode_distance=closest / 2)
    assert only_final.first_crossing(closest / 2) == len(log.rows)


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
        assert log.rows[0].grad_norm == math.inf
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
    assert [r.iter for r in info.value.log.rows] == [0]


def test_metrics_csv_schema(tmp_path, bimodal, schedule):
    gen = IdentityLatent([0.0, 0.0])
    log = run_distillation(gen, bimodal, schedule, base_config(iterations=4))
    path = tmp_path / "metrics.csv"
    log.write_metrics_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_CSV_HEADER
    assert len(rows) == 5


def test_metrics_csv_matches_the_astuple_writer_bitwise(tmp_path):
    """Rows written field by field, without dataclasses.astuple's deep copy,
    give the same bytes: csv writes the same objects either way."""
    rng = np.random.default_rng(8)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]
    log = RunLog()
    for i in range(300):
        floats = [float(v) for v in rng.standard_normal(4) * 10.0 ** rng.integers(-300, 300, 4)]
        floats[int(rng.integers(4))] = specials[i % len(specials)]
        if i % 3 == 0:
            floats[int(rng.integers(4))] = np.float64(floats[0])
        calls = int(rng.integers(0, 50)) if i % 2 else np.int64(rng.integers(0, 50))
        log.rows.append(LogRow(iter=i, t=int(rng.integers(1, 1001)),
                               delta_t=int(rng.integers(1, 200)), grad_norm=floats[0],
                               oracle_calls=calls, loss_proxy=floats[1],
                               mode_distance=floats[2], wall_time=floats[3]))
    log.write_metrics_csv(tmp_path / "metrics.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        writer.writerows(astuple(r) for r in log.rows)
    assert (tmp_path / "metrics.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_hand_built_config_with_an_unknown_objective_fails_loudly(bimodal, schedule):
    """config.build_distill refuses an unknown objective by its key; a
    DistillConfig built by hand reaches the step's dispatch, which refuses it
    too instead of running another objective."""
    gen = IdentityLatent([0.2, 0.1])
    with pytest.raises(ConfigError, match=r"objective must be one of \('ism', 'sds', 'naive'\), "
                                          r"got 'vsd'"):
        run_distillation(gen, bimodal, schedule, base_config(objective="vsd", iterations=1))
