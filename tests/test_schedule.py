import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismlab import ConfigError, NoiseSchedule, canonical_view, hop, make_schedule

# independent extended-precision cumulative product for the default ramp
ALPHA_BAR_1000 = 0.0015789629305514414581


def test_two_step_constant_beta_products():
    s = make_schedule(2, 0.5, 0.5)
    assert list(s.ab) == [1.0, 0.5, 0.25]


def test_clean_boundary_is_exact():
    for args in [(2, 0.5, 0.5), (10, 0.01, 0.2), (1000, 0.00085, 0.012)]:
        assert make_schedule(*args).ab[0] == 1.0


def test_default_ramp_matches_independent_product(schedule):
    assert schedule.ab[1000] == pytest.approx(ALPHA_BAR_1000, rel=1e-12)


def test_default_ramp_matches_plain_loop(schedule):
    acc = 1.0
    for b in np.linspace(0.00085, 0.012, 1000):
        acc *= 1.0 - b
    assert schedule.ab[1000] == pytest.approx(acc, rel=1e-13)


def test_noise_to_signal_values(tiny_schedule):
    assert tiny_schedule.nsr[2] == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert tiny_schedule.nsr[1] == pytest.approx(1.0, abs=1e-12)
    assert tiny_schedule.nsr[0] == 0.0


def test_loss_weight_kinds(tiny_schedule):
    assert tiny_schedule.omega[1] == 1.0
    assert tiny_schedule.omega[2] == 1.0
    weighted = make_schedule(2, 0.5, 0.5, omega_kind="one_minus_alpha_bar")
    assert weighted.omega[2] == pytest.approx(0.75, abs=1e-12)
    assert weighted.omega[1] == pytest.approx(0.5, abs=1e-12)


def test_timestep_bounds_raise(tiny_schedule):
    """The tables hold T + 1 entries; the functions that index them check
    the timestep first, since a negative index would wrap."""
    assert len(tiny_schedule.nsr) == len(tiny_schedule.omega) == 3
    x = np.zeros(2)
    for t in (3, -1):
        with pytest.raises(IndexError):
            hop(tiny_schedule, x, 0, t, x)
        with pytest.raises(IndexError):
            hop(tiny_schedule, x, t, 0, x)
    # 0 is the clean level: a hop may start and end there, and 0 -> 0 copies x
    same = hop(tiny_schedule, x, 0, 0, x)
    assert np.array_equal(same, x) and same is not x


@pytest.mark.parametrize("kwargs", [
    dict(num_steps=1),
    dict(num_steps=10, beta_start=0.0),
    dict(num_steps=10, beta_start=0.2, beta_end=0.1),
    dict(num_steps=10, beta_end=1.0),
    dict(num_steps=10, omega_kind="bogus"),
    dict(num_steps=1000, beta_start=0.9, beta_end=0.99),  # alpha_bar_T underflows to 0
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_parameters_raise(kwargs):
    with pytest.raises(ConfigError):
        make_schedule(**kwargs)


def test_a_schedule_built_from_its_table_reads_T_from_it():
    """T is the table's length less one, and the loss weight's kind is checked
    by the schedule itself, not only by make_schedule."""
    made = make_schedule(10)
    built = NoiseSchedule(made.ab, "unit")
    assert built.num_steps == 10
    for table in ("ab", "sab", "s1mab", "nsr", "omega"):
        assert getattr(built, table) == getattr(made, table), table
    with pytest.raises(ConfigError, match="omega_kind"):
        NoiseSchedule(made.ab, "bogus")


@given(
    num_steps=st.integers(2, 60),
    beta_start=st.floats(1e-5, 0.3),
    spread=st.floats(0.0, 0.3),
)
@settings(max_examples=50, deadline=None)
def test_schedule_invariants(num_steps, beta_start, spread):
    beta_end = min(beta_start + spread, 0.6)
    s = make_schedule(num_steps, beta_start, beta_end)
    ab = np.array(s.ab)
    assert ab[0] == 1.0
    assert np.all(ab[1:] > 0) and np.all(ab[1:] <= 1)
    assert np.all(np.diff(ab[1:]) < 0) or num_steps == 1
    rebuilt = np.cumprod(1.0 - np.linspace(beta_start, beta_end, num_steps))
    assert np.max(np.abs(rebuilt - ab[1:]) / ab[1:]) < 1e-12
    gammas = [s.nsr[t] for t in range(1, num_steps + 1)]
    assert all(g2 > g1 for g1, g2 in zip(gammas, gammas[1:]))


def test_a_schedule_and_a_view_compare_and_hash_by_identity():
    """Dataclasses holding arrays compare by identity, so == never raises and
    they key a dict."""
    for make in (lambda: make_schedule(50), lambda: canonical_view(4, 4)):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) != hash(b)
        assert {a: 1, b: 2}[a] == 1 and len({a, a, b}) == 2
