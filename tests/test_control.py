from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from eitmem.control import (
    SCHEDULES,
    ConstantSchedule,
    TabulatedSchedule,
    TanhSchedule,
    _cubic_at,
    _monotone_cubic,
    omega_from_theta,
    theta_from_omega,
)
from eitmem.errors import ConfigError
from eitmem.scenario import SCHEDULE_KEYS, default_scenario

SEED = 40917
N_DRAWS = 1000


def test_mixing_angle_round_trip():
    rng = np.random.default_rng(SEED)
    for _ in range(N_DRAWS):
        theta = float(rng.uniform(1e-6, math.pi / 2 - 1e-6))
        omega = omega_from_theta(theta, 1e6, 1e8)
        back = theta_from_omega(omega, 1e6, 1e8)
        assert back == pytest.approx(theta, abs=1e-12)


def test_mixing_angle_rejects_nonpositive_control():
    with pytest.raises(ConfigError):
        theta_from_omega(0.0, 1e6, 1e8)
    with pytest.raises(ConfigError):
        theta_from_omega(-1.0, 1e6, 1e8)


def test_eval_returns_consistent_omega(default_sc):
    p = default_sc.medium
    sch = default_sc.schedule
    for t in (0.0, 15e-6, 50e-6, 130e-6, 180e-6):
        sample = sch.eval(p, t)
        assert 0.0 < sample.theta < math.pi / 2
        assert sample.omega == pytest.approx(
            omega_from_theta(sample.theta, p.g, p.n_atoms), rel=1e-9
        )


def test_theta_dot_matches_central_difference(default_sc):
    p = default_sc.medium
    sch = default_sc.schedule
    rng = np.random.default_rng(SEED)
    h = 1e-11
    scale = max(abs(sch.eval(p, float(t)).theta_dot) for t in np.linspace(0, 180e-6, 500))
    for _ in range(N_DRAWS):
        t = float(rng.uniform(1e-9, 180e-6))
        sample = sch.eval(p, t)
        fd = (sch.eval(p, t + h).theta - sch.eval(p, t - h).theta) / (2 * h)
        assert sample.theta_dot == pytest.approx(fd, abs=1e-5 * scale)


def test_tanh_profile_sits_on_floor_mid_window(default_sc):
    p = default_sc.medium
    sch = default_sc.schedule
    mid = sch.eval(p, 75e-6)
    # cot(theta) within a few percent of the floor once both switches settle
    cot = 1.0 / math.tan(mid.theta)
    assert cot == pytest.approx(sch.floor, rel=0.05)


def test_floor_zero_is_rejected():
    with pytest.raises(ConfigError, match="floor"):
        TanhSchedule(floor=0.0)


def test_window_ordering_is_validated():
    with pytest.raises(ConfigError):
        TanhSchedule(t1=100e-6, t2=50e-6)


def test_constant_schedule_has_zero_rate():
    sch = ConstantSchedule(omega=725.5)
    p = default_scenario().medium
    s = sch.eval(p, 12.3)
    assert s.theta_dot == 0.0
    assert s.omega == 725.5
    assert sch.breakpoints() == ()


def test_breakpoints_bracket_both_switches(default_sc):
    bps = default_sc.schedule.breakpoints()
    assert list(bps) == sorted(bps)
    assert any(abs(b - 30e-6) < 1e-4 for b in bps)
    assert any(abs(b - 125e-6) < 1e-4 for b in bps)


def test_sample_times_are_nonnegative_and_cover_switches(default_sc):
    times = default_sc.schedule.sample_times(default_sc.horizon)
    assert np.all(times >= 0.0)
    assert np.all(np.diff(times) > 0.0)
    assert times.min() == 0.0
    assert any(abs(t - 30e-6) < 5e-5 for t in times)


# Control almost off (theta = OFF) outside [0, 180 us] and on (theta = ON) across it.
ON, OFF = 1.5702963, 1.5707963


def test_sample_times_span_zero_to_the_horizon_for_every_kind():
    table = TabulatedSchedule(times=(-2e-3, -1e-3, 0.0, 180e-6, 1e-3, 2e-3), thetas=(OFF, OFF, ON, ON, OFF, OFF))
    for schedule in (ConstantSchedule(omega=1e5), TanhSchedule(), table):
        for horizon in (15e-6, 180e-6, 2e-3):
            times = schedule.sample_times(horizon)
            assert times[0] == 0.0 and times[-1] == horizon
            assert np.all(np.diff(times) > 0.0)
    assert table.sample_times(180e-6).tolist() == [0.0, 90e-6, 180e-6]


def test_a_table_turns_only_where_it_switches_inside_the_run():
    before = TabulatedSchedule(times=(-2e-3, -1e-3, 0.0, 180e-6), thetas=(OFF, OFF, ON, ON))
    after = TabulatedSchedule(times=(0.0, 180e-6, 1e-3, 2e-3), thetas=(ON, ON, OFF, OFF))
    assert math.isinf(before.turn_time(180e-6)) and math.isinf(before.turn_time(1.0))
    assert math.isinf(after.turn_time(180e-6))
    assert 0.0 < after.turn_time(2e-3) == after.turn_time(1.0) < math.inf
    # a table inside the run turns by its full swing over its fastest rate: a
    # cubic with flat ends over h = 820 us peaks at 1.5 swing / h mid-piece
    assert after.turn_time(2e-3) == pytest.approx(820e-6 / 1.5, rel=1e-12)


@pytest.mark.parametrize("h", [1e-9, 100e-9])
def test_a_table_switch_between_any_two_samples_sets_its_turn_time(h):
    # Each switch takes h, far shorter than the table's span over its knots;
    # the cubic's fastest rate, 1.5 swing / h, is read from each piece.
    on, off = math.atan(1 / 5.1e-4), math.atan(1 / 1e-5)
    table = TabulatedSchedule(times=(0.0, 30e-6, 30e-6 + h, 125e-6, 125e-6 + h, 180e-6), thetas=(on, on, off, off, on, on))
    assert table.turn_time(180e-6) == pytest.approx(h / 1.5, rel=1e-9)


def test_a_table_turn_time_reads_the_fastest_rate_of_its_cubic_on_the_run():
    # theta = 0.8 + 0.1 sin(2 pi (t - t0) / 50 us) on knots 40 ns apart: the
    # fastest rate, at t0 + 25 us * n, falls inside a piece, where the rate
    # at the knots alone reads 7e-6 low; a 1 ns sampling of the cubic over
    # the run reads it to 3e-9.
    knots = np.linspace(-10e-6, 110e-6, 3001)
    t0 = 5.03e-6
    table = TabulatedSchedule(times=tuple(knots), thetas=tuple(0.8 + 0.1 * np.sin(2 * np.pi * (knots - t0) / 50e-6)))
    for horizon in (7.3e-6, 13.1e-6, 61.7e-6, 100e-6):
        theta, rate = _cubic_at(*table._cubic, np.linspace(0.0, horizon, round(horizon / 1e-9) + 1))
        assert table.turn_time(horizon) == pytest.approx(np.ptp(theta) / np.max(np.abs(rate)), rel=1e-7)


# Constructor keywords that build each kind; the fields test adds one of another kind.
_VALID_KEYWORDS = {"constant": {"omega": 1e5}, "tanh_profile": {}, "tabulated": {"times": (0.0, 1e-6), "thetas": (1.0, 1.0)}}


@pytest.mark.parametrize("kind", sorted(SCHEDULES))
def test_a_schedule_holds_only_the_keys_of_its_kind(kind):
    cls = SCHEDULES[kind]
    own = [f.name for f in dataclasses.fields(cls)]
    assert cls.kind == kind
    assert own == [key for key, _, _ in SCHEDULE_KEYS[kind][1:]]
    cls(**_VALID_KEYWORDS[kind])
    foreign = {f.name for other in SCHEDULES.values() for f in dataclasses.fields(other)} - set(own)
    assert foreign
    for name in sorted(foreign):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            cls(**_VALID_KEYWORDS[kind], **{name: 1.0})


def test_tabulated_matches_source_profile(default_sc):
    p = default_sc.medium
    src = default_sc.schedule
    knots = np.linspace(0.0, 180e-6, 4001)
    thetas = [src.eval(p, float(t)).theta for t in knots]
    tab = TabulatedSchedule(times=tuple(knots), thetas=tuple(thetas))
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        t = float(rng.uniform(0.0, 180e-6))
        a = tab.eval(p, t)
        b = src.eval(p, t)
        assert a.theta == pytest.approx(b.theta, abs=1e-6)


def test_tabulated_rejects_sparse_sampling(default_sc):
    p = default_sc.medium
    src = default_sc.schedule
    knots = np.linspace(0.0, 180e-6, 7)  # nowhere near resolving the switches
    thetas = [src.eval(p, float(t)).theta for t in knots]
    with pytest.raises(ConfigError, match="sparse"):
        TabulatedSchedule(times=tuple(knots), thetas=tuple(thetas))


def _assert_matches_pchip(knots, thetas, times, theta, theta_dot):
    # 1e-14 of the largest reference value, theta and its rate each; a flat
    # table's rate must come out exactly 0.
    reference = PchipInterpolator(knots, thetas)
    for got, want in ((theta, reference(times)), (theta_dot, reference.derivative()(times))):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _tabulated_fixtures():
    sc = default_scenario()
    full = np.linspace(0.0, 180e-6, 4001)
    short = np.linspace(0.0, 100e-6, 2001)
    flat = np.linspace(0.0, 1e-5, 64)
    return {
        "default_4001": (full, sc.schedule.eval(sc.medium, full).theta),
        "first_100us_2001": (short, sc.schedule.eval(sc.medium, short).theta),
        "flat_64": (flat, np.full(64, 1.0)),
        "two_knots_rising": (np.array([0.0, 180e-6]), np.array([0.3, 1.2])),
        "two_knots_falling": (np.array([10e-6, 11e-6]), np.array([1.5, 0.2])),
    }


TABULATED_FIXTURES = _tabulated_fixtures()


@pytest.mark.parametrize("name", list(TABULATED_FIXTURES))
def test_tabulated_schedule_matches_pchip(default_sc, name):
    knots, thetas = TABULATED_FIXTURES[name]
    tab = TabulatedSchedule(times=tuple(knots), thetas=tuple(thetas))
    rng = np.random.default_rng(SEED)
    # eval holds theta_dot at 0 on the end knots, so read the inner ones
    inner = np.concatenate(
        [knots[1:-1], 0.5 * (knots[:-1] + knots[1:]), rng.uniform(knots[0], knots[-1], 200)]
    )
    sample = tab.eval(default_sc.medium, inner)
    _assert_matches_pchip(knots, thetas, inner, sample.theta, sample.theta_dot)
    if len(knots) == 2:
        slope = (thetas[1] - thetas[0]) / (knots[1] - knots[0])
        assert sample.theta == pytest.approx(thetas[0] + slope * (inner - knots[0]), rel=1e-14)
        assert sample.theta_dot == pytest.approx(np.full(inner.shape, slope), rel=1e-14)


def _random_table(rng, shape):
    n = 2 if shape == "two_knots" else int(rng.integers(3, 60))
    knots = np.cumsum(rng.uniform(0.05, 2.0, n)) * 1e-6
    if shape == "monotone":
        thetas = np.sort(rng.uniform(0.05, 1.5, n))[:: rng.choice([-1, 1])]
    elif shape == "flat_runs":
        # a few levels drawn with repeats, so runs of equal values and
        # values that come back after leaving
        thetas = rng.choice(rng.uniform(0.05, 1.5, 3), n)
    else:
        thetas = rng.uniform(0.05, 1.5, n)
    return knots, thetas


@pytest.mark.parametrize("shape", ["monotone", "non_monotone", "flat_runs", "two_knots"])
def test_monotone_cubic_matches_pchip_on_random_tables(shape):
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        knots, thetas = _random_table(rng, shape)
        times = np.concatenate(
            [knots, 0.5 * (knots[:-1] + knots[1:]), rng.uniform(knots[0], knots[-1], 10 * len(knots))]
        )
        theta, theta_dot = _cubic_at(knots, _monotone_cubic(knots, thetas), times)
        _assert_matches_pchip(knots, thetas, times, theta, theta_dot)
        # shape preserved: between two knots theta stays between their
        # values, up to the rounding of the cubic's last sums
        i = np.searchsorted(knots[1:-1], times, side="right")
        low = np.minimum(thetas[i], thetas[i + 1]) - 1e-15
        high = np.maximum(thetas[i], thetas[i + 1]) + 1e-15
        assert np.all((low <= theta) & (theta <= high))


def test_tabulated_requires_strictly_increasing_times():
    with pytest.raises(ConfigError):
        TabulatedSchedule(times=(0.0, 1e-6, 1e-6), thetas=(1.0, 1.0, 1.0))


def test_tabulated_clamps_outside_its_range(default_sc):
    p = default_sc.medium
    tab = TabulatedSchedule(
        times=tuple(np.linspace(0.0, 1e-5, 64)),
        thetas=tuple(np.full(64, 1.0)),
    )
    before = tab.eval(p, -1.0)
    after = tab.eval(p, 1.0)
    assert before.theta == pytest.approx(1.0)
    assert after.theta == pytest.approx(1.0)
    assert before.theta_dot == 0.0
    assert after.theta_dot == 0.0


def test_turn_time_scales_with_steepness():
    slow = TanhSchedule(steepness=1e4)
    fast = TanhSchedule(steepness=1e6)
    assert slow.turn_time(1.0) > fast.turn_time(1.0) > 0.0


def test_a_tanh_switch_times_the_run_only_where_its_window_meets_it():
    # A switch window is t_i -+ 5/steepness, the breakpoints' half-width.
    for steepness in (1e9, 1e11):
        assert math.isinf(TanhSchedule(steepness=steepness).turn_time(15e-6))
    assert TanhSchedule().turn_time(15e-6) == 1e-5  # t1 - 5/s = -20 us
    late = TanhSchedule(steepness=1e6, t1=20e-6, t2=200e-6)  # t1 window [15, 25] us
    assert late.turn_time(15.1e-6) == 1e-6 and math.isinf(late.turn_time(14.9e-6))
    # the t2 window ends at t2 + 5 us
    assert TanhSchedule(steepness=1e6, t1=-30e-6, t2=-4.9e-6).turn_time(1e-6) == 1e-6
    assert math.isinf(TanhSchedule(steepness=1e6, t1=-30e-6, t2=-5.1e-6).turn_time(1e-6))
