from __future__ import annotations

import dataclasses
import math

import pytest

from eitmem.coefficients import CoefficientSample
from eitmem.control import ConstantSchedule
from eitmem.grids import GridSpec
from eitmem.model import MediumParams, PulseSpec
from eitmem.scenario import REQUIRED, Scenario, default_scenario
from eitmem.solver import reconstruct, simulate

# Scaled-down medium for reference-integrator comparisons: unit light speed
# keeps every stiffness scale within reach of a brute-force time step.
SCALED_OMEGA = 725.5  # rad/s, cos^2(theta) ~= 0.05


def scaled_medium(**overrides) -> MediumParams:
    base = dict(
        g=1.0,
        n_atoms=1.0e7,
        length=1.0,
        gamma_ba=10.0,
        gamma_bc=0.01,
        c=1.0,
    )
    base.update(overrides)
    return MediumParams(**base)


def scaled_pass_scenario() -> Scenario:
    """Every regime check passes with two orders of margin."""
    return Scenario(
        medium=scaled_medium(),
        grid=GridSpec(-2.0, 2.0, 1024),
        pulse=PulseSpec(amplitude=0.2, center_z=-0.5, width=0.1),
        schedule=ConstantSchedule(omega=SCALED_OMEGA),
        horizon=4.0,
        snapshot_dt=0.5,
        output_time=4.0,
        label="scaled_pass",
    )


def scaled_violating_scenario() -> Scenario:
    """Pulse ten times shorter than the adiabatic length scale."""
    return Scenario(
        medium=scaled_medium(gamma_ba=1.0e4),
        grid=GridSpec(-0.25, 0.25, 4096),
        pulse=PulseSpec(amplitude=0.2, center_z=-0.1, width=1.58e-3),
        schedule=ConstantSchedule(omega=SCALED_OMEGA),
        horizon=2.0,
        snapshot_dt=0.25,
        output_time=2.0,
        label="scaled_violating",
    )


def probe_fields(result) -> list:
    """The (t, probe field) pair of each snapshot of a run, as `run --oracle` hands them to compare_to_adiabatic."""
    return [(snap.t, reconstruct(snap.psi, snap.theta, result.scenario.medium)[1]) for snap in result.snapshots]


def scenario_with(sc: Scenario, **changes) -> Scenario:
    """sc with the given fields replaced, checked as any Scenario is when built.

    A new horizon also moves output_time to it unless output_time is given,
    since the old one may lie past the new horizon; the engine reads no
    output_time.
    """
    if "horizon" in changes:
        changes.setdefault("output_time", changes["horizon"])
    return dataclasses.replace(sc, **changes)


def read_at_horizon(result):
    """result with its scenario's output_time moved to the horizon, so a summary reads its last snapshot."""
    return dataclasses.replace(result, scenario=dataclasses.replace(result.scenario, output_time=result.scenario.horizon))


def file_keys(rows) -> dict:
    """Each key a scenario file may hold under a key table, in file order, with its default.

    A complex row gives <key>_re, with the row's default, and <key>_im,
    which defaults to 0.
    """
    keys = {}
    for key, kind, default in rows:
        if kind is complex:
            keys[key + "_re"], keys[key + "_im"] = default, 0.0
        else:
            keys[key] = default
    return keys


def required_keys(rows) -> set[str]:
    """The keys of a key table that a scenario file must hold."""
    return {key for key, default in file_keys(rows).items() if default is REQUIRED}


@pytest.fixture(scope="session")
def default_sc() -> Scenario:
    return default_scenario()


@pytest.fixture(scope="session")
def default_result(default_sc):
    return simulate(default_sc)


def coefficient_times(result) -> list[float]:
    """The times of coefficients.csv, sorted: the snapshot times, and the schedule's sample_times over [0, horizon] not within 1e-12 relative of one."""
    snaps = [snap.t for snap in result.snapshots]
    scan = result.scenario.schedule.sample_times(snaps[-1]).tolist()
    return sorted(snaps + [t for t in scan if all(abs(t - u) > 1e-12 * t for u in snaps)])


def medium_with(default: MediumParams, **overrides) -> MediumParams:
    return dataclasses.replace(default, **overrides)


def coeffs_high_density(theta: float, theta_dot: float, params: MediumParams) -> CoefficientSample:
    """First order in |D G|/g^2 N: the four closed-form coefficients.

    An independent check on exponent_integrand, to which it agrees to first
    order when the high-density ratio is large.
    """
    g2n = params.g2n
    gbc = params.gamma_bc
    dp = params.delta_p
    dsum = params.delta + params.delta_p
    re_dg = params.gamma_ba * gbc - dp * dsum
    im_dg = dsum * gbc + dp * params.gamma_ba
    sin_t = math.sin(theta)
    s2 = sin_t * sin_t
    c2 = 1.0 - s2
    if theta_dot != 0.0:
        switch = math.tan(theta) * theta_dot
    else:
        switch = 0.0
    common = switch - gbc * s2
    alpha1 = gbc * s2 + (s2 / g2n) * (re_dg * common + im_dg * dp * s2)
    beta = dp * s2 + (s2 / g2n) * (im_dg * common - re_dg * dp * s2)
    alpha2 = -params.c * im_dg * s2 * s2 / g2n
    v_g = params.c * (c2 + re_dg * s2 * s2 / g2n)
    return CoefficientSample(s_part=complex(alpha1, beta), w_part=complex(v_g, -alpha2))
