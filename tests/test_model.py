from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import scaled_pass_scenario

from eitmem.coefficients import bright_ratio, exponent_integrand
from eitmem.control import ConstantSchedule
from eitmem.errors import ConfigError, ValidityError
from eitmem.grids import GridSpec, gaussian_field, kept_modes
from eitmem.model import (
    MIN_WIDTH_SPACINGS,
    SUPPORT_FLOOR,
    MediumParams,
    PulseSpec,
    ValidityReport,
    check_pulse_fits,
    check_regime,
    coupling_matrix,
    dark_modes,
)
from eitmem.scenario import default_scenario

SEED = 1021


def test_medium_params_rejects_nonpositive_core_fields():
    good = dict(
        g=1e6,
        n_atoms=1e8,
        length=5e-3,
        gamma_ba=1e8,
        gamma_bc=1e4,
    )
    MediumParams(**good)
    for key in ("g", "n_atoms", "length", "gamma_ba"):
        bad = dict(good)
        bad[key] = 0.0
        with pytest.raises(ConfigError):
            MediumParams(**bad)
    with pytest.raises(ConfigError):
        MediumParams(**{**good, "gamma_bc": -1.0})


def test_gamma_bc_zero_is_allowed():
    p = default_scenario().medium
    import dataclasses

    lossless = dataclasses.replace(p, gamma_bc=0.0)
    assert lossless.gamma_bc == 0.0


def test_derived_coupling_scales():
    p = default_scenario().medium
    assert p.g2n == pytest.approx(1e20, rel=1e-15)
    assert p.g_root_n == pytest.approx(1e10, rel=1e-15)


def test_coherence_factors_pack_detunings():
    import dataclasses

    p = dataclasses.replace(default_scenario().medium, delta=3e5, delta_p=2e2)
    d_ba, d_bc = p.coherence_factors()
    assert d_ba == complex(1e8, 3e5 + 2e2)
    assert d_bc == complex(1e4, 2e2)
    assert not p.is_resonant()
    assert default_scenario().medium.is_resonant()


def test_pulse_length_is_twice_the_width():
    p = PulseSpec(amplitude=0.2, center_z=0.0, width=1e-3)
    assert p.pulse_length == pytest.approx(2e-3)


def _real(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def gaussians(draw) -> tuple[GridSpec, PulseSpec]:
    """A grid and a resolved Gaussian on it, often with its 1e-6 contour within a hair of an edge sample."""
    z_min = draw(_real(-1e3, 1e3))
    span = draw(_real(1e-3, 1e3))
    n = 2 ** draw(st.integers(6, 14))
    grid = GridSpec(z_min, z_min + span, n)
    width = grid.dz * draw(_real(MIN_WIDTH_SPACINGS, n / 8.0))
    radius = width * math.sqrt(-math.log(SUPPORT_FLOOR))
    if draw(st.booleans()):
        center = z_min + span * draw(_real(0.0, 1.0))
    else:
        # the contour near sample 0, 1 or 2 from the left, or n-3, n-2 or n-1 from the right
        sample = draw(st.sampled_from((0, 1, 2, n - 3, n - 2, n - 1)))
        offset = draw(st.sampled_from((0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9)) | _real(-0.01, 0.01))
        side = 1.0 if sample < n // 2 else -1.0
        center = z_min + (sample + offset) * grid.dz + side * radius
    amplitude = complex(draw(_real(1e-3, 10.0)), draw(_real(-10.0, 10.0)))
    return grid, PulseSpec(amplitude, center, width)


@settings(max_examples=200, deadline=None, database=None)
@given(case=gaussians())
# Sample n-2 reads 1.0000000015e-6 of the peak, with the contour 1.2e-5
# spacings short of it: the rounding of z near -1000 m, 6e-5 spacings here.
@example(case=(GridSpec(-1000.0, -999.9989911081449, 2**19), PulseSpec(1.0, -999.9993721755294, 0.00010252125725070449)))
def test_an_admitted_gaussian_has_its_sampled_support_clear_of_the_edge_samples(case):
    grid, pulse = case
    try:
        check_pulse_fits(grid, pulse)
    except ConfigError:
        return
    magnitude = np.abs(gaussian_field(grid, pulse.amplitude, pulse.center_z, pulse.width).values)
    support = np.flatnonzero(magnitude >= SUPPORT_FLOOR * np.max(magnitude))
    assert support[0] > 1 and support[-1] < grid.n_points - 2


def test_regime_report_default_scenario():
    sc = default_scenario()
    report = check_regime(sc.medium, sc.pulse, sc.schedule, sc.horizon)
    # collective coupling 1e20 over the 1e12 decoherence product
    assert report.ratios["high_density"] == pytest.approx(1e8, rel=1e-12)
    # 2 mm pulse against sqrt(gamma_ba c L / g^2 N) = 1.22 mm
    assert report.ratios["adiabatic_length"] == pytest.approx(
        2e-3 / math.sqrt(1e8 * sc.medium.c * 5e-3 / 1e20), rel=1e-12
    )
    assert report.checks["high_density"]
    assert report.checks["adiabatic_parameter"]
    assert report.checks["low_intensity"]
    assert not report.checks["adiabatic_length"]
    assert report.blocking_pass
    assert not report.all_pass
    assert report.failed() == ["adiabatic_length"]
    assert any("adiabatic_length" in w for w in report.warnings())


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
def test_regime_check_rejects_a_non_finite_horizon(horizon):
    sc = default_scenario()
    with pytest.raises(ConfigError, match="horizon must be finite"):
        check_regime(sc.medium, sc.pulse, sc.schedule, horizon)


def test_regime_report_flags_strong_probe():
    sc = default_scenario()
    hot = PulseSpec(amplitude=1e3, center_z=sc.pulse.center_z, width=sc.pulse.width)
    report = check_regime(sc.medium, hot, sc.schedule, sc.horizon)
    assert not report.checks["low_intensity"]
    assert not report.blocking_pass


def test_validity_report_to_dict_round_trips_checks():
    report = ValidityReport(
        ratios={
            "high_density": 1e8,
            "adiabatic_length": 0.5,
            "adiabatic_time": 50.0,
            "adiabatic_parameter": 1e-5,
            "low_intensity": 0.5,
        },
    )
    d = report.to_dict()
    assert d["high_density_ratio"] == 1e8
    assert d["adiabatic_parameter"] == 1e-5
    assert d["low_intensity_ratio"] == 0.5
    assert d["checks"] == {
        "high_density": True,
        "adiabatic_length": False,
        "adiabatic_time": True,
        "adiabatic_parameter": True,
        "low_intensity": False,
    }
    assert d["strong"]["high_density"] and not d["strong"]["adiabatic_time"]
    assert report.failed() == ["adiabatic_length", "low_intensity"]
    assert not report.blocking_pass
    with pytest.raises(ValidityError, match="^blocking regime checks failed: low_intensity$"):
        report.gate()
    assert "notes" not in d


def test_regime_checks_monotone_in_detuning():
    # larger detunings shrink the high-density ratio
    sc = default_scenario()
    rng = np.random.default_rng(SEED)
    prev = check_regime(sc.medium, sc.pulse, sc.schedule, sc.horizon).ratios["high_density"]
    for scale in (1e6, 1e7, 1e8):
        p = dataclasses.replace(sc.medium, delta=float(rng.uniform(0.5, 1.0)) * scale)
        ratio = check_regime(p, sc.pulse, sc.schedule, sc.horizon).ratios["high_density"]
        assert ratio < prev
        prev = ratio


def test_adiabatic_scales_take_the_resonant_group_velocity():
    # at delta_p = 1e7 the detuned group velocity at the start is negative;
    # the adiabatic scales stay finite, positive and equal to the resonant ones
    sc = default_scenario()
    detuned = dataclasses.replace(sc.medium, delta_p=1e7)
    theta0 = float(sc.schedule.eval(detuned, sc.schedule.sample_times(sc.horizon)).theta[0])
    assert exponent_integrand(theta0, 0.0, detuned).v_g < 0.0
    report = check_regime(detuned, sc.pulse, sc.schedule, sc.horizon)
    resonant = check_regime(sc.medium, sc.pulse, sc.schedule, sc.horizon)
    for name in ("adiabatic_time", "adiabatic_parameter"):
        assert 0.0 < report.ratios[name] < math.inf
        assert report.ratios[name] == resonant.ratios[name]


def test_constant_schedule_has_infinite_turn_time():
    sch = ConstantSchedule(omega=1e9)
    assert math.isinf(sch.turn_time(1.0))
    sc = default_scenario()
    report = check_regime(sc.medium, sc.pulse, sch, sc.horizon)
    assert report.checks["adiabatic_time"]


def _kept_band(sc) -> np.ndarray:
    """The wavenumbers of the pulse's kept_modes: the band the oracle's start carries."""
    modes = np.fft.fft(gaussian_field(sc.grid, sc.pulse.amplitude, sc.pulse.center_z, sc.pulse.width).values)
    return sc.grid.k_array()[kept_modes(modes)]


def _generators(params: MediumParams, omega: float, k: np.ndarray) -> np.ndarray:
    m = np.repeat(coupling_matrix(params, omega)[None], len(k), axis=0)
    m[:, 0, 0] = -1j * params.c * k
    return m


@pytest.mark.parametrize("make, n_modes", [(default_scenario, 73), (scaled_pass_scenario, 145)])
def test_dark_modes_are_eigenpairs_of_each_kept_mode(make, n_modes):
    sc = make()
    k = _kept_band(sc)
    assert len(k) == n_modes
    omega = sc.schedule.eval(sc.medium, 0.0).omega
    lam, v = dark_modes(sc.medium, omega, k)
    m = _generators(sc.medium, omega, k)
    residual = np.linalg.norm(np.einsum("nij,nj->ni", m, v) - lam[:, None] * v, axis=1)
    assert np.all(residual <= 1e-12 * np.abs(m).sum(axis=-2).max(axis=-1) * np.linalg.norm(v, axis=1))


def test_the_dark_mode_is_picked_by_its_overlap_not_by_its_decay():
    # On the default band the slowest-decaying eigenvector is the photon
    # branch on most modes; the dark one is near (cos theta, 0, -sin theta).
    sc = default_scenario()
    k = _kept_band(sc)
    omega = sc.schedule.eval(sc.medium, 0.0).omega
    lam, v = dark_modes(sc.medium, omega, k)
    every_lam, vecs = np.linalg.eig(_generators(sc.medium, omega, k))
    slowest = every_lam[np.arange(len(k)), np.argmax(every_lam.real, axis=1)]
    assert np.sum(~np.isclose(slowest, lam)) > len(k) / 2
    # v's dark field is 1, so 1/|v| is its overlap with the unit dark direction
    assert np.min(1.0 / np.linalg.norm(v, axis=1)) >= 0.99
    theta = math.atan2(sc.medium.g_root_n, omega)
    overlaps = np.abs(math.cos(theta) * vecs[:, 0] - math.sin(theta) * vecs[:, 2]) / np.linalg.norm(vecs, axis=1)
    assert np.max(np.sort(overlaps, axis=1)[:, -2]) <= 0.1


@pytest.mark.parametrize("delta_p, delta", [(0.0, 0.0), (500.0, 0.0), (0.0, 2e6), (2000.0, 1e8)])
@pytest.mark.parametrize("cot_theta", [1e-6, 1e-5, 1e-4, 5.1e-4, 1e-2, 1e-1])
def test_the_stationary_dark_state_has_the_laws_bright_ratio_times_cos2_theta(cot_theta, delta_p, delta):
    # At k = 0 under a constant control, the model's Phi/Psi is
    # bright_ratio cos^2 theta, and its probe fraction |E|/|Psi| is cos theta.
    p = dataclasses.replace(default_scenario().medium, delta_p=delta_p, delta=delta)
    omega = cot_theta * p.g_root_n
    theta = math.atan2(p.g_root_n, omega)
    e, _, sigma = dark_modes(p, omega, np.zeros(1))[1][0]  # sigma = sqrt(N) sigma_bc; Psi = 1
    phi = math.sin(theta) * e + math.cos(theta) * sigma
    assert abs(phi / (bright_ratio(theta, p) * math.cos(theta) ** 2) - 1.0) <= 3e-3
    assert abs(abs(e) / math.cos(theta) - 1.0) <= 1e-6
