from __future__ import annotations

import math

import numpy as np
import pytest

from eitmem.control import ControlSchedule
from eitmem.errors import ConfigError, ValidityError
from eitmem.model import MediumParams, PulseSpec, ValidityReport, check_regime
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


def test_regime_report_default_scenario():
    sc = default_scenario()
    report = check_regime(sc.medium, sc.pulse, sc.schedule)
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


def test_regime_report_flags_strong_probe():
    sc = default_scenario()
    hot = PulseSpec(amplitude=1e3, center_z=sc.pulse.center_z, width=sc.pulse.width)
    report = check_regime(sc.medium, hot, sc.schedule)
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
    import dataclasses

    sc = default_scenario()
    rng = np.random.default_rng(SEED)
    prev = check_regime(sc.medium, sc.pulse, sc.schedule).ratios["high_density"]
    for scale in (1e6, 1e7, 1e8):
        p = dataclasses.replace(sc.medium, delta=float(rng.uniform(0.5, 1.0)) * scale)
        ratio = check_regime(p, sc.pulse, sc.schedule).ratios["high_density"]
        assert ratio < prev
        prev = ratio


def test_constant_schedule_has_infinite_turn_time():
    sch = ControlSchedule(kind="constant", omega=1e9)
    assert math.isinf(sch.turn_time())
    sc = default_scenario()
    report = check_regime(sc.medium, sc.pulse, sch)
    assert report.checks["adiabatic_time"]
