from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from eitmem.coefficients import (
    a0_b0,
    alpha1_slow_light,
    bright_ratio,
    exponent_integrand,
    max_transit_time,
    v_g_min,
)
from eitmem.errors import SingularParametersError
from eitmem.model import MediumParams
from eitmem.scenario import default_scenario

from conftest import coeffs_high_density

SEED = 7
# sampled agreement between the exact route and the first-order expansion,
# frozen from a 2000-draw scan: worst 1.5e-5 at ratio 1e4, 2.8e-9 at 1e6
ROUTE_TOLERANCES = ((1e4, 1e-3), (1e6, 1e-5))


def _random_params(rng) -> MediumParams:
    return MediumParams(
        g=10.0 ** rng.uniform(4, 7),
        n_atoms=10.0 ** rng.uniform(6, 10),
        length=5e-3,
        cell_diameter=2e-4,
        nu_p=1.0,
        gamma_ba=10.0 ** rng.uniform(6, 9),
        gamma_bc=10.0 ** rng.uniform(2, 5),
        delta=float(rng.uniform(-1, 1)) * 10.0 ** rng.uniform(5, 8),
        delta_p=float(rng.uniform(-1, 1)) * 10.0 ** rng.uniform(1, 4),
    )


def _high_density_ratio(p: MediumParams) -> float:
    d_ba, d_bc = p.coherence_factors()
    return p.g2n / abs(d_ba * d_bc)


def test_exact_route_agrees_with_expansion_route():
    rng = np.random.default_rng(SEED)
    for floor, tol in ROUTE_TOLERANCES:
        checked = 0
        for _ in range(2000):
            p = _random_params(rng)
            if _high_density_ratio(p) < floor:
                continue
            checked += 1
            theta = float(rng.uniform(0.2, math.pi / 2 - 1e-4))
            tdot = float(rng.uniform(-1, 1)) * 1e4
            ex = exponent_integrand(theta, tdot, p)
            hd = coeffs_high_density(theta, tdot, p)
            assert abs(hd.s_part - ex.s_part) <= tol * max(abs(ex.s_part), 1e-300)
            assert abs(hd.w_part - ex.w_part) <= tol * max(abs(ex.w_part), 1e-300)
        assert checked > 500  # the draw ranges must actually hit the regime


def test_resonance_kills_alpha2_and_beta_exactly():
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        p = dataclasses.replace(_random_params(rng), delta=0.0, delta_p=0.0)
        theta = float(rng.uniform(0.1, math.pi / 2 - 1e-6))
        tdot = float(rng.uniform(-1, 1)) * 1e4
        for cs in (exponent_integrand(theta, tdot, p), coeffs_high_density(theta, tdot, p)):
            assert cs.alpha2 == 0.0
            assert cs.beta == 0.0
            assert cs.v_g > 0.0


def test_correction_pair_reference_values():
    # gamma_ba * gamma_bc^2 / g^2 N = 1e16/1e20 and DG/g^2 N = 1e-8
    p = default_scenario().medium
    for theta in (0.3, 0.9, 1.4, math.pi / 2 - 1e-6):
        a0, b0 = a0_b0(theta, 0.0, p)
        s4 = math.sin(theta) ** 4
        assert a0.real == pytest.approx(-1e-4 * s4, rel=1e-7)
        assert abs(a0.imag) <= 1e-20
        assert b0.real == pytest.approx(1e-8 * s4, rel=1e-7)


def test_switch_term_enters_through_theta_dot():
    p = default_scenario().medium
    theta = 1.2
    a0_static, _ = a0_b0(theta, 0.0, p)
    tdot = 2.5e4
    a0_moving, b0_moving = a0_b0(theta, tdot, p)
    d_ba, d_bc = p.coherence_factors()
    expected_extra = (
        d_ba * d_bc * math.tan(theta) * math.sin(theta) ** 2 * tdot
    ) / (p.g2n + d_ba * d_bc * math.sin(theta) ** 2)
    assert a0_moving - a0_static == pytest.approx(expected_extra, rel=1e-12)
    _, b0_static = a0_b0(theta, 0.0, p)
    assert b0_moving == b0_static


def test_group_velocity_floor_at_full_rotation():
    p = default_scenario().medium
    cs = exponent_integrand(math.pi / 2 - 1e-12, 0.0, p)
    dense = coeffs_high_density(math.pi / 2 - 1e-12, 0.0, p)
    floor = v_g_min(p)
    assert floor == pytest.approx(p.c * p.gamma_bc * p.gamma_ba / p.g2n, rel=1e-15)
    # the exact route keeps the 1/(1 + DG/g^2 N) denominator, a 1e-8 dent here
    assert cs.v_g == pytest.approx(floor, rel=2e-8)
    assert dense.v_g == pytest.approx(floor, rel=1e-12)


def test_instantaneous_velocity_of_shipped_schedule():
    # frozen: x(0) = 5.0876e-4 gives c x^2/(1+x^2) + v_floor sin^4 = 80.5963 m/s
    sc = default_scenario()
    sample = sc.schedule.eval(sc.medium, 0.0)
    cs = exponent_integrand(sample.theta, sample.theta_dot, sc.medium)
    assert cs.v_g == pytest.approx(80.596329833943, rel=1e-9)


def test_conjugation_symmetry_under_detuning_flip():
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        p = _random_params(rng)
        flipped = dataclasses.replace(p, delta=-p.delta, delta_p=-p.delta_p)
        theta = float(rng.uniform(0.2, math.pi / 2 - 1e-4))
        tdot = float(rng.uniform(-1, 1)) * 1e4
        cs = exponent_integrand(theta, tdot, p)
        cs_f = exponent_integrand(theta, tdot, flipped)
        assert cs_f.s_part == pytest.approx(cs.s_part.conjugate(), rel=1e-12)
        assert cs_f.w_part == pytest.approx(cs.w_part.conjugate(), rel=1e-12)


def test_coefficient_sample_decomposition_is_consistent():
    cs = coeffs_high_density(1.1, 3e3, default_scenario().medium, t=2e-5)
    assert cs.t == 2e-5
    assert cs.s_part == complex(cs.alpha1, cs.beta)
    assert cs.w_part == complex(cs.v_g, -cs.alpha2)


def test_bright_ratio_reference_values():
    # frozen: DG tan(theta) sin^2 / (g^2 N + DG sin^2) at the window extremes
    sc = default_scenario()
    p = sc.medium
    on = sc.schedule.eval(p, 0.0)
    off = sc.schedule.eval(p, 75e-6)
    f_on = bright_ratio(on.theta, p)
    f_off = bright_ratio(off.theta, p)
    assert abs(f_on) == pytest.approx(1.9655485521146573e-05, rel=1e-8)
    assert abs(f_off) == pytest.approx(9.916309988804116e-04, rel=1e-8)
    assert abs(f_off) < 1.0


def test_transit_time_budget():
    p = default_scenario().medium
    assert max_transit_time(p) == pytest.approx(5e-3 / v_g_min(p), rel=1e-12)
    lossless = dataclasses.replace(p, gamma_bc=0.0)
    assert math.isinf(max_transit_time(lossless))


def test_degenerate_denominator_is_reported():
    p = MediumParams(
        g=1.0,
        n_atoms=1e6,
        length=1.0,
        cell_diameter=0.1,
        nu_p=1.0,
        gamma_ba=1e-300,
        gamma_bc=0.0,
        delta=0.0,
        delta_p=1e3,
    )
    with pytest.raises(SingularParametersError):
        a0_b0(math.pi / 2, 0.0, p)


def test_slow_light_attenuation_limit():
    # with sin(theta) ~ 1 the attenuation rate collapses to gamma_bc
    p = default_scenario().medium
    rate = alpha1_slow_light(math.pi / 2 - 1e-8, 0.0, p)
    assert rate == pytest.approx(p.gamma_bc, rel=1e-4)
    # away from full rotation the sin^2(theta) factor stays
    free = alpha1_slow_light(1.0, 0.0, p)
    assert free == pytest.approx(p.gamma_bc * math.sin(1.0) ** 2, rel=1e-15)
