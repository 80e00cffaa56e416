"""Closed-form coefficient algebra for the adiabatic polariton evolution.

The polariton spectral law multiplies each k-mode by exp(-I_s - i k I_w) with

    I_s = integral of s_part dt,   s_part = (i*delta_p + gamma_bc) sin^2(theta) + A0
    I_w = integral of w_part dt,   w_part = c (cos^2(theta) + B0)

A0 and B0 carry the non-ideal corrections (decay and detunings). The real and
imaginary parts of (s_part, w_part) are the damping alpha1, phase rate beta,
k-linear gain alpha2, and group velocity v_g. This module holds the exact
forms, the dark field's factors and the weak-probe ratio, and the resonance
special cases: every closed form of the law that the engine and the checks read.
The exact forms take a float or an array of mixing angles, elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularParametersError
from .model import MediumParams

# a0_b0 denominator guard, as a fraction of g^2 N; unreachable whenever the
# high-density condition holds.
SINGULAR_DENOMINATOR_FRACTION = 1e-30


@dataclass(frozen=True)
class CoefficientSample:
    """The complex pair (s_part, w_part) at one instant, or arrays over many.

    The named coefficients are fixed projections of the pair, so the
    decomposition s_part + i k w_part = alpha1 + i beta + k alpha2 + i k v_g
    holds for every real k by construction.
    """

    s_part: complex | np.ndarray  # 1/s
    w_part: complex | np.ndarray  # m/s

    @property
    def alpha1(self) -> float:
        """Uniform damping rate, 1/s."""
        return self.s_part.real

    @property
    def beta(self) -> float:
        """Uniform phase rotation rate, rad/s."""
        return self.s_part.imag

    @property
    def alpha2(self) -> float:
        """k-linear gain/loss coefficient, m/s. Zero only at two-photon resonance."""
        return -self.w_part.imag

    @property
    def v_g(self) -> float:
        """Group velocity, m/s."""
        return self.w_part.real


def _denominator(s2, params: MediumParams, what: str):
    """g^2 N + D_ba D_bc sin^2(theta), checked against the singular guard."""
    d_ba, d_bc = params.coherence_factors()
    den = params.g2n + d_ba * d_bc * s2
    smallest = np.abs(den).min(initial=math.inf)
    if smallest < SINGULAR_DENOMINATOR_FRACTION * params.g2n:
        raise SingularParametersError(
            f"{what} denominator of magnitude {smallest:.3e} vanished relative to g^2 N; "
            f"parameters sit outside the high-density regime"
        )
    return den


def _finite(value, what: str, params: MediumParams):
    """value, or SingularParametersError naming what where the law's products of rates and detunings overflowed."""
    if np.all(np.isfinite(value)):
        return value
    raise SingularParametersError(
        f"{what} overflowed for gamma_ba = {params.gamma_ba:.3g}, gamma_bc = {params.gamma_bc:.3g}, delta = "
        f"{params.delta:.3g}, delta_p = {params.delta_p:.3g} rad/s, past the range of the coefficient law"
    )


def a0_b0(theta, theta_dot, params: MediumParams):
    """Exact correction pair (A0, B0) at control-field instants.

    A0 has units 1/s and enters s_part; B0 is dimensionless and enters
    w_part. Both vanish in the ideal lossless resonant limit.
    """
    d_ba, d_bc = params.coherence_factors()
    sin_t = np.sin(theta)
    s2 = sin_t * sin_t
    dg = d_ba * d_bc
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports an overflow
        den = _denominator(s2, params, "coefficient")
        switch = np.where(theta_dot != 0.0, dg * np.tan(theta) * s2 * theta_dot, 0.0j)
        a0 = (switch - d_ba * d_bc * d_bc * s2 * s2) / den
        b0 = dg * s2 * s2 / den
    return _finite(a0, "A0", params), _finite(b0, "B0", params)


def bright_ratio(theta, params: MediumParams):
    """Adiabatic bright/dark amplitude ratio Phi/Psi, dimensionless."""
    d_ba, d_bc = params.coherence_factors()
    sin_t = np.sin(theta)
    s2 = sin_t * sin_t
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports an overflow
        den = _denominator(s2, params, "bright-ratio")
        return _finite(d_ba * d_bc * np.tan(theta) * s2 / den, "bright ratio Phi/Psi", params)


def field_factors(theta, params: MediumParams):
    """The factors that take the dark field to the bright field, the probe field and the lower-level coherence.

    The zeroth-order bright ratio depends on theta alone. Inverting the
    dark/bright superposition on (Psi, Phi) returns the probe and coherence
    exactly, so the round trip back to (Psi, Phi) is identity.
    """
    ratio = bright_ratio(theta, params)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    return ratio, cos_t + sin_t * ratio, -((sin_t - cos_t * ratio) / math.sqrt(params.n_atoms))


def weak_probe_ratio(params: MediumParams, theta, omega, amplitude):
    """Probe-to-control Rabi ratio g |E| / Omega for dark-field peaks amplitude at mixing angles theta, elementwise.

    |E| is amplitude times |probe factor|. A vanishing control Rabi
    frequency takes the ratio to inf, which fails the check.
    """
    e_peak = amplitude * np.abs(field_factors(theta, params)[1])
    with np.errstate(over="ignore"):
        return params.g * e_peak / omega


def exponent_integrand(theta, theta_dot, params: MediumParams) -> CoefficientSample:
    """Exact (s_part, w_part) with the corrections of a0_b0. The general code path.

    cos^2(theta) is taken as such: near 1e-10 in the stored window, 1 - sin^2 is 1e-7 off it.
    """
    a0, b0 = a0_b0(theta, theta_dot, params)
    _, d_bc = params.coherence_factors()
    s2 = np.sin(theta) ** 2
    s_part = d_bc * s2 + a0
    w_part = params.c * (np.cos(theta) ** 2 + b0)
    return CoefficientSample(s_part=s_part, w_part=w_part)


def v_g_min(params: MediumParams) -> float:
    """Residual group velocity c gamma_bc gamma_ba / g^2 N at resonance, m/s.

    This is the floor the group velocity approaches as theta -> pi/2; it is
    nonzero whenever gamma_bc is, which is what bounds the storage time.
    """
    return params.c * params.gamma_bc * params.gamma_ba / params.g2n


def max_transit_time(params: MediumParams) -> float:
    """Time for the residual drift to traverse the cell, s."""
    floor = v_g_min(params)
    if floor == 0.0:
        return math.inf
    return params.length / floor


def alpha1_slow_light(theta, theta_dot, params: MediumParams):
    """Resonant damping rate with the switching correction, 1/s.

    gamma_bc, plus a small term active only while theta moves, scaled by
    sin^2(theta).
    """
    switch = np.where(theta_dot != 0.0, np.tan(theta) * theta_dot, 0.0)
    rate = params.gamma_bc + (params.gamma_bc * params.gamma_ba / params.g2n) * switch
    return rate * np.sin(theta) ** 2
