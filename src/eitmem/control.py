"""Control-field schedules: mixing angle theta(t), its rate, and Omega(t).

The control strength is parametrized through cot(theta) = Omega/(g sqrt(N)).
All schedules keep cot(theta) strictly positive: the control field is reduced
to a small value, never switched fully off, so theta stays below pi/2 and the
polariton remains well defined at every instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, require_finite
from .model import MediumParams, omega_from_theta, theta_from_omega

SCHEDULE_KINDS = ("constant", "tanh_profile", "tabulated")

# Tabulated schedules must be dense enough that piecewise-linear
# interpolation of theta is already accurate; checked at construction.
TABULATED_DENSITY_TOL = 1e-6  # rad

# Instants this close, relative to their size, are one: a time reached by two
# sums, such as a snapshot time and a scan point, rounds an ulp or two apart.
INSTANT_RTOL = 1e-12


class ControlSample(NamedTuple):
    """One sample per requested time: floats for a float time, arrays for an array."""

    theta: float | np.ndarray  # rad
    theta_dot: float | np.ndarray  # rad/s
    omega: float | np.ndarray  # rad/s


def _sech2(y):
    """sech^2(y), overflow-safe for large |y|."""
    e = np.exp(-2.0 * np.abs(y))
    return 4.0 * e / (1.0 + e) ** 2


@dataclass(frozen=True)
class ControlSchedule:
    """One control-field time profile.

    kind 'constant' holds omega fixed. kind 'tanh_profile' is the smooth
    off/on switch

        cot(theta) = scale*(1 - 0.5*tanh(s*(t-t1)) + 0.5*tanh(s*(t-t2))) + floor

    with steepness s; the plateau before t1 and after t2 has cot(theta)
    approach scale + floor, the window between them has cot(theta) approach
    floor. kind 'tabulated' interpolates (time, theta) samples with a
    monotone cubic.
    """

    kind: str
    omega: float = 0.0  # rad/s, constant kind only
    scale: float = 5.0e-4  # cot(theta) plateau height, tanh kind
    floor: float = 1.0e-5  # cot(theta) minimum, must stay positive
    steepness: float = 1.0e5  # 1/s
    t1: float = 30.0e-6  # s, switch-off center
    t2: float = 125.0e-6  # s, switch-on center
    times: tuple[float, ...] = ()  # s, tabulated knots
    thetas: tuple[float, ...] = ()  # rad, tabulated values

    def __post_init__(self):
        for name in ("omega", "scale", "floor", "steepness", "t1", "t2", "times", "thetas"):
            require_finite(name, getattr(self, name))
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}, expected one of {SCHEDULE_KINDS}")
        if self.kind == "constant":
            if self.omega <= 0:
                raise ConfigError(
                    f"constant schedule needs omega > 0 (got {self.omega}); the "
                    f"control field is reduced to small values, never to zero"
                )
        elif self.kind == "tanh_profile":
            if self.scale <= 0:
                raise ConfigError(f"scale must be positive, got {self.scale}")
            if self.floor <= 0:
                raise ConfigError(
                    f"floor must be positive (got {self.floor}); a zero floor turns "
                    f"the control field fully off and theta reaches pi/2"
                )
            # eval squares cot(theta) and scales it by g sqrt(N). A finite
            # square of its largest value keeps both finite: g^2 N is finite
            # (MediumParams), so g sqrt(N) is below the root of the largest float.
            plateau = self.scale + self.floor
            if math.isinf(plateau * plateau):
                raise ConfigError(f"the cot(theta) plateau scale + floor = {plateau!r} overflows when squared")
            if self.steepness <= 0:
                raise ConfigError(f"steepness must be positive, got {self.steepness}")
            if not self.t2 > self.t1:
                raise ConfigError(f"t2 must exceed t1, got t1={self.t1}, t2={self.t2}")
        else:
            self._init_tabulated()

    def _init_tabulated(self):
        if len(self.times) != len(self.thetas):
            raise ConfigError("times and thetas must have equal length")
        if len(self.times) < 2:
            raise ConfigError("tabulated schedule needs at least 2 samples")
        t = np.asarray(self.times, dtype=float)
        th = np.asarray(self.thetas, dtype=float)
        if not np.all(np.diff(t) > 0):
            raise ConfigError("tabulated times must be strictly increasing")
        if np.any(th <= 0) or np.any(th >= 0.5 * math.pi):
            raise ConfigError("tabulated thetas must lie strictly inside (0, pi/2)")
        # The tanh plateau's bound, at the smallest theta: the cubic stays between its knots.
        cot_max = 1.0 / math.tan(th.min())
        if math.isinf(cot_max * cot_max):
            raise ConfigError(f"cot(theta) at the smallest of thetas, {cot_max!r}, overflows when squared")
        object.__setattr__(self, "_cubic", (t, _monotone_cubic(t, th)))
        # Density check: a midpoint refinement must agree with straight
        # linear interpolation, otherwise the table undersamples theta(t).
        mid = 0.5 * (t[:-1] + t[1:])
        linear = 0.5 * (th[:-1] + th[1:])
        gap = np.max(np.abs(_cubic_at(*self._cubic, mid)[0] - linear))
        if gap > TABULATED_DENSITY_TOL:
            raise ConfigError(
                f"tabulated schedule too sparse: midpoint interpolation differs "
                f"from linear by {gap:.3e} rad (limit {TABULATED_DENSITY_TOL:.1e}); "
                f"add samples where theta bends"
            )

    def _cot_theta(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """tanh profile: (x, dx/dt) with x = cot(theta)."""
        s = self.steepness
        y1 = s * (t - self.t1)
        y2 = s * (t - self.t2)
        x = self.scale * (1.0 - 0.5 * np.tanh(y1) + 0.5 * np.tanh(y2)) + self.floor
        xdot = self.scale * s * (-0.5 * _sech2(y1) + 0.5 * _sech2(y2))
        return x, xdot

    def eval(self, params: MediumParams, t) -> ControlSample:
        """Sample (theta, theta_dot, omega) at time t, a float or an array of times."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            theta = np.full(t.shape, theta_from_omega(self.omega, params.g, params.n_atoms))
            omega = np.full(t.shape, self.omega)
            return ControlSample(theta[()], np.zeros(t.shape)[()], omega[()])
        if self.kind == "tanh_profile":
            x, xdot = self._cot_theta(t)
            theta = np.arctan(1.0 / x)  # x > 0 always, so theta in (0, pi/2)
            theta_dot = -xdot / (1.0 + x * x)
            return ControlSample(theta[()], theta_dot[()], (params.g_root_n * x)[()])
        # tabulated: hold the endpoint values outside the table
        tc = np.clip(t, self.times[0], self.times[-1])
        theta, theta_dot = _cubic_at(*self._cubic, tc)
        inside = (self.times[0] < t) & (t < self.times[-1])
        theta_dot = np.where(inside, theta_dot, 0.0)
        omega = omega_from_theta(theta, params.g, params.n_atoms)
        return ControlSample(theta[()], theta_dot[()], omega[()])

    def breakpoints(self) -> tuple[float, ...]:
        """Times where the profile changes character; quadrature splits here."""
        if self.kind == "constant":
            return ()
        if self.kind == "tanh_profile":
            halfwidth = 5.0 / self.steepness
            pts = (
                self.t1 - halfwidth,
                self.t1,
                self.t1 + halfwidth,
                self.t2 - halfwidth,
                self.t2,
                self.t2 + halfwidth,
            )
            return tuple(sorted(set(pts)))
        return tuple(self.times)

    def turn_time(self, horizon: float) -> float:
        """Switching duration over [0, horizon], s: inf if constant; for a tanh profile 1/steepness where a switch window t_i -+ 5/steepness, the breakpoints' half-width, meets the span, inf where neither does; a table's swing in theta over the span divided by its fastest rate there."""
        if self.kind == "constant":
            return math.inf
        if self.kind == "tanh_profile":
            halfwidth = 5.0 / self.steepness
            return 1.0 / self.steepness if any(-halfwidth <= t <= horizon + halfwidth for t in (self.t1, self.t2)) else math.inf
        t = np.asarray(self.times)
        span = np.clip([0.0, horizon], t[0], t[-1])
        theta, rate = _cubic_at(*self._cubic, np.linspace(*span, 20 * len(t)))
        # The cubic is monotone between knots, so its extremes on the span are at the knots
        # there or at the span's ends; at the last knot the table's own value is exact.
        knots = np.asarray(self.thetas)[(span[0] <= t) & (t <= span[1])]
        swing = float(np.ptp(np.concatenate([knots, theta[[0, -1]][span < t[-1]]])))
        rate = float(np.max(np.abs(rate)))
        return swing / rate if rate > 0.0 and swing > 0.0 else math.inf

    def sample_times(self, horizon: float) -> np.ndarray:
        """The times a pre-run scan reads, in [0, horizon] with both ends: a tanh profile's plateaus and switches, a table's knots and midpoints."""
        pts = np.array([0.0])
        if self.kind == "tanh_profile":
            w = 8.0 / self.steepness
            switches = np.concatenate([np.linspace(self.t1 - w, self.t1 + w, 33), np.linspace(self.t2 - w, self.t2 + w, 33)])
            pts = np.concatenate([pts, switches, [0.5 * (self.t1 + self.t2), self.t2 + 1.5 * w]])
        elif self.kind == "tabulated":
            t = np.asarray(self.times)
            pts = np.concatenate([pts, t, 0.5 * (t[:-1] + t[1:])])
        # The horizon closes the scan; a point within INSTANT_RTOL below it is that instant.
        return _sorted_distinct(np.append(pts[(pts >= 0.0) & (pts < horizon * (1.0 - INSTANT_RTOL))], horizon))


def _monotone_cubic(t: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Coefficients (c3, c2, c1, c0), one column per interval, of the monotone
    piecewise-cubic Hermite interpolant of th(t) in powers of (time - t[i]).

    Knot slopes follow PCHIP (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 238
    (1980)): inside the table the Fritsch-Butland weighted harmonic mean of
    the two secants, or 0 where they change sign or one is flat; at each end
    the three-point one-sided slope, limited to keep the shape. A two-knot
    table is linear. Every slope is at most three times its neighbouring
    secants, so each cubic stays between its two knot values.
    """
    h = np.diff(t)
    m = np.diff(th) / h
    d = np.full(th.shape, m[0])
    if len(t) > 2:
        same = (np.sign(m[:-1]) == np.sign(m[1:])) & (m[:-1] != 0.0)
        w1 = (2.0 * h[1:] + h[:-1])[same]
        w2 = (h[1:] + 2.0 * h[:-1])[same]
        d[1:-1] = 0.0
        d[1:-1][same] = (w1 + w2) / (w1 / m[:-1][same] + w2 / m[1:][same])
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    k = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.array([k / h, (m - d[:-1]) / h - k, d[:-1], th[:-1]])


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at a table end, set to 0 where its sign
    differs from the end secant's and limited to 3*m0 where the secants change sign."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _cubic_at(knots: np.ndarray, coefficients: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """The cubic of _monotone_cubic and its rate at times t inside the table."""
    # segment i holds knots[i] <= t < knots[i + 1]; the last holds the last knot too
    i = np.searchsorted(knots[1:-1], t, side="right")
    c3, c2, c1, c0 = coefficients[:, i]
    s = t - knots[i]
    return ((c3 * s + c2) * s + c1) * s + c0, (3.0 * c3 * s + 2.0 * c2) * s + c1


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """A 1-D float array without NaN sorted, less each value within INSTANT_RTOL of the one before; np.unique imports numpy.ma."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] - x[:-1] > INSTANT_RTOL * np.abs(x[1:])))]
