"""Control-field schedules: mixing angle theta(t), its rate, and Omega(t).

The control strength is parametrized through cot(theta) = Omega/(g sqrt(N)).
All schedules keep cot(theta) strictly positive: the control field is reduced
to a small value, never switched fully off, so theta stays below pi/2 and the
polariton remains well defined at every instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ConfigError, require_finite
from .model import MediumParams, omega_from_theta, theta_from_omega

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
class ConstantSchedule:
    """A control field held at omega: theta never moves, so there are no
    breakpoints, the turn time is inf, and a scan reads t = 0 and the horizon."""

    kind: ClassVar[str] = "constant"
    omega: float  # rad/s

    def __post_init__(self):
        for f in fields(self):
            require_finite(f.name, getattr(self, f.name))
        if self.omega <= 0:
            raise ConfigError(f"constant schedule needs omega > 0 (got {self.omega}); the control field is reduced to small values, never to zero")

    def eval(self, params: MediumParams, t) -> ControlSample:
        t = np.asarray(t, dtype=float)
        theta = np.full(t.shape, theta_from_omega(self.omega, params.g, params.n_atoms))
        omega = np.full(t.shape, self.omega)
        return ControlSample(theta[()], np.zeros(t.shape)[()], omega[()])

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def turn_time(self, horizon: float) -> float:
        return math.inf

    def sample_times(self, horizon: float) -> np.ndarray:
        return _scan(np.array([0.0]), horizon)


@dataclass(frozen=True)
class TanhSchedule:
    """The smooth off/on switch

        cot(theta) = scale*(1 - 0.5*tanh(s*(t-t1)) + 0.5*tanh(s*(t-t2))) + floor

    with steepness s; the plateau before t1 and after t2 has cot(theta)
    approach scale + floor, the window between them has cot(theta) approach
    floor.
    """

    kind: ClassVar[str] = "tanh_profile"
    scale: float = 5.0e-4  # cot(theta) plateau height
    floor: float = 1.0e-5  # cot(theta) minimum, must stay positive
    steepness: float = 1.0e5  # 1/s
    t1: float = 30.0e-6  # s, switch-off center
    t2: float = 125.0e-6  # s, switch-on center

    def __post_init__(self):
        for f in fields(self):
            require_finite(f.name, getattr(self, f.name))
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.floor <= 0:
            raise ConfigError(f"floor must be positive (got {self.floor}); a zero floor turns the control field fully off and theta reaches pi/2")
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

    def eval(self, params: MediumParams, t) -> ControlSample:
        """Sample (theta, theta_dot, omega) at time t, a float or an array of times."""
        t = np.asarray(t, dtype=float)
        s = self.steepness
        y1 = s * (t - self.t1)
        y2 = s * (t - self.t2)
        x = self.scale * (1.0 - 0.5 * np.tanh(y1) + 0.5 * np.tanh(y2)) + self.floor  # cot(theta)
        xdot = self.scale * s * (-0.5 * _sech2(y1) + 0.5 * _sech2(y2))
        theta = np.arctan(1.0 / x)  # x > 0 always, so theta in (0, pi/2)
        theta_dot = -xdot / (1.0 + x * x)
        return ControlSample(theta[()], theta_dot[()], (params.g_root_n * x)[()])

    def breakpoints(self) -> tuple[float, ...]:
        """Times where the profile changes character; quadrature splits here."""
        halfwidth = 5.0 / self.steepness
        return tuple(sorted({p for t in (self.t1, self.t2) for p in (t - halfwidth, t, t + halfwidth)}))

    def turn_time(self, horizon: float) -> float:
        """Switching duration over [0, horizon], s: 1/steepness where a switch window t_i -+ 5/steepness, the breakpoints' half-width, meets the span, inf where neither does."""
        halfwidth = 5.0 / self.steepness
        return 1.0 / self.steepness if any(-halfwidth <= t <= horizon + halfwidth for t in (self.t1, self.t2)) else math.inf

    def sample_times(self, horizon: float) -> np.ndarray:
        """The times a pre-run scan reads, in [0, horizon] with both ends: the plateaus and both switches."""
        w = 8.0 / self.steepness
        switches = np.concatenate([np.linspace(self.t1 - w, self.t1 + w, 33), np.linspace(self.t2 - w, self.t2 + w, 33)])
        return _scan(np.concatenate([[0.0], switches, [0.5 * (self.t1 + self.t2), self.t2 + 1.5 * w]]), horizon)


@dataclass(frozen=True)
class TabulatedSchedule:
    """(time, theta) samples interpolated with a monotone cubic, the end values held outside the table."""

    kind: ClassVar[str] = "tabulated"
    times: tuple[float, ...]  # s, knots
    thetas: tuple[float, ...]  # rad, values

    def __post_init__(self):
        for f in fields(self):
            require_finite(f.name, getattr(self, f.name))
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
                f"tabulated schedule too sparse: midpoint interpolation differs from linear by {gap:.3e} rad "
                f"(limit {TABULATED_DENSITY_TOL:.1e}); add samples where theta bends"
            )

    def eval(self, params: MediumParams, t) -> ControlSample:
        """Sample (theta, theta_dot, omega) at time t, a float or an array of times."""
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, self.times[0], self.times[-1])
        theta, theta_dot = _cubic_at(*self._cubic, tc)
        inside = (self.times[0] < t) & (t < self.times[-1])
        theta_dot = np.where(inside, theta_dot, 0.0)
        omega = omega_from_theta(theta, params.g, params.n_atoms)
        return ControlSample(theta[()], theta_dot[()], omega[()])

    def breakpoints(self) -> tuple[float, ...]:
        """Times where the profile changes character; quadrature splits here: the knots."""
        return tuple(self.times)

    def turn_time(self, horizon: float) -> float:
        """Switching duration over [0, horizon], s: the swing in theta over the span divided by the cubic's fastest rate there; inf where theta does not move."""
        t = np.asarray(self.times)
        span = np.clip([0.0, horizon], t[0], t[-1])
        # The cubic is monotone between knots, so its extremes on the span are at the knots
        # there or at the span's ends; at the last knot the table's own value is exact.
        knots = np.asarray(self.thetas)[(span[0] <= t) & (t <= span[1])]
        swing = float(np.ptp(np.concatenate([knots, _cubic_at(*self._cubic, span)[0][span < t[-1]]])))
        # Each piece's rate is a quadratic in s = time - knot, so on the piece's share
        # [lo, hi] of the span its size peaks at lo, at hi or at the vertex.
        meets = (t[1:] >= span[0]) & (t[:-1] <= span[1])
        start, (c3, c2, c1, _) = t[:-1][meets], self._cubic[1][:, meets]
        lo, hi = np.maximum(start, span[0]) - start, np.minimum(t[1:][meets], span[1]) - start
        s = np.clip([lo, hi, np.divide(-c2, 3.0 * c3, out=lo.copy(), where=c3 != 0.0)], lo, hi)
        rate = float(np.max(np.abs((3.0 * c3 * s + 2.0 * c2) * s + c1)))
        return swing / rate if rate > 0.0 and swing > 0.0 else math.inf

    def sample_times(self, horizon: float) -> np.ndarray:
        """The times a pre-run scan reads, in [0, horizon] with both ends: the knots and their midpoints."""
        t = np.asarray(self.times)
        return _scan(np.concatenate([[0.0], t, 0.5 * (t[:-1] + t[1:])]), horizon)


# The annotation every consumer of a schedule takes.
ControlSchedule = ConstantSchedule | TanhSchedule | TabulatedSchedule
# Each [schedule] kind of a scenario file, by its INI name.
SCHEDULES = {cls.kind: cls for cls in (ConstantSchedule, TanhSchedule, TabulatedSchedule)}


def _scan(pts: np.ndarray, horizon: float) -> np.ndarray:
    """pts in [0, horizon), sorted and distinct, closed by the horizon; a point within INSTANT_RTOL below it is that instant."""
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
