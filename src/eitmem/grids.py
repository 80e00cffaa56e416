"""Uniform periodic z-grids and complex field samples.

Shared by the spectral solver and the brute-force reference integrator, which
must not depend on each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_finite


def whole_steps(span: float, step: float) -> int:
    """How many times step fits in span, or 0 unless it divides span evenly.

    Evenly means to within 1e-9 of span, in a finite count; every cadence check uses this rule.
    """
    ratio = span / step
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if n < 1 or abs(n * step - span) > 1e-9 * span:
        return 0
    return n


def snapshot_intervals(horizon: float, snapshot_dt: float) -> int:
    """The number of intervals of the snapshot clock (snapshot_times), counted without building it.

    Raises ConfigError unless both are finite and positive and snapshot_dt divides the horizon evenly.
    """
    for name, value in (("horizon", horizon), ("snapshot_dt", snapshot_dt)):
        require_finite(name, value)
        if not value > 0:
            raise ConfigError(f"{name} must be positive, got {value}")
    n = whole_steps(horizon, snapshot_dt)
    if not n:
        raise ConfigError(f"snapshot_dt {snapshot_dt} must divide the horizon {horizon} evenly")
    return n


def snapshot_times(horizon: float, snapshot_dt: float) -> list[float]:
    """The snapshot clock of every run, both engines alike: i * snapshot_dt for i below snapshot_intervals, then the horizon."""
    n = snapshot_intervals(horizon, snapshot_dt)
    return [i * snapshot_dt for i in range(n)] + [horizon]


# While every mode of a field on n points stays below ROOT_DBL_MAX / n, its
# samples, their squares and every FFT or squared-norm sum stay finite.
ROOT_DBL_MAX = math.sqrt(np.finfo(float).max)

# Largest grid a run may ask for. The 13 snapshots of a default-length run
# on 2^22 points already hold about 0.9 GB of complex samples, and that is
# the most samples a run may hold over all its snapshots.
MAX_POINTS = 2**22
MAX_SNAPSHOT_SAMPLES = 13 * MAX_POINTS


# The reference integrator's start carries a mode only where some field's
# mode is above this fraction of that field's largest.
KEPT_MODE_FLOOR = 1e-14


def kept_modes(modes) -> np.ndarray:
    """True at each mode where any row of modes, (rows, n) or one row of n, is above KEPT_MODE_FLOOR of that row's largest.

    An all-zero row keeps no mode.
    """
    size = np.abs(np.atleast_2d(modes))
    return np.any(size > KEPT_MODE_FLOOR * np.max(size, axis=-1, keepdims=True), axis=0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [z_min, z_max), periodic by construction."""

    z_min: float  # m
    z_max: float  # m
    n_points: int

    def __post_init__(self):
        require_finite("z_min", self.z_min)
        require_finite("z_max", self.z_max)
        if not self.z_max > self.z_min:
            raise ConfigError(f"z_max ({self.z_max}) must exceed z_min ({self.z_min})")
        n = self.n_points
        if n < 64:
            raise ConfigError(f"n_points must be at least 64, got {n}")
        if n > MAX_POINTS:
            raise ConfigError(f"n_points must be at most {MAX_POINTS}, got {n}")
        if n & (n - 1) != 0:
            raise ConfigError(f"n_points must be a power of two, got {n}")

    @property
    def length(self) -> float:
        return self.z_max - self.z_min

    @property
    def dz(self) -> float:
        return self.length / self.n_points

    def z_array(self) -> np.ndarray:
        return self.z_min + self.dz * np.arange(self.n_points)

    def k_array(self) -> np.ndarray:
        """Wavenumbers 2*pi*m/length in FFT ordering, rad/m."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dz)


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Complex amplitude samples of one field on a GridSpec."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_points,):
            raise ConfigError(
                f"field has {vals.shape} samples, grid expects ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(vals.view(float))):
            raise ConfigError("field contains non-finite samples")
        object.__setattr__(self, "values", vals)

    def peak(self) -> float:
        return float(np.max(np.abs(self.values)))


def squared_norm(values: np.ndarray) -> float:
    """Sum of |v|^2 over an array, as numpy pairwise sums of the real and imaginary parts.

    A BLAS dot product or norm hands a long vector to worker threads that
    sum in another order, so its last digits depend on the BLAS thread
    count; a pairwise sum gives the same bits on any thread count.
    """
    return float(np.sum(values.real**2) + np.sum(values.imag**2))


def gaussian_field(grid: GridSpec, amplitude: complex, center_z: float, width: float) -> FieldGrid:
    """amplitude * exp(-((z - center)/width)^2) sampled on the grid."""
    z = grid.z_array()
    vals = amplitude * np.exp(-(((z - center_z) / width) ** 2))
    return FieldGrid(grid, vals.astype(complex))


# Every float in a CSV artifact: 17 significant digits round-trip a double.
FLOAT_FORMAT = "%.17g"


def field_tables(z: np.ndarray, snapshots, stride: int):
    """write_csv tables of (t, fields) snapshots, one row per stride-th grid point.

    Each table's columns are t, z, then Re, Im and |.| of each field. t
    stays one float, so write_csv formats it once per table, and z is
    formatted here once for every table. The caller takes each field at
    the stride, so only the rows written are computed. |.| is np.hypot
    of the parts: numpy's vectorised complex abs can differ in the last bit
    from the scalar abs that earlier artifacts were written with, and hypot
    does not. Tables are made as they are read, so one snapshot's columns
    are held at a time.
    """
    if stride < 1:
        raise ConfigError(f"stride must be at least 1, got {stride}")
    z_text = [FLOAT_FORMAT % v for v in z[::stride].tolist()]

    def columns(t, fields):
        cols = [float(t), z_text]
        for vals in fields:
            re, im = vals.real, vals.imag
            cols += [re, im, np.hypot(re, im)]
        return cols

    return (columns(t, fields) for t, fields in snapshots)


def field_header(names) -> str:
    """The header line of a field CSV whose field_tables hold the fields `names`, in order.

    The columns are t, z, then re_X, im_X and abs_X of each field X, where
    X is the field's attribute name less a `_field` suffix: e_field is e.
    """
    columns = ["t", "z"]
    for name in names:
        x = name.removesuffix("_field")
        columns += [f"re_{x}", f"im_{x}", f"abs_{x}"]
    return ",".join(columns) + "\n"


def write_csv(path, header: str, tables) -> None:
    """Write header, then every row of each table as comma-separated floats.

    A table is a sequence of equal-length columns, where a float stands for
    that value on every row and a list of str is text written as it is. Each
    value is written with 17 significant digits, which round-trips a double
    exactly and keeps artifacts byte-identical across runs. A table's rows
    come from one precompiled % string, with its float columns already in
    it, and go out in one write.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for columns in tables:
            spec, values = [], []
            for col in columns:
                if isinstance(col, float):
                    spec.append(FLOAT_FORMAT % col)
                elif isinstance(col, list):
                    spec.append("%s")
                    values.append(col)
                else:
                    spec.append(FLOAT_FORMAT)
                    values.append(np.asarray(col, dtype=float).tolist())
            row = ",".join(spec) + "\n"
            fh.write("".join(map(row.__mod__, zip(*values))))
