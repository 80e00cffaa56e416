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

    Evenly means to within 1e-9 of span; every cadence check uses this rule.
    """
    n = int(round(span / step))
    if n < 1 or abs(n * step - span) > 1e-9 * span:
        return 0
    return n


# Largest grid a run may ask for. The 13 snapshots of a default-length run
# on 2^22 points already hold about 0.9 GB of complex samples.
MAX_POINTS = 2**22


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

    def norm(self) -> float:
        """L2 norm sqrt(integral |f|^2 dz)."""
        return float(math.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dz))


def gaussian_field(grid: GridSpec, amplitude: complex, center_z: float, width: float) -> FieldGrid:
    """amplitude * exp(-((z - center)/width)^2) sampled on the grid."""
    z = grid.z_array()
    vals = amplitude * np.exp(-(((z - center_z) / width) ** 2))
    return FieldGrid(grid, vals.astype(complex))


def field_columns(t: float, z: np.ndarray, fields) -> list[np.ndarray]:
    """Columns t, z, then Re, Im and |.| of each field, one entry per grid point.

    |.| is np.hypot of the parts: numpy's vectorised complex abs can differ
    in the last bit from the scalar abs that earlier artifacts were written
    with, and hypot does not.
    """
    cols = [np.full(len(z), t), z]
    for vals in fields:
        cols += [vals.real, vals.imag, np.hypot(vals.real, vals.imag)]
    return cols


def write_csv(path, header: str, tables, stride: int = 1) -> None:
    """Write header, then every stride-th row of each table as comma-separated floats.

    A table is a sequence of equal-length columns. Each value is written
    with 17 significant digits, which round-trips a double exactly and keeps
    artifacts byte-identical across runs.
    """
    if stride < 1:
        raise ConfigError(f"stride must be at least 1, got {stride}")
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for columns in tables:
            for row in zip(*[np.asarray(c, dtype=float)[::stride].tolist() for c in columns]):
                fh.write(",".join([format(float(x), ".17g") for x in row]) + "\n")
