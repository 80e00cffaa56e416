"""Brute-force integrator for the reduced three-field system.

This is the validation path: the probe envelope advects at c while the two
atomic coherences respond locally,

    (d/dt + c d/dz) E = i g N sigma_ba
    d sigma_ba / dt = -(i(delta+delta_p) + gamma_ba) sigma_ba + i g E + i Omega sigma_bc
    d sigma_bc / dt = -(i delta_p + gamma_bc) sigma_bc + i Omega* sigma_ba

No adiabatic elimination, no closed-form coefficients: this module must stay
independent of the spectral engine so the two can check each other. It only
shares the grid containers and CSV writer, the parameter record, and the
control schedule.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .control import ControlSchedule
from .errors import ConfigError, InvalidComparisonError, SimulationError
from .grids import FieldGrid, GridSpec, field_columns, whole_steps, write_csv
from .model import MediumParams

# Coupling propagators are built for at most this many step midpoints at a
# time, so memory stays flat however small dt is.
CHUNK_STEPS = 1024
# The 3x3 mode update runs on column blocks this wide. OpenBLAS hands a
# gemm to its thread pool once m*n*k passes a build-time threshold (between
# 3*3*4096 and 3*3*8192 for the OpenBLAS bundled with numpy 2.4), and for
# products this small the hand-off costs far more than it saves.
BLOCK_POINTS = 2048

# Pade-13 coefficients and scaling threshold: Higham, SIAM J. Matrix Anal.
# Appl. 26, 1179 (2005); Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
# 970 (2009).
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 4.25


@dataclass(frozen=True)
class OracleState:
    """All three fields at one instant."""

    e_field: FieldGrid
    sigma_ba: FieldGrid
    sigma_bc: FieldGrid
    t: float  # s

    def __post_init__(self):
        if not (self.e_field.grid == self.sigma_ba.grid == self.sigma_bc.grid):
            raise ConfigError("oracle fields must share one grid")


@dataclass(frozen=True)
class OracleConfig:
    dt: float  # s
    snapshot_dt: float  # s

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.snapshot_dt) and self.snapshot_dt > 0):
            raise ConfigError(f"snapshot_dt must be positive and finite, got {self.snapshot_dt}")


def _substeps(horizon: float, dt: float, snapshot_dt: float) -> tuple[int, int]:
    n_steps = whole_steps(horizon, dt)
    if not n_steps:
        raise ConfigError(f"dt {dt} must divide the horizon {horizon} evenly")
    per_snap = whole_steps(snapshot_dt, dt)
    if not per_snap:
        raise ConfigError(f"dt {dt} must divide snapshot_dt {snapshot_dt} evenly")
    if n_steps % per_snap != 0:
        raise ConfigError(
            f"snapshot_dt {snapshot_dt} must divide the horizon {horizon} evenly"
        )
    return n_steps, per_snap


def expm(a) -> np.ndarray:
    """Matrix exponential of every square matrix in a (..., n, n) stack.

    Pade-13 with scaling and squaring, numpy only. The scaling power comes
    from the norms of low matrix powers, ||A^k||^(1/k), rather than from
    ||A||, so a strongly non-normal matrix is not over-scaled.
    """
    a = np.asarray(a, dtype=complex)
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a @ a
        a4 = a2 @ a2
        a8 = a4 @ a4
        eta = np.minimum(
            np.maximum(_norm1(a4) ** (1 / 4), _norm1(a4 @ a2) ** (1 / 6)),
            np.maximum(_norm1(a8) ** (1 / 8), _norm1(a8 @ a2) ** (1 / 10)),
        )
    # where a power overflows, ||A|| stands in: it bounds every ||A^k||^(1/k)
    eta = np.where(np.isfinite(eta), eta, _norm1(a))
    # smallest s >= 0 (up to one) with eta / 2**s < theta
    s = np.maximum(np.frexp(eta / _THETA13)[1], 0)
    a = a * (0.5**s)[:, None, None]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _PADE13
    eye = np.eye(shape[-1])
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    x = np.linalg.solve(v - u, v + u)
    for j in range(int(s.max(initial=0))):
        squaring = s > j
        x[squaring] = x[squaring] @ x[squaring]
    return x.reshape(shape)


def _norm1(a: np.ndarray) -> np.ndarray:
    """Largest absolute column sum of each matrix in a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _coupling_matrix(params: MediumParams, omega: np.ndarray) -> np.ndarray:
    """Balanced generator of the local atomic block, one per control value.

    The block acting on (E, sigma_ba, sigma_bc) is
    M = [[0, i g N, 0], [i g, -d_ba, i Omega], [0, i Omega*, -d_bc]].
    Returned is D M D^-1 with D = diag(1, sqrt N, sqrt N): both field
    couplings become i g sqrt N, which cuts the norm by a factor of about
    sqrt N and with it the squarings expm needs.
    """
    omega = np.asarray(omega)
    d_ba, d_bc = params.coherence_factors()
    m = np.zeros(omega.shape + (3, 3), dtype=complex)
    m[..., 0, 1] = m[..., 1, 0] = 1j * params.g_root_n
    m[..., 1, 1] = -d_ba
    m[..., 1, 2] = 1j * omega
    m[..., 2, 1] = 1j * np.conj(omega)
    m[..., 2, 2] = -d_bc
    return m


def _propagators(params: MediumParams, omega: np.ndarray, dt: float) -> np.ndarray:
    """exp(M dt) for each control value, by way of the balanced generator."""
    p = expm(_coupling_matrix(params, omega) * dt)
    root_n = math.sqrt(params.n_atoms)
    p[..., 0, 1:] *= root_n
    p[..., 1:, 0] /= root_n
    return p


def _step_propagators(params, schedule, t0, dt, n_steps):
    """Yield the coupling propagator of each step, frozen at its midpoint."""
    if schedule.kind == "constant":
        propagator = _propagators(params, schedule.eval(params, t0).omega, dt)
        for _ in range(n_steps):
            yield propagator
        return
    for start in range(0, n_steps, CHUNK_STEPS):
        t_mid = t0 + (np.arange(start, min(start + CHUNK_STEPS, n_steps)) + 0.5) * dt
        omega = schedule.eval(params, t_mid).omega
        yield from _propagators(params, omega, dt)


def integrate_reduced(
    params: MediumParams,
    grid: GridSpec,
    initial: OracleState,
    schedule: ControlSchedule,
    horizon: float,
    cfg: OracleConfig,
    progress: Callable[[int, int, float], None] | None = None,
) -> list[OracleState]:
    """March the reduced system and return states at snapshot cadence.

    Symmetric (second order, Strang) splitting: the advection term is an
    exact spectral phase over each half step, and the local atomic-coupling
    block is the exact matrix exponential of its generator frozen at the
    step midpoint. progress, if given, is called as
    progress(steps_done, n_steps, t) after each snapshot.
    """
    if initial.e_field.grid != grid:
        raise ConfigError("initial state grid does not match the run grid")
    n_steps, per_snap = _substeps(horizon, cfg.dt, cfg.snapshot_dt)
    n = grid.n_points
    dt = cfg.dt
    half_phase = np.exp(-1j * grid.k_array() * params.c * dt / 2.0)
    stack = np.vstack(
        [
            np.fft.fft(initial.e_field.values),
            np.fft.fft(initial.sigma_ba.values),
            np.fft.fft(initial.sigma_bc.values),
        ]
    )
    spare = np.empty_like(stack)
    t0 = initial.t

    states = [initial]
    for i, propagator in enumerate(_step_propagators(params, schedule, t0, dt, n_steps)):
        stack[0] *= half_phase
        for c in range(0, n, BLOCK_POINTS):
            block = slice(c, c + BLOCK_POINTS)
            np.matmul(propagator, stack[:, block], out=spare[:, block])
        stack, spare = spare, stack
        stack[0] *= half_phase
        if (i + 1) % per_snap == 0:
            t = t0 + (i + 1) * dt
            # A non-finite value never turns finite in later steps, so one
            # check per interval catches it; it must come before FieldGrid,
            # which would reject the samples as a configuration error.
            if not np.all(np.isfinite(stack)):
                raise SimulationError(
                    f"oracle produced non-finite values in "
                    f"[{t - per_snap * dt:.6e}, {t:.6e}] s"
                )
            states.append(
                OracleState(
                    e_field=FieldGrid(grid, np.fft.ifft(stack[0])),
                    sigma_ba=FieldGrid(grid, np.fft.ifft(stack[1])),
                    sigma_bc=FieldGrid(grid, np.fft.ifft(stack[2])),
                    t=t,
                )
            )
            if progress is not None:
                progress(i + 1, n_steps, t)
    return states


@dataclass(frozen=True)
class ComparisonReport:
    """Per-snapshot discrepancy between the oracle and the spectral engine."""

    observable: str
    times: tuple[float, ...]
    linf_rel: tuple[float, ...]
    l2_rel: tuple[float, ...]
    max_linf: float
    max_l2: float
    failed_checks: tuple[str, ...]
    ratios: dict
    attribution: str

    def to_dict(self) -> dict:
        return {
            "observable": self.observable,
            "times": list(self.times),
            "linf_rel": list(self.linf_rel),
            "l2_rel": list(self.l2_rel),
            "max_linf": self.max_linf,
            "max_l2": self.max_l2,
            "failed_checks": list(self.failed_checks),
            "ratios": dict(self.ratios),
            "attribution": self.attribution,
        }


def compare_to_adiabatic(
    oracle_run: list[OracleState], adiabatic_run, observable: str = "e_field"
) -> ComparisonReport:
    """Relative L-inf and L2 discrepancy per matched snapshot time.

    adiabatic_run is any object with .snapshots carrying t/e_field/sigma_bc
    and a .validity report; the validity ratios ride along so an
    out-of-tolerance comparison points at which assumption broke.
    """
    if observable not in ("e_field", "sigma_bc"):
        raise InvalidComparisonError(f"observable must be e_field or sigma_bc, got {observable!r}")
    snaps = list(adiabatic_run.snapshots)
    if not oracle_run or not snaps:
        raise InvalidComparisonError("nothing to compare: empty run")
    if oracle_run[0].e_field.grid != snaps[0].psi.grid:
        raise InvalidComparisonError("oracle and adiabatic runs use different grids")
    span = max(abs(s.t) for s in oracle_run) or 1.0
    tol = 1e-6 * span
    times = []
    linf = []
    l2 = []
    for ostate in oracle_run:
        partner = min(snaps, key=lambda s: abs(s.t - ostate.t))
        if abs(partner.t - ostate.t) > tol:
            continue
        o = getattr(ostate, observable).values
        a = getattr(partner, observable).values
        diff = o - a
        denom_inf = max(float(np.max(np.abs(o))), float(np.max(np.abs(a))), 1e-300)
        denom_l2 = max(float(np.linalg.norm(o)), float(np.linalg.norm(a)), 1e-300)
        times.append(ostate.t)
        linf.append(float(np.max(np.abs(diff))) / denom_inf)
        l2.append(float(np.linalg.norm(diff)) / denom_l2)
    if not times:
        raise InvalidComparisonError("no snapshot times matched between the two runs")
    validity = adiabatic_run.validity
    failed = tuple(validity.failed())
    ratios = {
        "high_density_ratio": validity.high_density_ratio,
        "adiabatic_length_ratio": validity.adiabatic_length_ratio,
        "adiabatic_time_ratio": validity.adiabatic_time_ratio,
        "adiabatic_parameter": validity.adiabatic_parameter,
        "low_intensity_ratio": validity.low_intensity_ratio,
    }
    if failed:
        attribution = "discrepancy attributable to failed checks: " + ", ".join(
            f"{name} ({ratios.get(name + '_ratio', ratios.get(name, float('nan'))):.3g})"
            for name in failed
        )
    else:
        attribution = "all adiabaticity checks passed; runs should agree"
    return ComparisonReport(
        observable=observable,
        times=tuple(times),
        linf_rel=tuple(linf),
        l2_rel=tuple(l2),
        max_linf=max(linf),
        max_l2=max(l2),
        failed_checks=failed,
        ratios=ratios,
        attribution=attribution,
    )


def write_oracle_csv(states: list[OracleState], path, cfg: OracleConfig, stride: int = 1):
    """Snapshot rows in the solver CSV layout, with a provenance header."""
    if not states:
        raise ConfigError("no states to write")
    z = states[0].e_field.grid.z_array()
    header = (
        f"# scheme=splitting_spectral_advection dt={cfg.dt!r}\n"
        "t,z,re_e,im_e,abs_e,re_sigma_ba,im_sigma_ba,abs_sigma_ba,"
        "re_sigma_bc,im_sigma_bc,abs_sigma_bc\n"
    )
    tables = (
        field_columns(st.t, z, (st.e_field.values, st.sigma_ba.values, st.sigma_bc.values))
        for st in states
    )
    write_csv(path, header, tables, stride)
