"""Brute-force integrator for the reduced three-field system.

This is the validation path: the probe envelope advects at c while the two
atomic coherences respond locally,

    (d/dt + c d/dz) E = i g N sigma_ba
    d sigma_ba / dt = -(i(delta+delta_p) + gamma_ba) sigma_ba + i g E + i Omega sigma_bc
    d sigma_bc / dt = -(i delta_p + gamma_bc) sigma_bc + i Omega* sigma_ba

No adiabatic elimination, no closed-form coefficients: this module must stay
independent of the spectral engine so the two can check each other. It only
shares the grid containers, snapshot clock and CSV writer, the parameter
record with its coupling block and dark eigenpairs, and the control schedule.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .control import INSTANT_RTOL, ConstantSchedule, ControlSchedule
from .errors import ConfigError, InvalidComparisonError, SimulationError
from .grids import FieldGrid, GridSpec, field_header, field_tables, gaussian_field, kept_modes, snapshot_intervals, snapshot_times, squared_norm, whole_steps, write_csv
from .model import MediumParams, PulseSpec, ValidityReport, coupling_matrix, dark_modes

# Coupling propagators are built for at most this many step midpoints at a
# time, so memory stays flat however small dt is.
CHUNK_STEPS = 1024
# The 3x3 mode update runs on column blocks this wide, and the march keeps
# only the blocks that hold a kept mode of its start. OpenBLAS hands a gemm
# to its thread pool once m*n*k passes a build-time threshold (between
# 3*3*4096 and 3*3*8192 for the OpenBLAS bundled with numpy 2.4). One
# threaded product over the default grid's 16384 columns gives the same
# bytes and a faster median march on a 2-vCPU host, but stalled for about a
# second in 2 of 50 cold runs there; these blocks stalled in none of 50.
BLOCK_POINTS = 2048
# Past 2^53 steps, float64 step indices, and so the step midpoints
# t0 + (i + 0.5) dt, are no longer distinct.
MAX_STEPS = 2**53

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


# The OracleState fields oracle_snapshots.csv holds, in column order.
ORACLE_FIELDS = ("e_field", "sigma_ba", "sigma_bc")


@dataclass(frozen=True)
class OracleConfig:
    dt: float  # s
    snapshot_dt: float  # s

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.snapshot_dt) and self.snapshot_dt > 0):
            raise ConfigError(f"snapshot_dt must be positive and finite, got {self.snapshot_dt}")
        if not whole_steps(self.snapshot_dt, self.dt):
            raise ConfigError(f"dt {self.dt} must divide snapshot_dt {self.snapshot_dt} evenly")


def step_count(horizon: float, cfg: OracleConfig) -> int:
    """Steps of a march to horizon: snapshot intervals x steps per interval.

    Raises ConfigError unless cfg.snapshot_dt divides horizon evenly, and
    when the count passes MAX_STEPS, so a caller can reject a step before
    any long work.
    """
    n_steps = snapshot_intervals(horizon, cfg.snapshot_dt) * whole_steps(cfg.snapshot_dt, cfg.dt)
    if n_steps > MAX_STEPS:
        raise ConfigError(
            f"dt {cfg.dt} takes {n_steps} steps to the horizon {horizon}, more than "
            f"2^53 = {MAX_STEPS}, past which step midpoints are no longer distinct"
        )
    return n_steps


def _substeps(horizon: float, cfg: OracleConfig) -> tuple[int, int]:
    """The steps of a march to horizon and the steps per snapshot interval."""
    return step_count(horizon, cfg), whole_steps(cfg.snapshot_dt, cfg.dt)


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


def _propagators(params: MediumParams, omega: np.ndarray, dt: float) -> np.ndarray:
    """exp(M dt) for each control value, by way of the balanced generator."""
    p = expm(coupling_matrix(params, omega) * dt)
    root_n = math.sqrt(params.n_atoms)
    p[..., 0, 1:] *= root_n
    p[..., 1:, 0] /= root_n
    return p


def _step_propagators(params, schedule, t0, dt, n_steps):
    """Yield the coupling propagator of each step, frozen at its midpoint."""
    if isinstance(schedule, ConstantSchedule):
        propagator = _propagators(params, schedule.eval(params, t0).omega, dt)
        for _ in range(n_steps):
            yield propagator
        return
    for start in range(0, n_steps, CHUNK_STEPS):
        t_mid = t0 + (np.arange(start, min(start + CHUNK_STEPS, n_steps)) + 0.5) * dt
        omega = schedule.eval(params, t_mid).omega
        yield from _propagators(params, omega, dt)


def _advection(k: np.ndarray, c: float, tau: float) -> np.ndarray:
    """exp(-i k c tau): the exact advection of the modes of wavenumbers k over a time tau."""
    return np.exp(-1j * k * c * tau)


def initial_state(params: MediumParams, grid: GridSpec, pulse: PulseSpec, schedule: ControlSchedule) -> OracleState:
    """The reduced system's dark state at t = 0 whose dark field is the pulse, read from no evolution law.

    Each of the pulse's grids.kept_modes is carried by its dark_modes vector at Omega(0); the rest are zero.
    """
    modes = np.fft.fft(gaussian_field(grid, pulse.amplitude, pulse.center_z, pulse.width).values)
    kept = kept_modes(modes)
    stack = np.zeros((3, grid.n_points), dtype=complex)
    stack[:, kept] = (dark_modes(params, schedule.eval(params, 0.0).omega, grid.k_array()[kept])[1] * modes[kept, None]).T
    fields = np.fft.ifft(stack, axis=-1)
    fields[1:] /= math.sqrt(params.n_atoms)
    return OracleState(*(FieldGrid(grid, values) for values in fields), t=0.0)


def integrate_reduced(
    params: MediumParams,
    grid: GridSpec,
    initial: OracleState,
    schedule: ControlSchedule,
    horizon: float,
    cfg: OracleConfig,
    progress: Callable[[int, int, float], None] | None = None,
) -> list[OracleState]:
    """March the reduced system and return its states at the snapshot instants.

    Each state is stamped initial.t plus its instant of grids.snapshot_times,
    the spectral engine's clock, so both engines stamp an instant alike.

    Symmetric (second order, Strang) splitting: the advection term is an
    exact spectral phase over each half step, and the local atomic-coupling
    block is the exact matrix exponential of its generator frozen at the
    step midpoint. Each mode moves on its own, so a mode the start leaves at
    zero stays zero: the march holds only the BLOCK_POINTS-wide column
    blocks that contain one of the start's grids.kept_modes (2 of 8 on the
    default grid), as one (3, columns) array of the three fields' modes.
    Whole blocks, not single modes: a band that reaches every block then
    gets the products of a march of every mode, bit for bit. One full
    phase joins each step's closing half to the next one's opening half; a
    snapshot applies its closing half as it scatters the marched blocks
    into a zero (3, n) array, whose inverse transform's rows become its
    fields.
    progress, if given, is called as progress(steps_done, n_steps, t) after
    each snapshot.
    """
    if initial.e_field.grid != grid:
        raise ConfigError("initial state grid does not match the run grid")
    n_steps, per_snap = _substeps(horizon, cfg)
    times = snapshot_times(horizon, cfg.snapshot_dt)
    dt = cfg.dt
    stack = np.fft.fft([getattr(initial, name).values for name in ORACLE_FIELDS], axis=-1)
    block_of = np.arange(grid.n_points) // BLOCK_POINTS
    columns = np.flatnonzero(np.isin(block_of, block_of[kept_modes(stack)]))
    # np.take gives a C-contiguous array; a fancy-index gather comes out
    # column-major, and a gemm on that rounds differently
    stack = np.take(stack, columns, axis=1)
    spare = np.empty_like(stack)
    k = grid.k_array()[columns]
    half = _advection(k, params.c, dt / 2.0)
    stack[0] *= half
    phase = _advection(k, params.c, dt)
    t0 = initial.t

    states = [initial]
    for i, propagator in enumerate(_step_propagators(params, schedule, t0, dt, n_steps)):
        for c in range(0, columns.size, BLOCK_POINTS):
            block = slice(c, c + BLOCK_POINTS)
            np.matmul(propagator, stack[:, block], out=spare[:, block])
        stack, spare = spare, stack
        if (i + 1) % per_snap == 0:
            snap = (i + 1) // per_snap
            t = t0 + times[snap]
            fields = np.zeros((3, grid.n_points), dtype=complex)
            fields[0, columns] = stack[0] * half
            fields[1:, columns] = stack[1:]
            # A non-finite value never turns finite in later steps, so one
            # check per interval catches it; it must come before FieldGrid,
            # which would reject the samples as a configuration error.
            if not np.all(np.isfinite(fields)):
                raise SimulationError(f"oracle produced non-finite values in [{t0 + times[snap - 1]:.6e}, {t:.6e}] s")
            np.fft.ifft(fields, axis=-1, out=fields)
            states.append(OracleState(*(FieldGrid(grid, values) for values in fields), t=t))
            if progress is not None:
                progress(i + 1, n_steps, t)
        stack[0] *= phase
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


def compare_to_adiabatic(
    oracle_run: list[OracleState], adiabatic_fields: list[tuple[float, FieldGrid]], validity: ValidityReport
) -> ComparisonReport:
    """Relative L-inf and L2 discrepancy of each state's probe field from the engine's at the same instant.

    adiabatic_fields holds the engine's (t, probe field) pair of each
    snapshot. Both engines stamp their instants from grids.snapshot_times,
    so state k pairs with pair k; InvalidComparisonError is raised unless
    the counts match and each pair's instants agree to INSTANT_RTOL. The
    validity ratios ride along so an out-of-tolerance comparison points at
    which assumption broke.
    """
    if not oracle_run or not adiabatic_fields:
        raise InvalidComparisonError("nothing to compare: empty run")
    if oracle_run[0].e_field.grid != adiabatic_fields[0][1].grid:
        raise InvalidComparisonError("oracle and adiabatic runs use different grids")
    if len(oracle_run) != len(adiabatic_fields):
        raise InvalidComparisonError(
            f"the oracle run holds {len(oracle_run)} states and the adiabatic run {len(adiabatic_fields)} snapshots; "
            "both must be stamped from one snapshot clock"
        )
    linf = []
    l2 = []
    for ostate, (t, a_field) in zip(oracle_run, adiabatic_fields):
        if abs(t - ostate.t) > INSTANT_RTOL * abs(t):
            raise InvalidComparisonError(
                f"the oracle state at {ostate.t!r} s and the snapshot at {t!r} s are not one instant of one snapshot clock"
            )
        o = ostate.e_field.values
        a = a_field.values
        diff = o - a
        denom_inf = max(float(np.max(np.abs(o))), float(np.max(np.abs(a))), 1e-300)
        denom_l2 = max(math.sqrt(squared_norm(o)), math.sqrt(squared_norm(a)), 1e-300)
        linf.append(float(np.max(np.abs(diff))) / denom_inf)
        l2.append(math.sqrt(squared_norm(diff)) / denom_l2)
    failed = tuple(validity.failed())
    if failed:
        attribution = "discrepancy attributable to failed checks: " + ", ".join(
            f"{name} ({validity.ratios[name]:.3g})" for name in failed
        )
    else:
        attribution = "all adiabaticity checks passed; runs should agree"
    return ComparisonReport(
        observable="e_field",
        times=tuple(t for t, _ in adiabatic_fields),
        linf_rel=tuple(linf),
        l2_rel=tuple(l2),
        max_linf=max(linf),
        max_l2=max(l2),
        failed_checks=failed,
        ratios=validity.keyed_ratios(),
        attribution=attribution,
    )


def write_oracle_csv(states: list[OracleState], path, cfg: OracleConfig, stride: int = 1):
    """Snapshot rows in the solver CSV layout, with a provenance header."""
    if not states:
        raise ConfigError("no states to write")
    header = f"# scheme=splitting_spectral_advection dt={cfg.dt!r}\n" + field_header(ORACLE_FIELDS)
    snapshots = ((st.t, [getattr(st, name).values[::stride] for name in ORACLE_FIELDS]) for st in states)
    write_csv(path, header, field_tables(states[0].e_field.grid.z_array(), snapshots, stride))
