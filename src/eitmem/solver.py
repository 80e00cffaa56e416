"""Spectral engine for the adiabatic polariton evolution.

The polariton field is evolved exactly in k-space: each snapshot's modes are
the initial ones times exp(-S - i k W), with S and W the integrals of the
closed-form coefficients from t = 0. Media that share one Scenario's grid,
pulse, schedule and timing evolve together as one block, and a single run
is a block of one. A snapshot holds the dark field, its mixing angle and
its S; the bright state, the probe field, and the lower-level coherence
are each the dark field times a factor of that angle, and reconstruct
builds them. A row stops where its modes could overflow or where its
pulse's support, moved by Re W, fails the edge rule that check_pulse_fits
applies at t = 0; both limits are read from the exponents, so a snapshot
no one reads builds no modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .coefficients import exponent_integrand, field_factors
from .control import INSTANT_RTOL, ControlSchedule, _sorted_distinct
from .errors import (
    AmplificationOverflowError,
    ConfigError,
    DomainOverflowError,
    EitmemError,
    QuadratureError,
    SimulationError,
)
from .grids import ROOT_DBL_MAX, FieldGrid, field_header, field_tables, gaussian_field, snapshot_times, squared_norm, write_csv
from .model import SUPPORT_FLOOR, MediumParams, ValidityReport, check_regime, support_clear

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .scenario import Scenario

# Adaptive Simpson controls for the coefficient time integrals, read at
# call time.
QUAD_ABS_TOL = 1e-10  # absolute, per component of (I_s, I_w)
QUAD_MAX_DEPTH = 48
# Open panels a level may hold, or twice the root panels if more. Round-off
# that a huge detuning amplifies fails every panel, and the open panels would
# double per level until memory ran out. Converging runs open a few hundred.
QUAD_MAX_PANELS = 2**16


def adaptive_simpson(f, a, b, breakpoints=()) -> np.ndarray:
    """Integrate f over every interval [a, b] in one breadth-first pass.

    a and b are floats or equal-shape arrays of interval ends. f takes a 1-D
    array of times and the flat index into a of the interval each time
    belongs to, and returns its values with time on the last axis, so a
    vector-valued complex integrand returns shape (components, times). Each
    interval is cut at the breakpoints inside it, and each panel runs
    classic adaptive Simpson with Richardson extrapolation: the local
    acceptance test runs on the worst component, so every component meets
    QUAD_ABS_TOL, and a rejected panel is halved with half the tolerance
    for each half. All open panels of one level share one call to f.
    Accepted halves are summed pairwise back up the tree and the panels of
    an interval left to right, so on the same nodes the result equals the
    depth-first recursion bit for bit. Returns the component shape followed
    by the shape of a. Raises ConfigError, before any evaluation, for the
    first interval with a non-finite end, then for the first reversed one;
    and QuadratureError, with the achieved estimate, for the earliest panel
    still open when the depth budget runs out or the next level would hold
    more open panels than the cap allows.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    not_finite = ~(np.isfinite(a) & np.isfinite(b))
    if np.any(not_finite):
        i = int(np.argmax(not_finite.ravel()))
        raise ConfigError(f"integration interval not finite: [{a.flat[i]}, {b.flat[i]}]")
    if np.any(b < a):
        i = int(np.argmax(b.ravel() < a.ravel()))
        raise ConfigError(f"integration interval reversed: [{a.flat[i]}, {b.flat[i]}]")
    lo, hi, owner = [], [], []
    for i, (t0, t1) in enumerate(zip(a.ravel().tolist(), b.ravel().tolist())):
        if t1 == t0:
            continue
        cuts = [t0] + [c for c in breakpoints if t0 < c < t1] + [t1]
        lo += cuts[:-1]
        hi += cuts[1:]
        owner += [i] * (len(cuts) - 1)

    pa, pb, owner = np.array(lo), np.array(hi), np.array(owner, dtype=int)
    x = np.stack([pa, 0.5 * (pa + pb), pb])  # (a, m, b) of every open panel
    y = np.asarray(f(x.ravel(), np.tile(owner, 3)))
    shape = y.shape[:-1]  # of one integrand value
    n_comp = math.prod(shape)
    fx = y.reshape(n_comp, 3, pa.size)  # components x (a, m, b) x panels
    whole = (pb - pa) / 6.0 * (fx[:, 0] + 4.0 * fx[:, 1] + fx[:, 2])
    root = np.arange(pa.size)
    tol = QUAD_ABS_TOL
    max_depth = QUAD_MAX_DEPTH
    max_open = max(QUAD_MAX_PANELS, 2 * pa.size)
    levels = []  # per depth: (accepted mask, accepted values)
    for depth in range(max_depth + 1):
        if root.size == 0:
            break
        pa, pm, pb = x
        fa, fm, fb = fx[:, 0], fx[:, 1], fx[:, 2]
        lm = 0.5 * (pa + pm)
        rm = 0.5 * (pm + pb)
        y = np.asarray(f(np.concatenate([lm, rm]), np.tile(owner[root], 2))).reshape(n_comp, 2, root.size)
        flm, frm = y[:, 0], y[:, 1]
        left = (pm - pa) / 6.0 * (fa + 4.0 * flm + fm)
        right = (pb - pm) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        err = np.abs(delta).max(axis=0)
        done = err <= 15.0 * tol
        split = ~done
        n_open = 2 * int(np.count_nonzero(split))
        if n_open and (depth == max_depth or n_open > max_open):
            first = int(root[split].min())
            worst = float(err[split & (root == first)].max()) / 15.0
            raise QuadratureError(
                f"quadrature did not converge on [{lo[first]}, {hi[first]}]: worst local error "
                f"estimate {worst:.3e} exceeds the panel tolerance {tol:.3e} at depth {depth}, "
                f"with {n_open} panels to open against a cap of {max_open}"
            )
        levels.append((done, (left + right + delta / 15.0)[:, done]))
        # Children of the rejected panels: all left halves, then all right halves.
        x5 = np.stack([pa, lm, pm, rm, pb])[:, split]
        f5 = np.stack([fa, flm, fm, frm, fb], axis=1)[..., split]
        x = np.concatenate([x5[0:3], x5[2:5]], axis=1)
        fx = np.concatenate([f5[:, 0:3], f5[:, 2:5]], axis=2)
        whole = np.concatenate([left[:, split], right[:, split]], axis=1)
        root = np.concatenate([root[split], root[split]])
        tol = 0.5 * tol

    values = whole[:, :0]  # value of every panel of the level below
    for done, accepted in reversed(levels):
        node = np.empty(accepted.shape[:1] + done.shape, dtype=accepted.dtype)
        node[:, done] = accepted
        half = values.shape[1] // 2
        node[:, ~done] = values[:, :half] + values[:, half:]
        values = node
    total = np.zeros((values.shape[0], a.size), dtype=values.dtype)
    for j, i in enumerate(owner.tolist()):
        total[:, i] += values[:, j]
    return total.reshape(shape + a.shape)


def forward_transform(f: FieldGrid) -> np.ndarray:
    """Discrete transform of a field's samples; checked against Parseval."""
    n = f.grid.n_points
    modes = np.fft.fft(f.values)
    lhs = squared_norm(f.values)
    rhs = squared_norm(modes) / n
    scale = max(lhs, rhs, 1e-300)
    if abs(lhs - rhs) > 1e-10 * scale:
        raise SimulationError(
            f"Parseval mismatch at transform construction: {lhs} vs {rhs}"
        )
    return modes


def inverse_transform(modes: np.ndarray) -> np.ndarray:
    """Samples of every row of a block of modes, from one FFT along the last axis."""
    return np.fft.ifft(modes, axis=-1)


def accumulate_exponent(
    media: list[MediumParams],
    schedule: ControlSchedule,
    t0,
    t1,
) -> np.ndarray:
    """Integrate (s_part, w_part) of every medium over [t0, t1] in one quadrature pass.

    t0 and t1 are floats or equal-shape arrays of interval ends; returns
    (I_s, I_w) of shape (2, media) + shape of t0. Re(I_w) is exactly the
    pulse displacement over the interval. Each (medium, interval) is split
    at the schedule's breakpoints into root panels of its own, and each
    medium's integrand is evaluated on its own nodes, so a medium gets the
    nodes, sums and errors of a pass over it alone.
    """
    t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
    shape = (len(media),) + t0.shape

    def integrand(t: np.ndarray, interval: np.ndarray) -> np.ndarray:
        medium = interval // t0.size
        y = np.empty((2, t.size), dtype=complex)
        for j in sorted(set(medium.tolist())):  # np.unique would import numpy.ma, about 1 MB
            at = medium == j
            theta, theta_dot, _ = schedule.eval(media[j], t[at])
            cs = exponent_integrand(theta, theta_dot, media[j])
            y[:, at] = cs.s_part, cs.w_part
        return y

    return adaptive_simpson(integrand, np.broadcast_to(t0, shape), np.broadcast_to(t1, shape), schedule.breakpoints())


def mode_factor(k_grid: np.ndarray, i_s: complex, i_w: complex, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-I_s - i k I_w) on an FFT-ordered wavenumber grid, from two short tables.

    With B = 2^floor(log2(n)/2), FFT order lists the modes as blocks of B,
    mode qB + r at row q, column r, and the rows run q = 0, 1, ..., -1.
    So the factor is the outer product of exp(-I_s - i k_qB I_w) over the
    block starts and exp(-i k_r I_w) over 0 <= r < B: about 2 sqrt(n)
    exponentials instead of n. The column table's largest log gain is moved
    into the row table, so neither table can overflow where the product
    does not. The factor is written into out, a contiguous complex array of
    the grid's size, when one is given.
    """
    block = 1 << (k_grid.size.bit_length() - 1) // 2
    k_col = k_grid[:block]
    shift = max(float(k_col[-1]) * i_w.imag, 0.0)
    rows = np.exp(shift - i_s - 1j * k_grid[::block] * i_w)
    cols = np.exp(-shift - 1j * k_col * i_w)
    if out is not None:
        out = out.reshape(rows.size, block)
    return np.outer(rows, cols, out=out).ravel()


def apply_evolution(modes0: np.ndarray, k_grid: np.ndarray, s: complex, w: complex, out: np.ndarray | None = None):
    """modes0 * mode_factor(k_grid, s, w) bit for bit: the modes when S and W are the exponents since t = 0.

    The factor is written into out when one is given, then multiplied there
    by modes0; under _check_wraparound's amplification limit both stay finite.
    """
    factor = mode_factor(k_grid, s, w, out=out)
    return np.multiply(modes0, factor, out=factor)


def reconstruct(psi: FieldGrid, theta: float, params: MediumParams) -> tuple[FieldGrid, FieldGrid, FieldGrid]:
    """Bright field, probe field, and lower-level coherence from the dark field.

    Each field is linear in psi, so a time derivative of psi maps to that of
    each field.
    """
    return tuple(FieldGrid(psi.grid, factor * psi.values) for factor in field_factors(theta, params))


@dataclass(frozen=True)
class Snapshot:
    """The dark field at one time, with the mixing angle that reconstruct reads to build the rest and the S applied to its modes."""

    t: float  # s
    psi: FieldGrid
    theta: float  # rad
    peak: float  # max |psi|
    s: complex  # I_s from t = 0: psi's modes are psi0's times exp(-s - i k W)


@dataclass(frozen=True)
class SimulationResult:
    snapshots: tuple[Snapshot, ...]
    validity: ValidityReport
    scenario: Scenario  # the run's medium, grid, pulse, schedule and timing


def _check_wraparound(
    psi0: FieldGrid, modes0: np.ndarray, k_grid: np.ndarray, s: np.ndarray, w: np.ndarray, times
) -> list[tuple[int, EitmemError | None]]:
    """Per row of exponents S, W from t = 0 to times[1:], the first index past either limit and its error, or (row length, None).

    Amplification: a mode is m0 times a factor whose log magnitude
    -Re S + k Im W peaks, at G, at an extreme mode. G is bounded by the
    lesser of ln(sqrt(DBL_MAX) / n) - ln max|m0|, below which no mode,
    field sample, squared norm or FFT sum overflows, and ln(DBL_MAX), below
    which no factor or mode_factor table does: the second binds when
    max|m0| is zero or below 1e-154 / n.

    Domain edge: the input's support runs from the first to the last sample
    where |psi0| is at least SUPPORT_FLOOR times its peak. Under the law a
    Gaussian keeps its |psi| shape and moves by Re W whatever Im W is, and
    so does any input when W is real. So a row reaches the edge at the
    first snapshot where the support, at t = 0 or moved by Re W / dz cells
    rounded outward to whole cells, fails support_clear. The shift is
    counted on the line, not modulo n, so a pulse that crossed an edge
    between snapshots is caught. An input of zero peak never reaches one.
    A snapshot past both limits stops its row with the amplification error.
    """
    half = k_grid.size // 2
    extremes = k_grid[[half - 1, half], np.newaxis]  # largest and most negative k, FFT order
    gains = np.max(-s.real[:, np.newaxis] + extremes * w.imag[:, np.newaxis], axis=1)
    bound = math.log(ROOT_DBL_MAX / k_grid.size)
    ln_max = math.log(np.finfo(float).max)
    peak0 = float(np.max(np.abs(modes0)))
    log_peak0 = math.log(peak0) if peak0 else -math.inf
    allowed = min(bound - log_peak0, ln_max)
    magnitude = np.abs(psi0.values)
    support = np.flatnonzero(magnitude >= SUPPORT_FLOOR * np.max(magnitude))
    shift = w.real / psi0.grid.dz
    low = support[0] + np.floor(np.minimum(shift, 0.0))
    high = support[-1] + np.ceil(np.maximum(shift, 0.0))
    edge = ~support_clear(low, high, magnitude.size) & bool(magnitude.any())
    limits = []
    for gain, over, hit in zip(gains, gains > allowed, edge):
        i = int(np.argmax(over | hit))
        t = times[i + 1]
        if over[i]:
            message = (
                f"the modal log gain {gain[i]:.2f} accumulated from t = 0 to the snapshot at {t:.6e} s passes "
                f"{allowed:.2f}, the lesser of ln(sqrt(DBL_MAX) / n) = {bound:.2f} less ln max|m0| = {log_peak0:.2f} "
                f"and ln(DBL_MAX) = {ln_max:.2f}; the scenario is too far off resonance for a meaningful run"
            )
            limits.append((i, AmplificationOverflowError(message)))
        elif hit[i]:
            limits.append((i, DomainOverflowError(t)))
        else:
            limits.append((over.size, None))
    return limits


class BlockEvolution:
    """The spectral evolution of a block of media on the grid, pulse, schedule, horizon and snapshot clock of one Scenario.

    The block reads nothing of the scenario's own medium.

    The exponents of every medium come from one quadrature pass, which
    gives each medium the bits of a pass over it alone, summed from t = 0
    to each snapshot. A snapshot's modes are psi0's times one factor of
    those sums, so no mode state passes between snapshots. The modes of the
    block form one (media x n) array, so each snapshot the caller reads
    takes one inverse FFT along the last axis for the whole block; along
    that axis the 2-D transform equals the row-by-row 1-D transforms bit
    for bit. A snapshot the caller does not read builds no modes: every
    row's stop, at the amplification bound or the domain edge, is read from
    its exponents alone, by _check_wraparound. Mode products and every reduction stay per row:
    broadcast across rows they round differently, and a distorted row
    amplifies that round-off.

    The scenario ran the checks of the shared parts, check_pulse_fits and
    the snapshot cadence among them, when it was built; an initial_field on
    another grid raises ConfigError. Each medium's own checks (regime,
    quadrature, amplification bound, wraparound) run per row, in the order
    a run of that medium alone meets them. A medium that fails leaves the
    block with the exception its own run would raise, kept in `failed` by
    medium index; the others carry on. `evolve` yields, per snapshot read,
    its index and the (medium index, Snapshot) pairs of the rows still
    running, so a caller that reduces each snapshot as it arrives holds one
    block of fields at a time. Whether a field it reads is bright enough to
    measure is the caller's decision.
    """

    def __init__(self, media, sc: Scenario, force: bool = False, initial_field: FieldGrid | None = None):
        self.times = snapshot_times(sc.horizon, sc.snapshot_dt)
        if initial_field is None:
            self.psi0 = gaussian_field(sc.grid, sc.pulse.amplitude, sc.pulse.center_z, sc.pulse.width)
        elif initial_field.grid != sc.grid:
            raise ConfigError("initial_field grid does not match the run grid")
        else:
            self.psi0 = initial_field
        self.media = tuple(media)
        self.grid = sc.grid
        self.failed: dict[int, EitmemError] = {}
        self.validity: dict[int, ValidityReport] = {}
        self._exponents = {}  # medium index -> (S and W from t = 0 to times[1:], theta per snapshot)
        for j, params in enumerate(self.media):
            try:
                validity = check_regime(params, sc.pulse, sc.schedule, sc.horizon)
                if not force:
                    validity.gate()
            except EitmemError as exc:
                self.failed[j] = exc
                continue
            self.validity[j] = validity
        if self.validity:
            self._integrate(list(self.validity), sc.schedule)

    def _integrate(self, group: list[int], schedule: ControlSchedule) -> None:
        """The exponents since t = 0 of the media in group from one quadrature pass, or if it raises, from one per medium."""
        t = np.array(self.times)
        try:
            s, w = np.cumsum(accumulate_exponent([self.media[j] for j in group], schedule, t[:-1], t[1:]), axis=-1)
        except EitmemError as exc:
            if len(group) > 1:
                for j in group:
                    self._integrate([j], schedule)
            else:
                self.failed[group[0]] = exc
                del self.validity[group[0]]
            return
        for r, j in enumerate(group):
            self._exponents[j] = (s[r], w[r], schedule.eval(self.media[j], t).theta)

    def _snapshot(self, j: int, i: int, psi: FieldGrid, peak: float) -> Snapshot:
        s, _, theta = self._exponents[j]
        return Snapshot(self.times[i], psi, float(theta[i]), peak, complex(s[i - 1]) if i else 0j)

    def evolve(self, read=None):
        """Run the block; yields, per snapshot read, its index and the (medium index, Snapshot) pairs of the rows still running.

        read holds the indices into `times` of the snapshots whose fields the
        caller reads; None reads them all. Only those snapshots build modes
        and take the block inverse FFT. Before any mode is built,
        _check_wraparound gives each row its first snapshot past the
        amplification bound or the domain edge, with the amplification error
        where one snapshot is past both, and the row stops there.
        """
        live = [j for j in range(len(self.media)) if j not in self.failed]
        if not live:
            return
        k = self.grid.k_array()
        modes0 = forward_transform(self.psi0)
        s_rows, w_rows, _ = zip(*(self._exponents[j] for j in live))
        limits = dict(zip(live, _check_wraparound(self.psi0, modes0, k, np.array(s_rows), np.array(w_rows), self.times)))
        if read is None or 0 in read:
            peak0 = self.psi0.peak()
            yield 0, [(j, self._snapshot(j, 0, self.psi0, peak0)) for j in live]
        rows = np.empty((len(live), modes0.size), dtype=complex)
        for i in range(1, len(self.times)):
            self.failed.update((j, limits[j][1]) for j in live if limits[j][0] == i - 1)
            live = [j for j in live if j not in self.failed]
            if not live:
                return
            if read is not None and i not in read:
                continue
            modes = rows[: len(live)]
            for r, j in enumerate(live):
                s, w, _ = self._exponents[j]
                apply_evolution(modes0, k, s[i - 1], w[i - 1], modes[r])
            fields = inverse_transform(modes)
            yield i, [
                (j, self._snapshot(j, i, FieldGrid(self.grid, row), float(np.max(np.abs(row)))))
                for j, row in zip(live, fields)
            ]


def simulate(sc: Scenario, force: bool = False, initial_field: FieldGrid | None = None) -> SimulationResult:
    """Run the spectral evolution of sc's medium and take a snapshot every sc.snapshot_dt.

    The initial dark field comes from sc's pulse unless initial_field
    overrides it (same grid required); the override exists for linearity and
    translation checks where the initial shape is not a fresh Gaussian.
    Regime checks run first and block the run unless force is set. The
    exponents of all snapshot intervals come from one quadrature pass. This
    is the block evolution on a block of one.
    """
    block = BlockEvolution([sc.medium], sc, force, initial_field)
    snapshots = tuple(snap for _, members in block.evolve() for _, snap in members)
    if block.failed:
        raise block.failed[0]
    return SimulationResult(snapshots, block.validity[0], sc)


# The fields snapshots.csv holds, in column order: a snapshot's psi, then reconstruct's three.
SNAPSHOT_FIELDS = ("psi", "phi", "e_field", "sigma_bc")
# The CoefficientSample projections coefficients.csv holds after t, in column order.
COEFFICIENT_COLUMNS = ("alpha1", "alpha2", "beta", "v_g")


def write_snapshots_csv(result: SimulationResult, path, stride: int = 1):
    """Dump every snapshot as rows of t, z, and Re/Im/abs of each of SNAPSHOT_FIELDS.

    Only the rows written are built, each of reconstruct's fields bit for bit.
    """

    def fields(snap: Snapshot) -> list[np.ndarray]:
        psi = snap.psi.values[::stride]  # the factors multiply elementwise, so at the stride they give the same bits
        return [psi, *(factor * psi for factor in field_factors(snap.theta, result.scenario.medium))]

    snapshots = ((snap.t, fields(snap)) for snap in result.snapshots)
    write_csv(path, field_header(SNAPSHOT_FIELDS), field_tables(result.scenario.grid.z_array(), snapshots, stride))


def write_coefficient_csv(result: SimulationResult, path):
    """Rows of t and the COEFFICIENT_COLUMNS of the coefficient law along the run's schedule.

    The times are the snapshot times and the schedule's sample_times over
    [0, horizon] not within INSTANT_RTOL of a snapshot time, in order, so the
    rows depend on the law alone and not on where the quadrature evaluated it.
    """
    sc = result.scenario
    snap_times = np.array([snap.t for snap in result.snapshots])
    scan = sc.schedule.sample_times(snap_times[-1])
    after = np.searchsorted(snap_times, scan)  # 0 only for t = 0, which snap_times[0] matches exactly
    gap = np.minimum(np.abs(scan - snap_times[after - 1]), snap_times[after] - scan)  # to the nearest snapshot
    t = _sorted_distinct(np.concatenate([snap_times, scan[gap > INSTANT_RTOL * scan]]))
    theta, theta_dot, _ = sc.schedule.eval(sc.medium, t)
    cs = exponent_integrand(theta, theta_dot, sc.medium)
    header = ",".join(("t",) + COEFFICIENT_COLUMNS) + "\n"
    write_csv(path, header, [[t] + [getattr(cs, name) for name in COEFFICIENT_COLUMNS]])
