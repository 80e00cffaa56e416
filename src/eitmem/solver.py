"""Spectral engine for the adiabatic polariton evolution.

The polariton field is evolved exactly in k-space: each snapshot's modes are
the initial ones times exp(-S - i k W), with S and W the integrals of the
closed-form coefficients from t = 0. Media that share grid, pulse, schedule
and horizon evolve together as one block, and a single run is a block of
one. The bright state, the probe field, and the lower-level coherence are
each the dark field times a factor of the snapshot's mixing angle, and a
snapshot builds one only when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import bright_ratio, exponent_integrand
from .control import INSTANT_RTOL, ControlSchedule, _sorted_distinct
from .errors import (
    AmplificationOverflowError,
    ConfigError,
    DomainOverflowError,
    EitmemError,
    QuadratureError,
    SimulationError,
)
from .grids import FieldGrid, GridSpec, field_header, field_tables, gaussian_field, whole_steps, write_csv
from .model import MediumParams, PulseSpec, ValidityReport, check_pulse_fits, check_regime

# The wraparound monitor looks at a low-passed view of the field so that
# broadband amplified floor noise in far-detuned runs does not mask where
# the physical pulse actually is. Cutoff in units of 2*pi/pulse_length.
WRAPAROUND_LOWPASS_HARMONICS = 32.0
WRAPAROUND_SUPPORT_FLOOR = 1e-6  # relative to the full-field peak

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
    by the shape of a. Raises QuadratureError, with the achieved estimate,
    for the earliest panel still open when the depth budget runs out or the
    next level would hold more open panels than the cap allows.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
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
    lhs = float(np.sum(np.abs(f.values) ** 2))
    rhs = float(np.sum(np.abs(modes) ** 2)) / n
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


def amplification_bound(
    modes0: np.ndarray, k_grid: np.ndarray, s: np.ndarray, w: np.ndarray, times
) -> list[tuple[int, AmplificationOverflowError | None]]:
    """Per row of exponents from t = 0 to times[1:], the first index past the bound and its error, or (row length, None).

    A mode is m0 times a factor whose log magnitude -Re S + k Im W peaks,
    at G, at an extreme mode. G is bounded by the lesser of
    ln(sqrt(DBL_MAX) / n) - ln max|m0|, below which no mode, field sample,
    squared norm or FFT sum overflows, and ln(DBL_MAX), below which no
    factor or mode_factor table does: the second binds when max|m0| is zero or below 1e-154 / n.
    """
    half = k_grid.size // 2
    extremes = k_grid[[half - 1, half], np.newaxis]  # largest and most negative k, FFT order
    gains = np.max(-s.real[:, np.newaxis] + extremes * w.imag[:, np.newaxis], axis=1)
    bound = math.log(math.sqrt(np.finfo(float).max) / k_grid.size)
    ln_max = math.log(np.finfo(float).max)
    peak0 = float(np.max(np.abs(modes0)))
    log_peak0 = math.log(peak0) if peak0 else -math.inf
    allowed = min(bound - log_peak0, ln_max)
    limits = []
    for gain, over in zip(gains, gains > allowed):
        i = int(np.argmax(over))
        message = (
            f"the modal log gain {gain[i]:.2f} accumulated from t = 0 to the snapshot at {times[i + 1]:.6e} s passes "
            f"{allowed:.2f}, the lesser of ln(sqrt(DBL_MAX) / n) = {bound:.2f} less ln max|m0| = {log_peak0:.2f} "
            f"and ln(DBL_MAX) = {ln_max:.2f}; the scenario is too far off resonance for a meaningful run"
        )
        limits.append((i, AmplificationOverflowError(message)) if over[i] else (over.size, None))
    return limits


def apply_evolution(modes0: np.ndarray, k_grid: np.ndarray, s: complex, w: complex, out: np.ndarray | None = None):
    """modes0 * mode_factor(k_grid, s, w) bit for bit: the modes when S and W are the exponents since t = 0.

    The factor is written into out when one is given, then multiplied there
    by modes0; under amplification_bound both stay finite.
    """
    factor = mode_factor(k_grid, s, w, out=out)
    return np.multiply(modes0, factor, out=factor)


def _factors(theta: float, params: MediumParams) -> tuple[complex, complex, complex]:
    """The factors that take the dark field to the bright field, the probe field and the lower-level coherence.

    The zeroth-order bright ratio depends on theta alone. Inverting the
    dark/bright superposition on (Psi, Phi) returns the probe and coherence
    exactly, so the round trip back to (Psi, Phi) is identity.
    """
    ratio = bright_ratio(theta, params)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    return ratio, cos_t + sin_t * ratio, -((sin_t - cos_t * ratio) / math.sqrt(params.n_atoms))


def reconstruct(psi: FieldGrid, theta: float, params: MediumParams) -> tuple[FieldGrid, FieldGrid, FieldGrid]:
    """Bright field, probe field, and lower-level coherence from the dark field.

    Each field is linear in psi, so a time derivative of psi maps to that of
    each field.
    """
    return tuple(FieldGrid(psi.grid, factor * psi.values) for factor in _factors(theta, params))


@dataclass(frozen=True)
class Snapshot:
    """The dark field at one time, with the control sample that reconstructs the rest.

    phi, e_field and sigma_bc are built from psi each time they are read and
    are not kept, so a snapshot holds one field and a run that reads only
    psi never builds the others.
    """

    t: float  # s
    psi: FieldGrid
    theta: float  # rad
    params: MediumParams
    peak: float  # max |psi|

    def _derived(self, which: int) -> FieldGrid:
        return FieldGrid(self.psi.grid, _factors(self.theta, self.params)[which] * self.psi.values)

    @property
    def phi(self) -> FieldGrid:
        return self._derived(0)

    @property
    def e_field(self) -> FieldGrid:
        return self._derived(1)

    @property
    def sigma_bc(self) -> FieldGrid:
        return self._derived(2)


@dataclass(frozen=True)
class SimulationResult:
    snapshots: tuple[Snapshot, ...]
    validity: ValidityReport
    params: MediumParams
    grid: GridSpec
    schedule: ControlSchedule


def _edge_probe(k_grid: np.ndarray, pulse: PulseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Retained modes of the wraparound low-pass and their inverse-transform basis.

    Returns the indices of the modes with |k| below the cutoff and the
    (retained x 4) matrix that takes those modes to the low-passed field at
    grid samples 0, 1, n-2 and n-1.
    """
    n = k_grid.size
    cutoff = WRAPAROUND_LOWPASS_HARMONICS * 2.0 * np.pi / pulse.pulse_length
    index = np.flatnonzero(np.abs(k_grid) <= cutoff)
    m = np.where(index < n // 2, index, index - n)  # signed mode numbers, FFT order
    edges = np.array([0.0, 1.0, -2.0, -1.0])  # samples 0, 1, n-2, n-1, taken mod n
    return index, np.exp(2j * np.pi * np.outer(m, edges) / n) / n


def _check_wraparound(
    modes: np.ndarray, peak: float | None, probe: tuple[np.ndarray, np.ndarray], t: float
) -> None:
    """Raise when the low-passed field of one row of modes reaches an edge sample.

    It raises when an edge sample is at least the floor times peak, the
    row's max |psi|; a row of zero peak passes. A row not transformed
    passes None: as |m_k| <= n max |psi|, it passes at once below the floor
    times max |m| / n, and is transformed for its peak otherwise. The
    floor is relative to the full field, not the low-passed one: a run
    whose high-k modes were amplified into garbage leaves ~1e-16 * garbage
    of transform roundoff in every retained mode, and measuring support
    against the tiny smooth remnant would abort sweeps whose whole point is
    to report that garbage as a distorted verdict.
    """
    index, basis = probe
    edge = float(np.max(np.abs(modes[index] @ basis)))
    if peak is None:
        if edge < WRAPAROUND_SUPPORT_FLOOR * float(np.max(np.abs(modes))) / modes.size:
            return
        peak = float(np.max(np.abs(inverse_transform(modes[np.newaxis]))))
    if peak and edge >= WRAPAROUND_SUPPORT_FLOOR * peak:
        raise DomainOverflowError(
            t, f"pulse support reached the domain edge at t = {t:.6e} s"
        )


class BlockEvolution:
    """The spectral evolution of a block of media that share grid, pulse, schedule and horizon.

    The exponents of every medium come from one quadrature pass, which
    gives each medium the bits of a pass over it alone, summed from t = 0
    to each snapshot. A snapshot's modes are psi0's times one factor of
    those sums, so no mode state passes between snapshots. The modes of the
    block form one (media x n) array, so each snapshot the caller reads
    takes one inverse FFT along the last axis for the whole block; along
    that axis the 2-D transform equals the row-by-row 1-D transforms bit
    for bit. A snapshot the caller does not read transforms only the rows
    whose largest mode cannot settle the edge check, so every row meets the
    exact check with the same error. Mode products and every reduction stay
    per row: broadcast across rows they round differently, and a distorted
    row amplifies that round-off.

    Checks of the shared arguments raise. Each medium's own checks (regime,
    quadrature, amplification bound, wraparound) run per row, in the order
    a run of that medium alone meets them. A medium that fails leaves the
    block with the exception its own run would raise, kept in `failed` by
    medium index; the others carry on. `evolve` yields, per snapshot read,
    its index and the (medium index, Snapshot) pairs of the rows still
    running, so a caller that reduces each snapshot as it arrives holds one
    block of fields at a time. Whether a field it reads is bright enough to
    measure is the caller's decision.
    """

    def __init__(
        self,
        media,
        grid: GridSpec,
        pulse: PulseSpec,
        schedule: ControlSchedule,
        horizon: float,
        snapshot_dt: float,
        force: bool = False,
        initial_field: FieldGrid | None = None,
    ):
        if horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {horizon}")
        if snapshot_dt <= 0:
            raise ConfigError(f"snapshot_dt must be positive, got {snapshot_dt}")
        n_steps = whole_steps(horizon, snapshot_dt)
        if not n_steps:
            raise ConfigError(
                f"snapshot_dt {snapshot_dt} must divide the horizon {horizon} evenly"
            )
        if initial_field is None:
            check_pulse_fits(grid, pulse)
            self.psi0 = gaussian_field(grid, pulse.amplitude, pulse.center_z, pulse.width)
        else:
            if initial_field.grid != grid:
                raise ConfigError("initial_field grid does not match the run grid")
            self.psi0 = initial_field
        self.media = tuple(media)
        self.grid = grid
        self.pulse = pulse
        self.times = [0.0] + [i * snapshot_dt for i in range(1, n_steps)] + [horizon]
        self.failed: dict[int, EitmemError] = {}
        self.validity: dict[int, ValidityReport] = {}
        self._exponents = {}  # medium index -> (S and W from t = 0 to times[1:], theta per snapshot)
        for j, params in enumerate(self.media):
            try:
                validity = check_regime(params, pulse, schedule)
                if not force:
                    validity.gate()
            except EitmemError as exc:
                self.failed[j] = exc
                continue
            self.validity[j] = validity
        if self.validity:
            self._integrate(list(self.validity), schedule)

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
        return Snapshot(self.times[i], psi, float(self._exponents[j][2][i]), self.media[j], peak)

    def evolve(self, read=None):
        """Run the block; yields, per snapshot read, its index and the (medium index, Snapshot) pairs of the rows still running.

        read holds the indices into `times` of the snapshots whose fields the
        caller reads; None reads them all. Only those snapshots take the
        block inverse FFT; every other snapshot transforms only the rows
        that _check_wraparound cannot settle from their largest mode. The
        amplification bound is read from the exponents before any mode is
        built, and a row stops at the first snapshot past it.
        """
        live = [j for j in range(len(self.media)) if j not in self.failed]
        if not live:
            return
        k = self.grid.k_array()
        modes0 = forward_transform(self.psi0)
        s_rows, w_rows, _ = zip(*(self._exponents[j] for j in live))
        limits = dict(zip(live, amplification_bound(modes0, k, np.array(s_rows), np.array(w_rows), self.times)))
        probe = _edge_probe(k, self.pulse)
        if read is None or 0 in read:
            peak0 = self.psi0.peak()
            yield 0, [(j, self._snapshot(j, 0, self.psi0, peak0)) for j in live]
        rows = np.empty((len(live), modes0.size), dtype=complex)
        for i in range(1, len(self.times)):
            self.failed.update((j, limits[j][1]) for j in live if limits[j][0] == i - 1)
            live = [j for j in live if j not in self.failed]
            if not live:
                return
            modes = rows[: len(live)]
            for r, j in enumerate(live):
                s, w, _ = self._exponents[j]
                apply_evolution(modes0, k, s[i - 1], w[i - 1], modes[r])
            is_read = read is None or i in read
            if is_read:
                fields = inverse_transform(modes)
                peaks = [float(np.max(np.abs(row))) for row in fields]
            members = []
            for r, j in enumerate(live):
                try:
                    _check_wraparound(modes[r], peaks[r] if is_read else None, probe, self.times[i])
                    if is_read:
                        members.append((j, self._snapshot(j, i, FieldGrid(self.grid, fields[r]), peaks[r])))
                except EitmemError as exc:
                    self.failed[j] = exc
            live = [j for j in live if j not in self.failed]
            if is_read:
                yield i, members


def simulate(
    params: MediumParams,
    grid: GridSpec,
    pulse: PulseSpec,
    schedule: ControlSchedule,
    horizon: float,
    snapshot_dt: float,
    force: bool = False,
    initial_field: FieldGrid | None = None,
) -> SimulationResult:
    """Run the spectral evolution of one medium and take a snapshot every snapshot_dt.

    The initial dark field comes from the pulse spec unless initial_field
    overrides it (same grid required); the override exists for linearity and
    translation checks where the initial shape is not a fresh Gaussian.
    Regime checks run first and block the run unless force is set. The
    exponents of all snapshot intervals come from one quadrature pass. This
    is the block evolution on a block of one.
    """
    block = BlockEvolution([params], grid, pulse, schedule, horizon, snapshot_dt, force, initial_field)
    snapshots = tuple(snap for _, members in block.evolve() for _, snap in members)
    if block.failed:
        raise block.failed[0]
    return SimulationResult(
        snapshots=snapshots,
        validity=block.validity[0],
        params=params,
        grid=grid,
        schedule=schedule,
    )


# The Snapshot fields snapshots.csv holds, in column order.
SNAPSHOT_FIELDS = ("psi", "phi", "e_field", "sigma_bc")
# The CoefficientSample projections coefficients.csv holds after t, in column order.
COEFFICIENT_COLUMNS = ("alpha1", "alpha2", "beta", "v_g")


def write_snapshots_csv(result: SimulationResult, path, stride: int = 1):
    """Dump every snapshot as rows of t, z, and Re/Im/abs of each of SNAPSHOT_FIELDS."""
    snapshots = (
        (snap.t, [getattr(snap, name).values for name in SNAPSHOT_FIELDS]) for snap in result.snapshots
    )
    write_csv(path, field_header(SNAPSHOT_FIELDS), field_tables(result.grid.z_array(), snapshots, stride))


def write_coefficient_csv(result: SimulationResult, path):
    """Rows of t and the COEFFICIENT_COLUMNS of the coefficient law along the run's schedule.

    The times are the snapshot times and the schedule's sample_times within
    the run but not within INSTANT_RTOL of a snapshot time, in order, so the
    rows depend on the law alone and not on where the quadrature evaluated it.
    """
    snap_times = np.array([snap.t for snap in result.snapshots])
    scan = result.schedule.sample_times()
    scan = scan[(scan >= 0.0) & (scan <= snap_times[-1])]
    after = np.searchsorted(snap_times, scan)  # 0 only for t = 0, which snap_times[0] matches exactly
    gap = np.minimum(np.abs(scan - snap_times[after - 1]), snap_times[after] - scan)  # to the nearest snapshot
    t = _sorted_distinct(np.concatenate([snap_times, scan[gap > INSTANT_RTOL * scan]]))
    theta, theta_dot, _ = result.schedule.eval(result.params, t)
    cs = exponent_integrand(theta, theta_dot, result.params)
    header = ",".join(("t",) + COEFFICIENT_COLUMNS) + "\n"
    write_csv(path, header, [[t] + [getattr(cs, name) for name in COEFFICIENT_COLUMNS]])
