"""Spectral engine for the adiabatic polariton evolution.

The polariton field is evolved exactly in k-space: each interval contributes
integrals I_s and I_w of the closed-form coefficients, and every mode is
multiplied by exp(-I_s - i k I_w). Media that share grid, pulse, schedule
and horizon evolve together as one block, and a single run is a block of
one. Reconstruction of the bright state, the probe field, and the
lower-level coherence from the dark field is pointwise and happens only when
a snapshot's derived field is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import CoefficientSample, bright_ratio, exponent_integrand
from .control import ControlSchedule
from .errors import (
    AmplificationOverflowError,
    ConfigError,
    DomainOverflowError,
    EitmemError,
    QuadratureError,
    SimulationError,
    ValidityError,
)
from .grids import FieldGrid, GridSpec, field_tables, gaussian_field, squared_norm, whole_steps, write_csv
from .model import BLOCKING_CHECKS, MediumParams, PulseSpec, ValidityReport, check_regime

# Per-interval cap on log modal gain; a detuned run that amplifies any mode
# by more than e^50 within one snapshot interval is numerically meaningless.
LOG_GAIN_GUARD = 50.0

# Anti-wraparound margin: the periodic domain must be at least this many
# pulse lengths long, and the pulse must start clear of the edges.
DOMAIN_PADDING_FACTOR = 4.0

# The wraparound monitor looks at a low-passed view of the field so that
# broadband amplified floor noise in far-detuned runs does not mask where
# the physical pulse actually is. Cutoff in units of 2*pi/pulse_length.
WRAPAROUND_LOWPASS_HARMONICS = 32.0
WRAPAROUND_SUPPORT_FLOOR = 1e-6  # relative to the full-field peak

# Relative widening of the Parseval bounds on a row's peak. Rounding in the
# squared norm's pairwise sum and in the inverse FFT stays below 1e-11
# relative up to the largest grid.
PEAK_BOUND_MARGIN = 1e-9
# A row whose upper peak bound times n_points stays under this transforms to
# finite samples: no partial sum of its inverse FFT can come near the
# largest double, 1.8e308.
FINITE_PEAK_LIMIT = 1e300

# Adaptive Simpson controls for the coefficient time integrals, read at
# call time.
QUAD_ABS_TOL = 1e-10  # absolute, per component of (I_s, I_w)
QUAD_MAX_DEPTH = 48


def adaptive_simpson(f, a, b, breakpoints=()) -> np.ndarray:
    """Integrate f over every interval [a, b] in one breadth-first pass.

    a and b are floats or equal-shape arrays of interval ends. f takes a 1-D
    array of times and returns its values with time on the last axis, so a
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
    for the earliest panel whose depth budget runs out before the tolerance
    is met.
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

    pa, pb = np.array(lo), np.array(hi)
    x = np.stack([pa, 0.5 * (pa + pb), pb])  # (a, m, b) of every open panel
    y = np.asarray(f(x.ravel()))
    shape = y.shape[:-1]  # of one integrand value
    n_comp = math.prod(shape)
    fx = y.reshape(n_comp, 3, pa.size)  # components x (a, m, b) x panels
    whole = (pb - pa) / 6.0 * (fx[:, 0] + 4.0 * fx[:, 1] + fx[:, 2])
    root = np.arange(pa.size)
    tol = QUAD_ABS_TOL
    max_depth = QUAD_MAX_DEPTH
    levels = []  # per depth: (accepted mask, accepted values)
    failures = []  # (root panel, local error estimate)
    for depth in range(max_depth + 1):
        if root.size == 0:
            break
        pa, pm, pb = x
        fa, fm, fb = fx[:, 0], fx[:, 1], fx[:, 2]
        lm = 0.5 * (pa + pm)
        rm = 0.5 * (pm + pb)
        y = np.asarray(f(np.concatenate([lm, rm]))).reshape(n_comp, 2, root.size)
        flm, frm = y[:, 0], y[:, 1]
        left = (pm - pa) / 6.0 * (fa + 4.0 * flm + fm)
        right = (pb - pm) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        err = np.abs(delta).max(axis=0)
        done = err <= 15.0 * tol
        if depth == max_depth:
            failures += zip(root[~done].tolist(), (err[~done] / 15.0).tolist())
            done[:] = True
        levels.append((done, (left + right + delta / 15.0)[:, done]))
        # Children of the rejected panels: all left halves, then all right halves.
        split = ~done
        x5 = np.stack([pa, lm, pm, rm, pb])[:, split]
        f5 = np.stack([fa, flm, fm, frm, fb], axis=1)[..., split]
        x = np.concatenate([x5[0:3], x5[2:5]], axis=1)
        fx = np.concatenate([f5[:, 0:3], f5[:, 2:5]], axis=2)
        whole = np.concatenate([left[:, split], right[:, split]], axis=1)
        root = np.concatenate([root[split], root[split]])
        tol = 0.5 * tol
    if failures:
        first = min(panel for panel, _ in failures)
        worst = max(e for panel, e in failures if panel == first)
        raise QuadratureError(
            f"quadrature did not converge on [{lo[first]}, {hi[first]}]: worst local error "
            f"estimate {worst:.3e} exceeds tolerance {QUAD_ABS_TOL:.1e} "
            f"at depth {max_depth}"
        )

    values = whole[:, :0]  # value of every panel of the level below
    for done, accepted in reversed(levels):
        node = np.empty(accepted.shape[:1] + done.shape, dtype=accepted.dtype)
        node[:, done] = accepted
        half = values.shape[1] // 2
        node[:, ~done] = values[:, :half] + values[:, half:]
        values = node
    total = np.zeros((values.shape[0], a.size), dtype=values.dtype)
    for j, i in enumerate(owner):
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


def peak_bounds(modes: np.ndarray) -> tuple[float, float]:
    """Lower and upper bounds on max |inverse_transform(modes)| of one row of n modes.

    With numpy's ifft normalisation Parseval gives ||psi||^2 = ||m||^2 / n,
    so max |psi| is at least the rms ||m|| / n and, by Cauchy-Schwarz, at
    most ||m|| / sqrt(n). Both bounds come from one squared_norm and are
    widened by PEAK_BOUND_MARGIN. A row whose squared norm overflows or
    underflows is summed again scaled by a power of two; a row holding a
    non-finite mode gets (0, inf).
    """
    n = modes.size
    with np.errstate(over="ignore", invalid="ignore"):
        total = squared_norm(modes)
    shift = 0
    if not 2.0**-960 <= total < math.inf:
        top = float(np.max(np.abs(modes)))
        if top == 0.0:
            return 0.0, 0.0
        if not math.isfinite(top):
            return 0.0, math.inf
        shift = max(math.frexp(top)[1], -1023)
        total = squared_norm(modes * math.ldexp(1.0, -shift))
    norm = math.ldexp(math.sqrt(total), shift)
    return norm / n * (1.0 - PEAK_BOUND_MARGIN), norm / math.sqrt(n) * (1.0 + PEAK_BOUND_MARGIN)


def accumulate_exponent(
    params: MediumParams,
    schedule: ControlSchedule,
    t0,
    t1,
    trace: list[CoefficientSample] | None = None,
):
    """Integrate (s_part, w_part) over [t0, t1]; returns (I_s, I_w).

    t0 and t1 are floats, or equal-shape arrays of interval ends that are
    all integrated in one quadrature pass, giving arrays of I_s and I_w.
    Re(I_w) is exactly the pulse displacement over the interval. Each
    interval is split at the schedule's breakpoints so the quadrature never
    straddles a switch. When a trace list is supplied, every batch of
    integrand evaluations is appended to it.
    """
    def integrand(t: np.ndarray) -> np.ndarray:
        theta, theta_dot, _ = schedule.eval(params, t)
        cs = exponent_integrand(theta, theta_dot, params, t=t)
        if trace is not None:
            trace.append(cs)
        return np.array([cs.s_part, cs.w_part])

    i_s, i_w = adaptive_simpson(integrand, t0, t1, schedule.breakpoints())
    return i_s, i_w


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


def apply_evolution(
    modes: np.ndarray, k_grid: np.ndarray, i_s: complex, i_w: complex, factor: np.ndarray | None = None
) -> float:
    """Multiply one field's modes in place by exp(-I_s - i k I_w); returns the largest log modal gain.

    A nonzero Im(I_w) makes the magnitude k-dependent: one spectral wing is
    amplified, the other attenuated. That gain is the distortion mechanism
    for detuned runs, so the largest log modal gain of the step is guarded
    against overflow before the modes are touched. The log gain is linear
    in k, so its largest value sits at the most positive or most negative
    mode. A caller that evolves many intervals passes one factor buffer to
    every call, so no interval allocates and faults in a new factor.
    """
    half = k_grid.size // 2
    extremes = k_grid[[half - 1, half]]  # largest and most negative k, FFT order
    max_gain = float(np.max(-i_s.real + extremes * i_w.imag))
    if max_gain > LOG_GAIN_GUARD:
        raise AmplificationOverflowError(
            f"modal log gain {max_gain:.2f} exceeds guard {LOG_GAIN_GUARD:.0f} in one "
            f"interval; the scenario is too far off resonance for a meaningful run"
        )
    modes *= mode_factor(k_grid, i_s, i_w, out=factor)
    return max_gain


def reconstruct(psi: FieldGrid, theta: float, params: MediumParams) -> tuple[FieldGrid, FieldGrid, FieldGrid]:
    """Bright field, probe field, and lower-level coherence from the dark field.

    The zeroth-order bright ratio depends on theta alone. Inverting the
    dark/bright superposition on (Psi, Phi) returns the probe and coherence
    exactly, so the round trip back to (Psi, Phi) is identity. Each field is
    linear in psi, so a time derivative of psi maps to that of each field.
    """
    ratio = bright_ratio(theta, params)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    root_n = math.sqrt(params.n_atoms)
    phi = FieldGrid(psi.grid, ratio * psi.values)
    e_field = FieldGrid(psi.grid, (cos_t + sin_t * ratio) * psi.values)
    sigma_bc = FieldGrid(psi.grid, -((sin_t - cos_t * ratio) / root_n) * psi.values)
    return phi, e_field, sigma_bc


@dataclass(frozen=True)
class Snapshot:
    """The dark field at one time, with the control sample that reconstructs the rest.

    phi, e_field and sigma_bc are built by reconstruct on first access and
    cached, so a run that reads only psi never builds them.
    """

    t: float  # s
    psi: FieldGrid
    theta: float  # rad
    params: MediumParams
    peak: float  # max |psi|

    @cached_property
    def _reconstructed(self) -> tuple[FieldGrid, FieldGrid, FieldGrid]:
        return reconstruct(self.psi, self.theta, self.params)

    @property
    def phi(self) -> FieldGrid:
        return self._reconstructed[0]

    @property
    def e_field(self) -> FieldGrid:
        return self._reconstructed[1]

    @property
    def sigma_bc(self) -> FieldGrid:
        return self._reconstructed[2]


@dataclass(frozen=True)
class SimulationResult:
    snapshots: tuple[Snapshot, ...]
    coefficient_trace: CoefficientSample  # arrays over the distinct quadrature nodes, by time
    validity: ValidityReport
    params: MediumParams
    grid: GridSpec
    pulse: PulseSpec
    schedule: ControlSchedule

    def snapshot_at(self, t: float) -> Snapshot:
        """The snapshot closest to time t."""
        best = min(self.snapshots, key=lambda s: abs(s.t - t))
        return best


def check_pulse_fits(grid: GridSpec, pulse: PulseSpec):
    support = pulse.pulse_length
    if grid.length < DOMAIN_PADDING_FACTOR * support:
        raise ConfigError(
            f"domain length {grid.length} m is below {DOMAIN_PADDING_FACTOR}x the "
            f"pulse length {support} m; enlarge the grid to keep the periodic "
            f"boundary out of play"
        )
    if not (grid.z_min + support <= pulse.center_z <= grid.z_max - support):
        raise ConfigError(
            f"pulse center {pulse.center_z} m sits within one pulse length of the "
            f"domain edge [{grid.z_min}, {grid.z_max}]"
        )


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
    modes: np.ndarray, low: float, high: float, probe: tuple[np.ndarray, np.ndarray], t: float
) -> bool:
    """Raise when the low-passed field of one row of modes reaches an edge sample.

    low and high bound the row's max |psi|; a transformed row passes its
    peak as both. The check raises when an edge sample reaches the floor
    times high, returns True when every edge sample is below the floor
    times low, and returns False when the bounds cannot tell. The floor is
    relative to the full field, not the low-passed one: a run whose high-k
    modes were amplified into garbage leaves ~1e-16 * garbage of transform
    roundoff in every retained mode, and measuring support against the tiny
    smooth remnant would abort sweeps whose whole point is to report that
    garbage as a distorted verdict.
    """
    if high == 0.0:
        return True
    index, basis = probe
    edge = float(np.max(np.abs(modes[index] @ basis)))
    if edge >= WRAPAROUND_SUPPORT_FLOOR * high:
        raise DomainOverflowError(
            t, f"pulse support reached the domain edge at t = {t:.6e} s"
        )
    return edge < WRAPAROUND_SUPPORT_FLOOR * low


def _fields_and_peaks(modes: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """The samples of every row of modes and each row's max |psi|, NaN or inf once the row overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        fields = inverse_transform(modes)
        return fields, [float(np.max(np.abs(row))) for row in fields]


class BlockEvolution:
    """The spectral evolution of a block of media that share grid, pulse, schedule and horizon.

    The modes of the block form one (media x n) array, so each snapshot the
    caller reads takes one inverse FFT along the last axis for the whole
    block; along that axis the 2-D transform equals the row-by-row 1-D
    transforms bit for bit. A snapshot the caller does not read is checked
    from Parseval bounds on each row's peak, and a row is transformed there
    only when its bounds cannot settle a check. Mode products and every
    reduction stay per row: broadcast across rows they round differently,
    and a distorted row amplifies that round-off.

    Checks of the shared arguments raise. Each medium's own checks (regime,
    quadrature, gain guard, finite field, wraparound) run per row, in the
    order a run of that medium alone meets them. A medium that fails leaves
    the block with the exception its own run would raise, kept in `failed`
    by medium index; the others carry on. `evolve` yields, per snapshot
    read, its index and the (medium index, Snapshot) pairs of the rows
    still running, so a caller that reduces each snapshot as it arrives
    holds one block of fields at a time.
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
        extra_notes: tuple[str, ...] = (),
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
        self.faint: set[int] = set()
        self.validity: dict[int, ValidityReport] = {}
        self.traces: dict[int, list[CoefficientSample]] = {}
        self._steps = {}  # medium index -> (I_s and I_w per interval, theta per snapshot)
        t = np.array(self.times)
        for j, params in enumerate(self.media):
            try:
                validity = check_regime(params, pulse, schedule, extra_notes)
                if not validity.blocking_pass and not force:
                    blocking = [name for name in validity.failed() if name in BLOCKING_CHECKS]
                    raise ValidityError("regime checks failed: " + ", ".join(blocking))
                trace: list[CoefficientSample] = []
                i_s, i_w = accumulate_exponent(params, schedule, t[:-1], t[1:], trace)
            except EitmemError as exc:
                self.failed[j] = exc
                continue
            self.validity[j] = validity
            self.traces[j] = trace
            self._steps[j] = (i_s, i_w, schedule.eval(params, t).theta)

    def _snapshot(self, j: int, i: int, psi: FieldGrid, peak: float) -> Snapshot:
        return Snapshot(self.times[i], psi, float(self._steps[j][2][i]), self.media[j], peak)

    def _drop_failed(self, live: list[int], modes: np.ndarray) -> tuple[list[int], np.ndarray]:
        """The running media and their rows of modes, less those that just failed."""
        kept = [r for r, j in enumerate(live) if j not in self.failed]
        if len(kept) == len(live):
            return live, modes
        return [live[r] for r in kept], modes[kept]

    def _check_peak(self, modes: np.ndarray, peak: float, probe, i: int):
        """The finite and wraparound checks of one transformed row of modes at snapshot i."""
        if not math.isfinite(peak):
            raise SimulationError(
                f"field overflowed to non-finite samples in the interval "
                f"[{self.times[i - 1]:.6e}, {self.times[i]:.6e}] s"
            )
        _check_wraparound(modes, peak, peak, probe, self.times[i])

    def _check_bounds(self, modes: np.ndarray, probe, floor: float, i: int) -> bool:
        """Check one row of modes at a snapshot not read; returns whether its peak is below floor.

        The finite check, the wraparound check and the floor test are
        settled from peak_bounds. When a bound cannot settle one, the row
        alone is transformed and checked on its peak, in the same order and
        with the same errors as at a snapshot read.
        """
        low, high = peak_bounds(modes)
        if (
            high * modes.size < FINITE_PEAK_LIMIT
            and _check_wraparound(modes, low, high, probe, self.times[i])
            and (high < floor or low >= floor)
        ):
            return high < floor
        _, (peak,) = _fields_and_peaks(modes[np.newaxis])
        self._check_peak(modes, peak, probe, i)
        return peak < floor

    def evolve(self, read=None, floor: float = 0.0):
        """Run the block; yields, per snapshot read, its index and the (medium index, Snapshot) pairs of the rows still running.

        read holds the indices into `times` of the snapshots whose fields the
        caller reads; None reads them all. Only those snapshots take the
        block inverse FFT. Every other snapshot checks each row from bounds
        on its peak (_check_bounds). A running medium whose peak is below
        floor at any snapshot, read or not, is added to `faint`.
        """
        live = [j for j in range(len(self.media)) if j not in self.failed]
        if not live:
            return
        k = self.grid.k_array()
        modes0 = forward_transform(self.psi0)
        probe = _edge_probe(k, self.pulse)
        peak0 = self.psi0.peak()
        if peak0 < floor:
            self.faint.update(live)
        if read is None or 0 in read:
            yield 0, [(j, self._snapshot(j, 0, self.psi0, peak0)) for j in live]
        modes = np.empty((len(live), modes0.size), dtype=complex)
        modes[:] = modes0
        factor = np.empty(modes0.size, dtype=complex)
        for i in range(1, len(self.times)):
            # Modes that pass the per-interval guard can still overflow over
            # many intervals. A row whose peak is then not finite fails with
            # the interval named, so numpy is not asked to warn on the way.
            with np.errstate(over="ignore", invalid="ignore"):
                for r, j in enumerate(live):
                    i_s, i_w, _ = self._steps[j]
                    try:
                        apply_evolution(modes[r], k, i_s[i - 1], i_w[i - 1], factor)
                    except EitmemError as exc:
                        self.failed[j] = exc
            live, modes = self._drop_failed(live, modes)
            if not live:
                return
            is_read = read is None or i in read
            if is_read:
                fields, peaks = _fields_and_peaks(modes)
            members = []
            for r, j in enumerate(live):
                try:
                    if is_read:
                        self._check_peak(modes[r], peaks[r], probe, i)
                        below = peaks[r] < floor
                        members.append((j, self._snapshot(j, i, FieldGrid(self.grid, fields[r]), peaks[r])))
                    else:
                        below = self._check_bounds(modes[r], probe, floor, i)
                except EitmemError as exc:
                    self.failed[j] = exc
                    continue
                if below:
                    self.faint.add(j)
            live, modes = self._drop_failed(live, modes)
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
    extra_notes: tuple[str, ...] = (),
) -> SimulationResult:
    """Run the spectral evolution of one medium and take a snapshot every snapshot_dt.

    The initial dark field comes from the pulse spec unless initial_field
    overrides it (same grid required); the override exists for linearity and
    translation checks where the initial shape is not a fresh Gaussian.
    Regime checks run first and block the run unless force is set. The
    exponents of all snapshot intervals come from one quadrature pass. This
    is the block evolution on a block of one.
    """
    block = BlockEvolution(
        [params], grid, pulse, schedule, horizon, snapshot_dt, force, initial_field, extra_notes
    )
    snapshots = tuple(snap for _, members in block.evolve() for _, snap in members)
    if block.failed:
        raise block.failed[0]
    return SimulationResult(
        snapshots=snapshots,
        coefficient_trace=_distinct_nodes(block.traces[0]),
        validity=block.validity[0],
        params=params,
        grid=grid,
        pulse=pulse,
        schedule=schedule,
    )


def _distinct_nodes(trace: list[CoefficientSample]) -> CoefficientSample:
    """All traced integrand evaluations in time order, one per distinct node."""
    t = np.concatenate([cs.t for cs in trace])
    order = np.argsort(t, kind="stable")
    t = t[order]
    first = np.concatenate(([True], t[1:] != t[:-1]))
    pick = order[first]
    return CoefficientSample(
        t=t[first],
        s_part=np.concatenate([cs.s_part for cs in trace])[pick],
        w_part=np.concatenate([cs.w_part for cs in trace])[pick],
    )


def write_snapshots_csv(result: SimulationResult, path, stride: int = 1):
    """Dump every snapshot as rows of t, z, and Re/Im/abs of each field."""
    header = (
        "t,z,re_psi,im_psi,abs_psi,re_phi,im_phi,abs_phi,"
        "re_e,im_e,abs_e,re_sigma_bc,im_sigma_bc,abs_sigma_bc\n"
    )
    snapshots = (
        (snap.t, (snap.psi.values, snap.phi.values, snap.e_field.values, snap.sigma_bc.values))
        for snap in result.snapshots
    )
    write_csv(path, header, field_tables(result.grid.z_array(), snapshots, stride))


def write_coefficient_csv(trace: CoefficientSample, path):
    """Coefficient trace rows: t, alpha1, alpha2, beta, v_g, one per node."""
    names = ("t", "alpha1", "alpha2", "beta", "v_g")
    columns = [getattr(trace, name) for name in names]
    write_csv(path, ",".join(names) + "\n", [columns])
