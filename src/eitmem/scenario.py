"""Run descriptions: medium + grid + pulse + schedule + timing, with INI I/O.

A scenario file is an INI document with sections [medium], [grid],
[pulse], [schedule] and [run].  Every number is written back with
repr-level precision so that save -> load round-trips to the exact
same floats.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

from .control import SCHEDULE_KINDS, ControlSchedule
from .errors import ConfigError, require_finite
from .grids import GridSpec, whole_steps
from .model import C_VACUUM, MediumParams, PulseSpec
from .solver import check_pulse_fits

DEFAULT_LABEL = "storage_default"

# Keys we read but deliberately do not feed into the dynamics.  The
# reduced equations only ever see the two coherence rates, so optical
# population decay constants in a config are accepted and flagged.
IGNORED_MEDIUM_KEYS = ("gamma_a", "gamma_c")


@dataclass(frozen=True)
class Scenario:
    """A complete, self-contained description of one storage run."""

    medium: MediumParams
    grid: GridSpec
    pulse: PulseSpec
    schedule: ControlSchedule
    horizon: float  # s
    snapshot_dt: float  # s
    output_time: float  # s, when the retrieved pulse is inspected
    label: str = DEFAULT_LABEL
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("horizon", "snapshot_dt", "output_time"):
            require_finite(name, getattr(self, name))
        if not self.horizon > 0.0:
            raise ConfigError("horizon must be positive")
        if not (0.0 < self.snapshot_dt <= self.horizon):
            raise ConfigError("snapshot_dt must lie in (0, horizon]")
        if not whole_steps(self.horizon, self.snapshot_dt):
            raise ConfigError(
                "snapshot_dt must divide the horizon evenly "
                f"(horizon/snapshot_dt = {self.horizon / self.snapshot_dt!r})"
            )
        if not (0.0 <= self.output_time <= self.horizon):
            raise ConfigError("output_time must lie within [0, horizon]")
        check_pulse_fits(self.grid, self.pulse)
        if self.schedule.kind == "tabulated":
            times = self.schedule.times
            if times[0] > 0.0 or times[-1] < self.horizon:
                raise ConfigError(
                    "tabulated schedule must cover [0, horizon]; table spans "
                    f"[{times[0]!r}, {times[-1]!r}] against horizon {self.horizon!r}"
                )


def default_scenario() -> Scenario:
    """Reference storage run: warm-vapor style numbers, tanh storage window."""
    medium = MediumParams(
        g=1.0e6,  # rad/s per unit field
        n_atoms=1.0e8,
        length=5.0e-3,  # m
        cell_diameter=200.0e-6,  # m
        nu_p=2.0 * math.pi * 5.0e14,  # rad/s
        gamma_ba=1.0e8,  # rad/s
        gamma_bc=1.0e4,  # rad/s
    )
    grid = GridSpec(z_min=-10.0e-3, z_max=10.0e-3, n_points=16384)
    pulse = PulseSpec(amplitude=0.2, center_z=-2.0e-3, width=1.0e-3)
    schedule = ControlSchedule(kind="tanh_profile")
    return Scenario(
        medium=medium,
        grid=grid,
        pulse=pulse,
        schedule=schedule,
        horizon=180.0e-6,
        snapshot_dt=15.0e-6,
        output_time=165.0e-6,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def save_scenario(scenario: Scenario, path: str):
    cp = configparser.ConfigParser()
    m = scenario.medium
    cp["medium"] = {
        "g": _fmt(m.g),
        "n_atoms": _fmt(m.n_atoms),
        "length": _fmt(m.length),
        "cell_diameter": _fmt(m.cell_diameter),
        "nu_p": _fmt(m.nu_p),
        "gamma_ba": _fmt(m.gamma_ba),
        "gamma_bc": _fmt(m.gamma_bc),
        "delta": _fmt(m.delta),
        "delta_p": _fmt(m.delta_p),
        "c": _fmt(m.c),
    }
    g = scenario.grid
    cp["grid"] = {
        "z_min": _fmt(g.z_min),
        "z_max": _fmt(g.z_max),
        "n_points": str(g.n_points),
    }
    p = scenario.pulse
    pulse_section = {
        "amplitude_re": _fmt(p.amplitude.real),
        "amplitude_im": _fmt(p.amplitude.imag),
        "center_z": _fmt(p.center_z),
        "width": _fmt(p.width),
    }
    if p.l_p is not None:
        pulse_section["l_p"] = _fmt(p.l_p)
    cp["pulse"] = pulse_section
    s = scenario.schedule
    sched_section = {"kind": s.kind}
    if s.kind == "constant":
        sched_section["omega"] = _fmt(s.omega)
    elif s.kind == "tanh_profile":
        sched_section.update(
            scale=_fmt(s.scale),
            floor=_fmt(s.floor),
            steepness=_fmt(s.steepness),
            t1=_fmt(s.t1),
            t2=_fmt(s.t2),
        )
    else:
        sched_section["times"] = ", ".join(_fmt(t) for t in s.times)
        sched_section["thetas"] = ", ".join(_fmt(th) for th in s.thetas)
    cp["schedule"] = sched_section
    cp["run"] = {
        "horizon": _fmt(scenario.horizon),
        "snapshot_dt": _fmt(scenario.snapshot_dt),
        "output_time": _fmt(scenario.output_time),
        "label": scenario.label,
    }
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def _parse_float(section, key: str, section_name: str, default: float | None = None) -> float:
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"[{section_name}] is missing required key {key!r}")
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"[{section_name}] {key} = {raw!r} cannot be parsed as a number"
        ) from None
    require_finite(f"[{section_name}] {key}", value)
    return value


def _parse_int(section, key: str, section_name: str) -> int:
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"[{section_name}] is missing required key {key!r}")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"[{section_name}] {key} = {raw!r} cannot be parsed as an integer"
        ) from None


def _parse_float_list(section, key: str, section_name: str) -> tuple[float, ...]:
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"[{section_name}] is missing required key {key!r}")
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise ConfigError(
                f"[{section_name}] {key}: entry {piece!r} cannot be parsed as a number"
            ) from None
    require_finite(f"[{section_name}] {key}", out)
    return tuple(out)


def _reject_unknown_keys(section, section_name: str, allowed: tuple[str, ...]):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"[{section_name}] has unrecognized key {key!r}")


def load_scenario(path: str) -> Scenario:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse scenario file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"scenario file {path} does not exist or is unreadable")
    for name in ("medium", "grid", "pulse", "schedule", "run"):
        if name not in cp:
            raise ConfigError(f"scenario file {path} is missing section [{name}]")

    notes = []
    msec = cp["medium"]
    _reject_unknown_keys(
        msec,
        "medium",
        (
            "g",
            "n_atoms",
            "length",
            "cell_diameter",
            "nu_p",
            "gamma_ba",
            "gamma_bc",
            "delta",
            "delta_p",
            "c",
        )
        + IGNORED_MEDIUM_KEYS,
    )
    for key in IGNORED_MEDIUM_KEYS:
        if key in msec:
            notes.append(
                f"[medium] {key} = {msec[key]} accepted but unused: the reduced "
                "field-coherence dynamics never reference optical population decay"
            )
    medium = MediumParams(
        g=_parse_float(msec, "g", "medium"),
        n_atoms=_parse_float(msec, "n_atoms", "medium"),
        length=_parse_float(msec, "length", "medium"),
        cell_diameter=_parse_float(msec, "cell_diameter", "medium"),
        nu_p=_parse_float(msec, "nu_p", "medium"),
        gamma_ba=_parse_float(msec, "gamma_ba", "medium"),
        gamma_bc=_parse_float(msec, "gamma_bc", "medium"),
        delta=_parse_float(msec, "delta", "medium", default=0.0),
        delta_p=_parse_float(msec, "delta_p", "medium", default=0.0),
        c=_parse_float(msec, "c", "medium", default=C_VACUUM),
    )

    gsec = cp["grid"]
    _reject_unknown_keys(gsec, "grid", ("z_min", "z_max", "n_points"))
    grid = GridSpec(
        z_min=_parse_float(gsec, "z_min", "grid"),
        z_max=_parse_float(gsec, "z_max", "grid"),
        n_points=_parse_int(gsec, "n_points", "grid"),
    )

    psec = cp["pulse"]
    _reject_unknown_keys(
        psec, "pulse", ("amplitude_re", "amplitude_im", "center_z", "width", "l_p")
    )
    l_p = _parse_float(psec, "l_p", "pulse", default=-1.0)
    pulse = PulseSpec(
        amplitude=complex(
            _parse_float(psec, "amplitude_re", "pulse"),
            _parse_float(psec, "amplitude_im", "pulse", default=0.0),
        ),
        center_z=_parse_float(psec, "center_z", "pulse"),
        width=_parse_float(psec, "width", "pulse"),
        l_p=None if l_p <= 0.0 else l_p,
    )

    ssec = cp["schedule"]
    kind = ssec.get("kind")
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(
            f"[schedule] kind must be one of {SCHEDULE_KINDS}, got {kind!r}"
        )
    if kind == "constant":
        _reject_unknown_keys(ssec, "schedule", ("kind", "omega"))
        schedule = ControlSchedule(kind=kind, omega=_parse_float(ssec, "omega", "schedule"))
    elif kind == "tanh_profile":
        _reject_unknown_keys(
            ssec, "schedule", ("kind", "scale", "floor", "steepness", "t1", "t2")
        )
        defaults = ControlSchedule(kind="tanh_profile")
        schedule = ControlSchedule(
            kind=kind,
            scale=_parse_float(ssec, "scale", "schedule", default=defaults.scale),
            floor=_parse_float(ssec, "floor", "schedule", default=defaults.floor),
            steepness=_parse_float(ssec, "steepness", "schedule", default=defaults.steepness),
            t1=_parse_float(ssec, "t1", "schedule", default=defaults.t1),
            t2=_parse_float(ssec, "t2", "schedule", default=defaults.t2),
        )
    else:
        _reject_unknown_keys(ssec, "schedule", ("kind", "times", "thetas"))
        schedule = ControlSchedule(
            kind=kind,
            times=_parse_float_list(ssec, "times", "schedule"),
            thetas=_parse_float_list(ssec, "thetas", "schedule"),
        )

    rsec = cp["run"]
    _reject_unknown_keys(rsec, "run", ("horizon", "snapshot_dt", "output_time", "label"))
    horizon = _parse_float(rsec, "horizon", "run")
    snapshot_dt = _parse_float(rsec, "snapshot_dt", "run")
    output_time = _parse_float(rsec, "output_time", "run", default=horizon - snapshot_dt)
    return Scenario(
        medium=medium,
        grid=grid,
        pulse=pulse,
        schedule=schedule,
        horizon=horizon,
        snapshot_dt=snapshot_dt,
        output_time=output_time,
        label=rsec.get("label", DEFAULT_LABEL),
        notes=tuple(notes),
    )


def with_medium(scenario: Scenario, **overrides) -> Scenario:
    """New scenario whose medium differs in the given fields only."""
    return dataclasses.replace(
        scenario, medium=dataclasses.replace(scenario.medium, **overrides)
    )
