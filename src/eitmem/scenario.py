"""Run descriptions: medium + grid + pulse + schedule + timing, with INI I/O.

A scenario file is an INI document with sections [medium], [grid],
[pulse], [schedule] and [run].  Every number is written back with
repr-level precision so that save -> load round-trips to the exact
same floats.  The key tables below are the format's one definition:
load_scenario and save_scenario both read them.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass

from .control import SCHEDULE_KINDS, ControlSchedule
from .errors import ConfigError, require_finite
from .grids import MAX_SNAPSHOT_SAMPLES, GridSpec, whole_steps
from .model import MediumParams, PulseSpec, check_pulse_fits

DEFAULT_LABEL = "storage_default"

# [medium] keys a file may hold that the model never reads, each with the
# reason. They are accepted, so older files still load, and each one found
# becomes a note.
_NO_POPULATION_DECAY = "the reduced field-coherence dynamics never reference optical population decay"
IGNORED_MEDIUM_KEYS = {
    "gamma_a": _NO_POPULATION_DECAY,
    "gamma_c": _NO_POPULATION_DECAY,
    "nu_p": "the envelope equations never reference the probe carrier frequency",
    "cell_diameter": "g is given directly, so the cell volume that would set it is never needed",
}

# A key with no default must be present in the file.
REQUIRED = dataclasses.MISSING

# One (key, type, default) row per key, in the order the file is written.
# The type is float, int, str, tuple (comma-separated floats) or complex
# (keys <key>_re and <key>_im, the imaginary part defaulting to 0). A
# callable default is computed from the keys of its section read before it.
MEDIUM_KEYS = tuple((f.name, float, f.default) for f in dataclasses.fields(MediumParams))
GRID_KEYS = (("z_min", float, REQUIRED), ("z_max", float, REQUIRED), ("n_points", int, REQUIRED))
PULSE_KEYS = (
    ("amplitude", complex, REQUIRED),
    ("center_z", float, REQUIRED),
    ("width", float, REQUIRED),
)
_KIND_KEYS = {
    "constant": (("omega", float, REQUIRED),),
    "tabulated": (("times", tuple, REQUIRED), ("thetas", tuple, REQUIRED)),
}
# The tanh switch owns every defaulted ControlSchedule field no other kind reads.
_claimed = {key for rows in _KIND_KEYS.values() for key, _, _ in rows}
_KIND_KEYS["tanh_profile"] = tuple(
    (f.name, float, f.default)
    for f in dataclasses.fields(ControlSchedule)
    if f.default is not REQUIRED and f.name not in _claimed
)
SCHEDULE_KEYS = {kind: (("kind", str, REQUIRED),) + _KIND_KEYS[kind] for kind in SCHEDULE_KINDS}
RUN_KEYS = (
    ("horizon", float, REQUIRED),
    ("snapshot_dt", float, REQUIRED),
    # absent: the start of the last stored interval
    ("output_time", float, lambda run: run["horizon"] - run["snapshot_dt"]),
    ("label", str, DEFAULT_LABEL),
)


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
    # Remarks on the file the scenario was read from, such as an ignored key.
    # They do not change the run, so they take no part in equality.
    notes: tuple[str, ...] = dataclasses.field(default=(), compare=False)

    def __post_init__(self):
        for name in ("horizon", "snapshot_dt", "output_time"):
            require_finite(name, getattr(self, name))
        if not self.horizon > 0.0:
            raise ConfigError("horizon must be positive")
        if not (0.0 < self.snapshot_dt <= self.horizon):
            raise ConfigError("snapshot_dt must lie in (0, horizon]")
        n_steps = whole_steps(self.horizon, self.snapshot_dt)
        if not n_steps:
            raise ConfigError(
                "snapshot_dt must divide the horizon evenly "
                f"(horizon/snapshot_dt = {self.horizon / self.snapshot_dt!r})"
            )
        if (n_steps + 1) * self.grid.n_points > MAX_SNAPSHOT_SAMPLES:
            raise ConfigError(
                f"{n_steps + 1} snapshots of {self.grid.n_points} points exceed the "
                f"{MAX_SNAPSHOT_SAMPLES} samples a run may hold; lengthen snapshot_dt"
            )
        if not (0.0 <= self.output_time <= self.horizon):
            raise ConfigError("output_time must lie within [0, horizon]")
        # configparser strips a value's edge whitespace on load, so such a
        # label could not survive a save and load.
        if self.label != self.label.strip():
            raise ConfigError(f"label must not start or end with whitespace, got {self.label!r}")
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


def save_scenario(scenario: Scenario, path: str):
    cp = configparser.ConfigParser(interpolation=None)
    sections = (
        ("medium", scenario.medium, MEDIUM_KEYS),
        ("grid", scenario.grid, GRID_KEYS),
        ("pulse", scenario.pulse, PULSE_KEYS),
        ("schedule", scenario.schedule, SCHEDULE_KEYS[scenario.schedule.kind]),
        ("run", scenario, RUN_KEYS),
    )
    for name, obj, rows in sections:
        cp[name] = _format_section(obj, rows)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def _format_section(obj, rows) -> dict[str, str]:
    """The text of each row's field of obj, by key."""
    out = {}
    for key, kind, _ in rows:
        value = getattr(obj, key)
        if kind is complex:
            out[key + "_re"] = repr(float(value.real))
            out[key + "_im"] = repr(float(value.imag))
        elif kind is tuple:
            out[key] = ", ".join(repr(float(v)) for v in value)
        else:
            out[key] = repr(float(value)) if kind is float else str(value)
    return out


def _parse(kind, raw: str, where: str):
    """One value of a row's type, named `where` in errors; floats must be finite."""
    if kind is str:
        return raw
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where} = {raw!r} cannot be parsed as an integer") from None
    if kind is tuple:
        value = []
        for piece in filter(None, (p.strip() for p in raw.split(","))):
            try:
                value.append(float(piece))
            except ValueError:
                raise ConfigError(
                    f"{where}: entry {piece!r} cannot be parsed as a number"
                ) from None
        value = tuple(value)
    else:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{where} = {raw!r} cannot be parsed as a number") from None
    require_finite(where, value)
    return value


def _read_section(cp, name: str, rows, tolerated: tuple[str, ...] = ()) -> dict:
    """Section [name] parsed by its rows, as constructor keywords by key.

    A key outside the rows is an error unless tolerated. An absent key
    takes its row's default; an absent REQUIRED key is an error.
    """
    section = cp[name]
    known = set(tolerated)
    for key, kind, _ in rows:
        known.update((key + "_re", key + "_im") if kind is complex else (key,))
    for key in section:
        if key not in known:
            raise ConfigError(f"[{name}] has unrecognized key {key!r}")

    def read(key, kind, default):
        raw = section.get(key)
        if raw is not None:
            return _parse(kind, raw, f"[{name}] {key}")
        if default is REQUIRED:
            raise ConfigError(f"[{name}] is missing required key {key!r}")
        return default(values) if callable(default) else default

    values = {}
    for key, kind, default in rows:
        if kind is complex:
            values[key] = complex(read(key + "_re", float, default), read(key + "_im", float, 0.0))
        else:
            values[key] = read(key, kind, default)
    return values


def load_scenario(path: str) -> Scenario:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8-sig")  # a byte-order mark is allowed
    except (configparser.Error, UnicodeDecodeError) as exc:
        message = " ".join(str(exc).split())  # configparser's messages span lines
        raise ConfigError(f"cannot parse scenario file {path}: {message}") from None
    if not read:
        raise ConfigError(f"scenario file {path} does not exist or is unreadable")
    for name in ("medium", "grid", "pulse", "schedule", "run"):
        if name not in cp:
            raise ConfigError(f"scenario file {path} is missing section [{name}]")

    medium = MediumParams(**_read_section(cp, "medium", MEDIUM_KEYS, tuple(IGNORED_MEDIUM_KEYS)))
    notes = tuple(
        f"[medium] {key} = {cp['medium'][key]} accepted but unused: {reason}"
        for key, reason in IGNORED_MEDIUM_KEYS.items()
        if key in cp["medium"]
    )
    grid = GridSpec(**_read_section(cp, "grid", GRID_KEYS))
    pulse = PulseSpec(**_read_section(cp, "pulse", PULSE_KEYS))
    kind = cp["schedule"].get("kind")
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(
            f"[schedule] kind must be one of {SCHEDULE_KINDS}, got {kind!r}"
        )
    schedule = ControlSchedule(**_read_section(cp, "schedule", SCHEDULE_KEYS[kind]))
    return Scenario(
        medium=medium,
        grid=grid,
        pulse=pulse,
        schedule=schedule,
        notes=notes,
        **_read_section(cp, "run", RUN_KEYS),
    )


def with_medium(scenario: Scenario, **overrides) -> Scenario:
    """New scenario whose medium differs in the given fields only."""
    return dataclasses.replace(
        scenario, medium=dataclasses.replace(scenario.medium, **overrides)
    )
