"""The CSV artifacts against the per-value writer they were first written with."""

from __future__ import annotations

import dataclasses
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitmem.coefficients import exponent_integrand
from eitmem.grids import FieldGrid, GridSpec, field_tables, write_csv
from eitmem.oracle import OracleState, write_oracle_csv
from eitmem.solver import reconstruct, write_coefficient_csv, write_snapshots_csv

from conftest import coefficient_times


def per_value_rows(tables, stride: int = 1) -> bytes:
    """Rows as the first CSV writer wrote them: one format call per value.

    A table is (t, z, fields), expanded to t on every row, z, then Re, Im
    and |.| of each field, all on the full grid and then taken at the
    stride; or a plain list of columns.
    """
    lines = []
    for table in tables:
        if isinstance(table, tuple):
            t, z, fields = table
            columns = [np.full(len(z), t), z]
            for vals in fields:
                columns += [vals.real, vals.imag, np.hypot(vals.real, vals.imag)]
        else:
            columns = table
        for row in zip(*[np.asarray(c, dtype=float)[::stride].tolist() for c in columns]):
            lines.append(",".join([format(float(x), ".17g") for x in row]) + "\n")
    return "".join(lines).encode()


def rows_after_header(path: Path, header_lines: int) -> bytes:
    return path.read_bytes().split(b"\n", header_lines)[header_lines]


@pytest.mark.parametrize("stride", [1, 7, 16])  # 7 does not divide the grid
def test_snapshot_csv_matches_the_per_value_writer(tmp_path, default_result, stride):
    # The first and last snapshots: two tables that share z, without the
    # cost of the per-value writer on all thirteen at stride 1.
    result = dataclasses.replace(
        default_result, snapshots=[default_result.snapshots[0], default_result.snapshots[-1]]
    )
    path = tmp_path / "snapshots.csv"
    write_snapshots_csv(result, path, stride)
    z = result.scenario.grid.z_array()
    tables = [
        (s.t, z, (s.psi.values, *(f.values for f in reconstruct(s.psi, s.theta, result.scenario.medium))))
        for s in result.snapshots
    ]
    assert rows_after_header(path, 1) == per_value_rows(tables, stride)


def test_snapshot_csv_builds_no_grid_length_derived_field(tmp_path, default_result):
    # Each derived field is built at the stride alone, so z is the only
    # grid-length array the writer makes: under two complex fields of the
    # grid at peak, where three derived fields per snapshot took 1.65 MB.
    path = tmp_path / "snapshots.csv"
    tracemalloc.start()
    try:
        write_snapshots_csv(default_result, path, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * default_result.scenario.grid.n_points


def test_oracle_csv_matches_the_per_value_writer(tmp_path):
    grid = GridSpec(-2.0, 2.0, 256)
    rng = np.random.default_rng(7)

    def field():
        return FieldGrid(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))

    states = [OracleState(field(), field(), field(), t) for t in (0.0, 3 * 5e-6, 0.1 + 0.2)]
    path = tmp_path / "oracle.csv"
    write_oracle_csv(states, path, 5e-4, stride=3)
    z = grid.z_array()
    tables = [
        (st.t, z, (st.e_field.values, st.sigma_ba.values, st.sigma_bc.values)) for st in states
    ]
    assert rows_after_header(path, 2) == per_value_rows(tables, 3)


def test_coefficient_csv_matches_the_per_value_writer(tmp_path, default_result):
    path = tmp_path / "coefficients.csv"
    write_coefficient_csv(default_result, path)
    t = np.array(coefficient_times(default_result))
    sample = default_result.scenario.schedule.eval(default_result.scenario.medium, t)
    cs = exponent_integrand(sample.theta, sample.theta_dot, default_result.scenario.medium)
    columns = [t, cs.alpha1, cs.alpha2, cs.beta, cs.v_g]
    assert rows_after_header(path, 1) == per_value_rows([columns])


# Where %.17g changes form or digit count, the extremes of the double, and a
# t that no double holds exactly.
EDGES = (
    -0.0,
    5e-324,
    1e-5,
    9.9999999999999991e-06,
    1e16,
    1e17,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    3 * 5e-6,
)
FLOATS = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)


def complex_of(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im with every bit of both parts kept; re + 1j * im turns -0.0 into 0.0."""
    vals = np.empty(re.size, dtype=complex)
    vals.real, vals.imag = re, im
    return vals


@st.composite
def snapshot_tables(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    column = st.lists(FLOATS, min_size=n, max_size=n).map(np.array)
    z = draw(column)
    n_fields = draw(st.integers(min_value=1, max_value=2))
    tables = [
        (draw(FLOATS), z, [complex_of(draw(column), draw(column)) for _ in range(n_fields)])
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return tables, draw(st.integers(min_value=1, max_value=4))


EDGE_COLUMN = np.array(EDGES)


@settings(max_examples=40, deadline=None, database=None)
@given(case=snapshot_tables())
@example(case=([(3 * 5e-6, EDGE_COLUMN, [complex_of(EDGE_COLUMN, EDGE_COLUMN[::-1])])] * 2, 1))
def test_write_csv_matches_the_per_value_writer_on_any_floats(case):
    tables, stride = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        # |.| of two parts near the largest double is inf in both writers.
        with np.errstate(over="ignore"):
            strided = [(t, [vals[::stride] for vals in f]) for t, _, f in tables]
            write_csv(path, "h\n", field_tables(tables[0][1], strided, stride))
            want = per_value_rows(tables, stride)
        assert rows_after_header(path, 1) == want
