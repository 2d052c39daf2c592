"""Trajectories, graph frames and curve frames share one CSV codec.

Each format must carry every finite float through a write and a read
bit for bit, signed zeros read back as 0.0, and reject what it did not
write.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sdflow.curveflow import ClosedCurve, seed_circle
from sdflow.geometry import GraphField
from sdflow.soliton import SolitonKind, Trajectory

# every finite float, with the extremes drawn often: signed zeros,
# subnormals and the largest magnitudes
EXTREMES = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max])
VALUE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EXTREMES)


def as_read(values) -> bytes:
    """The bits that ``values`` must read back as: their own, -0.0 as 0.0."""
    return (np.asarray(values, dtype=float) + 0.0).tobytes()


def trajectory(columns) -> Trajectory:
    """A trajectory with the six stored columns y, phi, psi, k, w, S."""
    y, phi, psi, k, w, S = columns
    kind = SolitonKind.travelling(1.0, -0.5)
    return Trajectory(kind=kind, direction=-1, y=y, phi=phi, psi=psi, k=k, w=w, S=S,
                      outcome="breakdown", certificate=None, max_abs_k=0.0, max_turning=0.0)


@settings(max_examples=100, deadline=None)
@given(columns=st.integers(1, 40).flatmap(lambda n: arrays(np.float64, (6, n), elements=VALUE)))
def test_trajectory_csv_roundtrip_bit_for_bit(columns):
    traj = trajectory(columns)
    back = Trajectory.from_csv(traj.to_csv())
    assert (back.kind, back.direction, back.outcome) == (traj.kind, -1, "breakdown")
    for name, column in zip(("y", "phi", "psi", "k", "w", "S"), columns):
        assert getattr(back, name).tobytes() == as_read(column), name


@settings(max_examples=100, deadline=None)
@given(values=st.integers(4, 40).flatmap(lambda m: arrays(np.float64, 2 * m, elements=VALUE)),
       length=st.floats(1e-3, 1e3))
def test_graph_frame_csv_roundtrip_bit_for_bit(values, length):
    f = GraphField(length, 0.5, values)
    back = GraphField.from_csv(f.to_csv(), length, slope_offset=0.5)
    assert back.values.tobytes() == as_read(values)
    assert back.domain_length == length


# distinct vertices, so that consecutive vertices are distinct
@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(VALUE, VALUE), min_size=16, max_size=40, unique=True))
def test_curve_frame_csv_roundtrip_bit_for_bit(points):
    back = ClosedCurve.from_csv(ClosedCurve(points).to_csv())
    assert back.points.tobytes() == as_read(points)


def written_files() -> dict:
    """One file written by each format, as (reader, text)."""
    columns = np.linspace(-1.0, 1.0, 60).reshape(6, 10)
    return {
        "trajectory": (Trajectory.from_csv, trajectory(columns).to_csv()),
        "graph": (lambda text: GraphField.from_csv(text, 2.0),
                  GraphField(2.0, 0.0, np.linspace(-1.0, 1.0, 16)).to_csv()),
        "curve": (ClosedCurve.from_csv, seed_circle(2.0, 16).to_csv()),
    }


def with_header_and_rows(text: str, edit) -> str:
    """``text`` with ``edit`` applied to its (header, rows) lines."""
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    header, *rows = lines[len(meta):]
    return "\n".join(meta + edit(header, rows)) + "\n"


def last_value_of_first_row(token):
    # rpartition, not rsplit: a one-column row has no comma, and its one
    # value must be the one replaced
    def edit(header, rows):
        head, comma, _ = rows[0].rpartition(",")
        return [header, head + comma + token, *rows[1:]]
    return edit


EDITS = {
    "nan": last_value_of_first_row("nan"),
    "inf": last_value_of_first_row("inf"),
    "-inf": last_value_of_first_row("-inf"),
    "not a number": last_value_of_first_row("x"),
    "short row": lambda header, rows: [header, *rows[:-1], rows[-1].rpartition(",")[0]],
    "long row": lambda header, rows: [header, *rows[:-1], rows[-1] + ",1.0"],
    "every row long": lambda header, rows: [header, *(row + ",1.0" for row in rows)],
    "missing header": lambda header, rows: rows,
    "other header": lambda header, rows: [header.upper(), *rows],
    "empty body": lambda header, rows: [header],
    "blank row": lambda header, rows: [header, rows[0], "", *rows[1:]],
}


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("fmt", ["trajectory", "graph", "curve"])
def test_reader_rejects_what_the_writer_never_writes(fmt, edit):
    reader, text = written_files()[fmt]
    reader(text)
    with pytest.raises(ValueError):
        reader(with_header_and_rows(text, EDITS[edit]))


def test_trajectory_direction_must_be_finite():
    text = trajectory(np.ones((6, 4))).to_csv()
    assert "# a=1.0\n" in text
    with pytest.raises(ValueError):
        Trajectory.from_csv(text.replace("# a=1.0\n", "# a=nan\n"))
