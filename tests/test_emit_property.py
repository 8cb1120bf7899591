"""Property test of the CSV writer: ``_emit`` writes what ``csv.writer`` writes.

Tables are drawn with row counts at the edges of the writer's blocks of
lines (none, one, one block less one, one block, one more, two blocks and
one), one to four columns of every kind the writer takes (float64 arrays,
``Factor`` columns over a list or a float64 array of values, sequences that
repeat objects and sequences of fresh objects), values among them ``-0.0``,
``nan``, ``inf``, empty fields and strings that need quoting.  Each is written to standard output and to an
``--output`` file, and both must be the provenance line and then
``csv.writer``'s text of the same rows.
"""

import contextlib
import csv
import io
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvteleport import __version__, cli  # noqa: E402
from cvteleport.cli import Factor, _emit  # noqa: E402

BLOCK = cli._BLOCK_LINES
ROW_COUNTS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e22, 0.1]),
    st.floats(),
)
# Printable ASCII and the characters csv.writer quotes for: a file written in
# any locale encoding holds them as they are.
TEXTS = st.one_of(
    st.sampled_from(["", "a,b", 'say "hi"', "line\nbreak", "c\rr", " pad ", "plain"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("\n\r"),
            max_size=6),
)
OBJECTS = st.one_of(FLOATS, TEXTS, st.none(), st.integers(), st.booleans())
KINDS = ("array", "factor", "array_factor", "repeated", "fresh")


@st.composite
def tables(draw, n_rows):
    """``(table, rows)``: a column table of ``n_rows`` rows, and the same rows
    as lists of the values ``csv.writer`` is given."""
    names = draw(st.lists(TEXTS, min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table, expanded = {}, []
    for name in names:
        kind = draw(st.sampled_from(KINDS))
        floats = kind in ("array", "array_factor", "fresh")
        pool = draw(st.lists(FLOATS if floats else OBJECTS,
                             min_size=1, max_size=6))
        index = rng.integers(len(pool), size=n_rows)
        if kind == "array":
            column = np.array(pool)[index]
            values = column.tolist()
        elif kind == "factor":
            column = Factor(pool, index)
            values = [pool[k] for k in index]
        elif kind == "array_factor":
            column = Factor(np.array(pool), index)
            values = [pool[k] for k in index]
        elif kind == "repeated":  # each value one object, repeated
            column = values = [pool[k] for k in index]
        else:  # a new float object on every row
            column = values = np.array(pool)[index].tolist()
        table[name] = column
        expanded.append(values)
    return table, [list(row) for row in zip(*expanded)]


def _expected(table, rows) -> list:
    """csv.writer's lines for the table's header and ``rows``.

    Texts are compared as lists of lines: a mismatch then reports the first
    differing line instead of a diff of thousands of them.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table)
    writer.writerows(rows)
    return buf.getvalue().splitlines(True)


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_emit_writes_what_csv_writer_writes_at_every_block_edge(n_rows, data):
    table, rows = data.draw(tables(n_rows))
    expected = _expected(table, rows)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(table, {"format": "csv"})
    provenance, *lines = out.getvalue().splitlines(True)
    assert provenance.startswith(f"# cvteleport {__version__} config=")
    assert lines == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        _emit(table, {"format": "csv", "output": path})
        with open(path, newline="") as fh:
            assert fh.read().splitlines(True) == [provenance, *lines]


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_one_column_of_empty_fields_is_quoted_at_every_block_edge(n_rows, tmp_path, capsys):
    """csv.writer writes ``""`` for a row that is one empty field, in every block."""
    values = ["", None, -0.0, "x,y"]
    index = np.arange(n_rows) % len(values)
    for column in (Factor(values, index), [values[k] for k in index]):
        for name in ("", "lone"):
            table = {name: column}
            rows = [[values[k]] for k in index]
            _emit(table, {"format": "csv"})
            text = capsys.readouterr().out
            assert text.splitlines(True)[1:] == _expected(table, rows)
            path = tmp_path / "lone.csv"
            _emit(table, {"format": "csv", "output": str(path)})
            assert path.read_bytes().decode().splitlines(True) == text.splitlines(True)
