"""Command-line contracts: tables, grids, sweeps and optima as the CLI prints them.

Each command line runs through ``cli.main`` in-process, with every warning an
error (numpy overflow and invalid values fail), as a command-line run under
``PYTHONWARNINGS=error`` would; the non-finite grids keep the default filter,
where a warning shown is one more stderr line.  Each test names the CI step
it replaced.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import warnings

import pytest

from cvteleport import SqueezedBellResource, closed_form_delta, resource_closed_forms
from cvteleport.cli import main

FAMILY_COLUMNS = {"d_functional": 2, "one_minus_fidelity": 4, "frobenius": 5}
TRANSFER_KINDS = ["x2_transfer", "kappa4_transfer", "n_transfer", "mu4_x", "mu4_p"]
ALL_KINDS = TRANSFER_KINDS + list(FAMILY_COLUMNS)


def run(line: str, action: str = "error") -> tuple:
    """``(exit status, stdout, stderr)`` of one command line under the warnings
    filter ``action``; each warning shown is one more stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as shown, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter(action)
        code = main(line.split())
    return code, out.getvalue(), err.getvalue() + "".join(f"{w.message}\n" for w in shown)


def stdout(line: str) -> str:
    code, out, err = run(line)
    assert code == 0, (line, err)
    return out


def last_fields(line: str) -> list:
    """The comma-separated fields of the last output line, as ``cut -d,`` splits it."""
    return stdout(line).splitlines()[-1].split(",")


@pytest.mark.parametrize("cell", ["--gain 1 --theta 0", "--gain 1.3 --theta 0.4"])
@pytest.mark.parametrize("state", ["fock:1", "mix:0@0.5,1@0.5", "coherent:2.12928", "sqvac:1.5"])
def test_optimize_prints_compares_column_and_a_sweep_prints_each_cell_as_optimize_does(state, cell):
    """The step "optimize prints compare's column at Delta* for every family
    kind, a sweep prints each cell of every kind as optimize does", per input
    and (gain, theta) cell.

    For each family kind, the value ``optimize`` prints at r = 1.25 is the
    column ``compare`` prints at the printed Delta*, to the last digit.  A
    stacked sweep of every kind over r = 0.75, 1.25, 2.5 prints each row's
    kind, r, delta_star and objective_value as ``optimize`` prints them for
    that (kind, r) alone.
    """
    for kind, column in FAMILY_COLUMNS.items():
        _, _, star, value, _ = last_fields(f"optimize --kind {kind} --input {state} --r 1.25 {cell}")
        got = last_fields(f"compare --input {state} --r 1.25 --delta-grid {star} {cell}")[column - 1]
        assert got == value, (kind, star)
    alone = [
        last_fields(f"optimize --kind {kind} --input {state} --r {r} {cell}")[:4]
        for kind in ALL_KINDS for r in ("0.75", "1.25", "2.5")
    ]
    kinds = ",".join(ALL_KINDS)
    sweep = stdout(f"sweep --kinds {kinds} --input {state} --r-grid 0.75,1.25,2.5 {cell}")
    assert [row.split(",")[:4] for row in sweep.splitlines()[2:]] == alone


@pytest.mark.parametrize("gain", ["1", "1.3"])
def test_a_sweep_over_failing_r_prints_optimizes_rows_and_error_records(gain):
    """The same step: a transfer-kind sweep whose grid mixes failing and valid
    r.  Each ok row is optimize's row for its cell, and each error cell
    carries the type and message of optimize's JSON error record for that r."""
    grid = ["-1", "0.5", "711", "2.5"]
    cell = f"--input fock:1 --gain {gain}"
    out = stdout(f"sweep --kinds {','.join(TRANSFER_KINDS)} --r-grid={','.join(grid)} {cell}")
    rows = list(csv.reader(io.StringIO(out)))[2:]
    assert len(rows) == len(TRANSFER_KINDS) * len(grid), out
    failed = 0
    for (kind, r), row in zip(itertools.product(TRANSFER_KINDS, grid), rows):
        code, alone, err = run(f"optimize --kind {kind} --r={r} {cell}")
        if code == 0:
            want = list(csv.reader(io.StringIO(alone)))[-1][:4] + ["ok"]
        else:
            record = json.loads(err)["error"]
            want = [kind, repr(float(r)), "nan", "nan",
                    f"error: {record['type']}: {record['message']}"]
            failed += 1
        assert row == want, (row, want)
    assert failed == 2 * len(TRANSFER_KINDS), failed


def test_a_large_r_end_optimum_is_not_beaten_by_the_other_end():
    """The same step: Delta* = 0 ties Delta = 1 to the last digit here, and
    compare's d_n at Delta = 1 must not be lower than the value at Delta* = 0."""
    cell = "--input coherent:0.5,0.3 --gain 2 --theta 0.1"
    _, _, star, value, _ = last_fields(f"sweep --kinds d_functional {cell} --r-grid 10.5")
    assert star == "0.0"
    other = last_fields(f"compare {cell} --r 10.5 --delta-grid 1")[1]
    assert float(value) <= float(other), (value, other)


def test_closed_form_optima_are_bounded_and_optimize_prints_them_where_e2r_overflows():
    """The step "Closed-form optima are bounded at every r, and optimize prints
    them where e^{2r} overflows"."""
    star = last_fields("optimize --kind mu4_x --input coherent:1 --r 100")[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert star == repr(closed_form_delta("mu4_x_coherent", 100.0))
        for r in (0.0, 150.0, 700.0):
            assert math.isfinite(closed_form_delta("fidelity_fock1", r)), r
        assert resource_closed_forms(SqueezedBellResource(0.5, 0.0, 400.0)).n_ab == -1.0


def test_tables_are_as_csv_writer_writes_them(tmp_path):
    """The step "Tables as csv.writer writes them": the 161,604-row transfer
    surface through a file and through stdout, a one-preset surface, a compare
    grid and a sweep with quoted error cells."""
    surface = "transfer-surface --r 1.25 --grid=-2:2:201"
    path = tmp_path / "s.csv"
    assert stdout(f"{surface} --output {path}") == ""
    s = path.read_bytes().decode()
    assert stdout(surface) == s and s.count("\n") == 161606
    rows = s.splitlines(keepends=True)
    # The grid is mirror-exact: its 201 values have 101 distinct magnitudes.
    assert len({row.split(",")[2].removeprefix("-") for row in rows[2:]}) == 101
    # One preset: its rows are the same preset's rows of the four-preset file.
    one = stdout(f"{surface} --presets photon_added").splitlines(keepends=True)[2:]
    assert one == [row for row in rows if row.startswith("photon_added,")]
    c = stdout("compare --input mix:0@0.5,1@0.5 --r 1.25 --delta-grid 0.75:1.0:31")
    assert c.count("\n") == 33
    # frobenius is flat to rounding at r = 10 and 12; its AccuracyError message holds a comma.
    w = stdout("sweep --kinds x2_transfer,frobenius --input coherent:1 --r-grid 1,10,12")
    assert sum('"error: AccuracyError' in row for row in w.splitlines()) == 2
    # Past its provenance line each table is csv.writer's text of its own rows.
    for table in (s, c, w):
        body, text = table.split("\n", 1)[1], io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(csv.reader(io.StringIO(body)))
        assert text.getvalue() == body


@pytest.mark.parametrize("line", [
    "sweep --kinds x2_transfer --r-grid 0:inf:3",
    "sweep --kinds x2_transfer --r-grid=-1e308:1e308:3",
    "compare --input fock:1 --r 1 --delta-grid=-1e308:1e308:3",
    "transfer-surface --r 1 --grid=-1e308:1e308:3",
])
def test_a_grid_with_a_non_finite_point_is_one_error_record(line):
    """The step "A start:stop:count grid with a non-finite point is one
    InvalidArgumentError record", under the default warnings filter."""
    code, out, err = run(line, action="default")
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert '"InvalidArgumentError"' in err


@pytest.mark.parametrize("state", ["coherent:2.12928", "sqvac:1.5", "fock:1"])
@pytest.mark.parametrize("grid,cell,lines", [
    ("0.25:6:200", "--gain 1 --theta 0", 1602),
    # theta != 0 gives the near-degenerate quartics that the Newton steps polish.
    ("0.25:6:200", "--gain 1.3 --theta 0.4", 1602),
    # Near-flat ends and the curvature division of the root finder.
    ("8:14:25", "--gain 2 --theta 0.1", 202),
])
def test_sweeps_of_all_kinds_print_no_error_cell(state, grid, cell, lines):
    """The steps "A 200-point sweep of all 8 kinds on three inputs, also at gain
    1.3 and theta 0.4" and "A large-r sweep of all 8 kinds at gain 2 and theta
    0.1, where family optima near-tie at the ends"."""
    out = stdout(f"sweep --kinds {','.join(ALL_KINDS)} --input {state} --r-grid {grid} {cell}")
    assert out.count("\n") == lines and "error:" not in out


@pytest.mark.parametrize("state", ["fock:0", "fock:1", "mix:0@0.5,1@0.5"])
def test_fock_diagonal_tails_are_not_negative(state):
    """The step "Fock-diagonal photon probabilities past the distribution's bulk
    are not negative"."""
    out = stdout(f"photon-stats --input {state} --delta 0 --r 0.25 --gain 0.25 --N 64")
    rows = out.splitlines()
    assert len(rows) == 67 and not any(row.split(",")[2].startswith("-") for row in rows[1:])
