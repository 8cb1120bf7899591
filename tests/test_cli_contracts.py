"""Command-line contracts between ``optimize``, ``compare`` and ``sweep``.

Each command line runs through ``cli.main`` in-process, with every warning an
error (numpy overflow and invalid values fail), as a command-line run under
``PYTHONWARNINGS=error`` would.
"""

import contextlib
import csv
import io
import itertools
import json
import warnings

import pytest

from cvteleport.cli import main

FAMILY_COLUMNS = {"d_functional": 2, "one_minus_fidelity": 4, "frobenius": 5}
TRANSFER_KINDS = ["x2_transfer", "kappa4_transfer", "n_transfer", "mu4_x", "mu4_p"]
ALL_KINDS = TRANSFER_KINDS + list(FAMILY_COLUMNS)


def run(line: str) -> tuple:
    """``(exit status, stdout, stderr)`` of one command line, warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(line.split())
    return code, out.getvalue(), err.getvalue()


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
