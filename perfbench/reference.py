"""Reference values for every job, and the check of a job's output against them.

References were recorded once per job with ``run.py --record-reference``
and are stored gzipped under ``reference/<workload>.json.gz``, keyed by job.
Every output row is a cell; a cell fails when any checked column misses its
reference by more than the column's tolerance, and every cell of a job fails
when the job errors or its table has another shape.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The library asserts D_N and the Frobenius distance agree to 1e-6 for
# Fock-diagonal inputs; that is the accuracy quadrature values are held to.
QUADRATURE_TOL = 1e-6
QUADRATURE_COLUMNS = frozenset(
    {"d_n", "fidelity", "one_minus_fidelity", "frobenius", "objective_value"}
)
# The optimizer is cross-checked against the closed-form optima to 1e-3.
DELTA_STAR_TOL = 1e-3
# Closed forms and echoed inputs are cross-checked to 1e-12 in the tests;
# here the bound is relative to max(1, |reference|).
CLOSED_FORM_TOL = 1e-12
# Solver diagnostics, not results: a better optimizer may change them.
UNCHECKED_COLUMNS = frozenset({"iterations"})


@dataclass
class Verdict:
    cells: int
    failed: int = 0
    problems: list = field(default_factory=list)

    def miss(self, message: str, cells: int = 1):
        self.failed += cells
        if len(self.problems) < 5:
            self.problems.append(message)


def tolerance(column: str, ref: float) -> float:
    if column in QUADRATURE_COLUMNS:
        return QUADRATURE_TOL
    if column == "delta_star":
        return DELTA_STAR_TOL
    return CLOSED_FORM_TOL * max(1.0, abs(ref))


def _value(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _split(text: str):
    """``(columns, data lines)`` of a CSV table written by the CLI; ``#`` lines skipped."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return next(csv.reader(lines[:1]), []), lines[1:]


def _rows(lines):
    return [[_value(v) for v in row] for row in csv.reader(lines)]


def _matches(column: str, got, ref) -> bool:
    if column in UNCHECKED_COLUMNS:
        return True
    if isinstance(ref, float):
        return (
            isinstance(got, float)
            and math.isfinite(got)
            and abs(got - ref) <= tolerance(column, ref)
        )
    return got == ref


def _surface_class(i: int, j: int, center: int):
    a, b = sorted((abs(i - center), abs(j - center)))
    return a, b - a


def compact_surface(columns, rows) -> dict:
    """Store a ``transfer-surface`` table by the grid's symmetry classes.

    The transfer function depends on ``w^2 + z^2`` only and the axis is
    symmetric, so rows related by ``w -> -w``, ``z -> -z`` or ``w <-> z``
    share one value.  Each row is still checked against its class value;
    recording fails if the rows of one class disagree beyond rounding.
    """
    preset, delta = rows[0][0], rows[0][1]
    n = math.isqrt(len(rows))
    axis = [row[3] for row in rows[:n]]
    if n * n != len(rows) or n % 2 == 0:
        raise ValueError("transfer-surface reference needs an odd square grid")
    center = n // 2
    tau = [[None] * (center + 1 - a) for a in range(center + 1)]
    for k, row in enumerate(rows):
        a, b = _surface_class(k // n, k % n, center)
        value = row[4]
        if tau[a][b] is None:
            tau[a][b] = value
        elif abs(tau[a][b] - value) > 1e-14 * max(1.0, abs(value)):
            raise ValueError(f"surface row {k} breaks the grid symmetry")
    return {"kind": "surface", "columns": columns, "preset": preset, "delta": delta,
            "axis": axis, "tau": tau}


def make_reference(argv, text: str) -> dict:
    columns, lines = _split(text)
    rows = _rows(lines)
    if argv[0] == "transfer-surface":
        return compact_surface(columns, rows)
    return {"kind": "table", "columns": columns, "rows": rows}


def _check_rows(ref: dict, columns, rows, verdict: Verdict):
    for k, (got_row, ref_row) in enumerate(zip(rows, ref["rows"])):
        bad = [c for c, g, r in zip(columns, got_row, ref_row) if not _matches(c, g, r)]
        if bad:
            verdict.miss(f"row {k}: {bad[0]}={got_row[columns.index(bad[0])]!r}")


def _close(got, want):
    import numpy as np

    return np.abs(got - want) <= CLOSED_FORM_TOL * np.maximum(1.0, np.abs(want))


def _check_surface(ref: dict, lines, verdict: Verdict):
    """Vectorized: a surface job has 40k rows and is checked on every pass."""
    import numpy as np

    try:
        preset = np.loadtxt(lines, delimiter=",", usecols=0, dtype=str, ndmin=1)
        delta, w, z, tau = np.loadtxt(lines, delimiter=",", usecols=(1, 2, 3, 4), ndmin=2).T
    except ValueError as exc:
        verdict.miss(f"non-numeric value: {exc}", verdict.cells)
        return
    axis = np.array(ref["axis"])
    n, center = len(axis), len(axis) // 2
    dist = np.abs(np.arange(n) - center)
    by_class = np.full((center + 1, center + 1), np.nan)
    for a, values in enumerate(ref["tau"]):
        by_class[a, a:] = values
    want_tau = by_class[np.minimum.outer(dist, dist).ravel(), np.maximum.outer(dist, dist).ravel()]
    ok = (
        (preset == ref["preset"])
        & _close(delta, ref["delta"])
        & _close(w, np.repeat(axis, n))
        & _close(z, np.tile(axis, n))
        & _close(tau, want_tau)
    )
    bad = np.flatnonzero(~ok)
    if bad.size:
        verdict.miss(f"{bad.size} rows, first {lines[bad[0]]!r}", int(bad.size))


def reference_cells(ref: dict) -> int:
    if ref["kind"] == "surface":
        return len(ref["axis"]) ** 2
    return len(ref["rows"])


def check_output(ref: dict, rc, text: str) -> Verdict:
    """Compare one job's exit code and stdout with its reference."""
    verdict = Verdict(cells=reference_cells(ref))
    if rc != 0:
        verdict.miss(f"exit status {rc!r}", verdict.cells)
        return verdict
    columns, lines = _split(text)
    if columns != ref["columns"] or len(lines) != verdict.cells:
        verdict.miss(f"table shape {columns!r} x {len(lines)} rows", verdict.cells)
        return verdict
    if ref["kind"] == "surface":
        _check_surface(ref, lines, verdict)
    else:
        _check_rows(ref, columns, _rows(lines), verdict)
    return verdict


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict:
    """``{job_id: reference}`` for one workload."""
    with gzip.open(reference_path(workload), "rt") as fh:
        return json.load(fh)["jobs"]


def save(workload: str, jobs: dict, recorded_with: dict):
    blob = json.dumps({"recorded_with": recorded_with, "jobs": jobs}, sort_keys=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_bytes(gzip.compress(blob.encode(), mtime=0))
