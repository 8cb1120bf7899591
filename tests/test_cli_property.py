"""Property test of the command line over extreme option values.

Every subcommand is drawn with options at the edges of what it accepts:
r at 0, -0.0, 1e-300 and where cosh(r) nears overflow, gains from 1e-300 to
1e200, phases up to 1e10, squeezing and displacements near overflow, and
Fock-diagonal inputs at and past the top photon number 64.  Each command
either exits 0 with every number it prints finite (a sweep row flagged
``error:`` excepted), or exits 1 with exactly one JSON error record on
standard error.  It never ends in a traceback; under ``python -X dev -W
error`` a numpy warning is one, too.
"""

import contextlib
import csv
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvteleport import errors  # noqa: E402
from cvteleport.cli import _SURFACE_PRESETS, main  # noqa: E402
from cvteleport.optimize import OBJECTIVE_KINDS  # noqa: E402

ERROR_TYPES = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.CVTeleportError)
}


def _number(lo, hi, *edges):
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi).map(repr))


R = st.sampled_from(["0", "-0.0", "1e-300", "20", "300", "709", "0.5", "1.25"])
GAIN = _number(1e-300, 1e200, "1", "0.5", "1.3", "1e-300", "1e34", "1e100", "1e200")
THETA = _number(-1e10, 1e10, "0", "0.4", "3", "-3", "1e10", "-1e10")
DELTA = _number(0.0, 1.0, "0", "1", "1e-300", "0.5", "0.92388")
N = st.sampled_from(["0", "5", "24", "64"])
INPUT = st.one_of(
    st.sampled_from([
        "fock:0", "fock:1", "fock:64", "fock:65",
        "sqvac:1.5", "sqvac:179", "sqvac:-179", "sqvac:400", "sqvac:-400", "sqvac:709",
        "sqvac:-709",
        "coherent:2.12928", "coherent:1e100", "coherent:-1e100", "coherent:1e100,709",
        "coherent:0,1e100",
        "mix:0@0.5,1@0.5", "mix:0@0.5,64@0.5", "mix:1@0.25,64@0.75", "mix:63@0.5,64@0.5",
    ]),
    st.builds(
        lambda re, im: f"coherent:{re!r},{im!r}", st.floats(-1e100, 1e100), st.floats(-1e100, 1e100)
    ),
)
KIND = st.sampled_from(OBJECTIVE_KINDS)


def _joined(values, max_size=3):
    return st.lists(values, min_size=1, max_size=max_size).map(",".join)


def _flags(**options):
    return [f"--{name.replace('_', '-')}={value}" for name, value in options.items()]


@st.composite
def _channel(draw):
    if draw(st.booleans()):
        return ["--identity-channel"]
    return _flags(delta=draw(DELTA), theta=draw(THETA), r=draw(R), gain=draw(GAIN))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(
        ["moments", "photon-stats", "compare", "optimize", "sweep", "transfer-surface"]
    ))
    if command == "moments":
        argv = _flags(input=draw(INPUT)) + draw(_channel())
    elif command == "photon-stats":
        argv = _flags(input=draw(INPUT), N=draw(N)) + draw(_channel())
    elif command == "compare":
        argv = _flags(input=draw(INPUT), N=draw(N), delta_grid=draw(_joined(DELTA)),
                      theta=draw(THETA), r=draw(R), gain=draw(GAIN))
    elif command == "optimize":
        argv = _flags(kind=draw(KIND), N=draw(N), theta=draw(THETA), r=draw(R), gain=draw(GAIN))
        argv += draw(st.sampled_from([[], _flags(input=draw(INPUT))]))
    elif command == "sweep":
        argv = _flags(kinds=draw(_joined(KIND)), r_grid=draw(_joined(R)), N=draw(N),
                      theta=draw(THETA), gain=draw(GAIN))
        argv += draw(st.sampled_from([[], _flags(input=draw(INPUT))]))
    else:
        grid = draw(st.sampled_from(["-2:2:5", "0", "-0.0,1", "1e10", "-1e150,1e150"]))
        argv = _flags(presets=draw(_joined(st.sampled_from(tuple(_SURFACE_PRESETS)))),
                      grid=grid, theta=draw(THETA), r=draw(R), gain=draw(GAIN))
    return [command] + argv + _flags(format=draw(st.sampled_from(["csv", "json"])))


def _reject(name: str):
    raise ValueError(f"{name} is not JSON")


def _rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text, parse_constant=_reject)  # strict: no NaN or Infinity
    lines = text.splitlines()
    assert lines[0].startswith("# cvteleport ")
    return list(csv.DictReader(lines[1:]))


def _not_finite(value) -> bool:
    if isinstance(value, bool):
        return False
    try:
        return not math.isfinite(float(value))
    except (TypeError, ValueError):  # a label, a status or an empty g2_zero
        return False


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=command_lines())
def test_every_command_line_prints_finite_numbers_or_one_error_record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, argv
        record = json.loads(err)
        assert list(record) == ["error"] and record["error"]["type"] in ERROR_TYPES, (argv, err)
        return
    assert code == 0 and err == "", argv
    rows = _rows(out, argv[-1].partition("=")[2])
    assert rows, argv
    for row in rows:
        if str(row.get("status", "")).startswith("error: "):
            continue
        bad = [name for name, value in row.items() if _not_finite(value)]
        assert not bad, (argv, bad, row)
