"""Property test of the command line over extreme option values.

Every subcommand is drawn with options at the edges of what it accepts:
r at 0, -0.0, 1e-300 and where cosh(r) nears overflow, gains from 1e-300 to
1e200, phases up to 1e10, squeezing and displacements near overflow, and
Fock-diagonal inputs at and past the top photon number 64.  Each command
either exits 0 with every number it prints finite (a sweep row flagged
``error:`` excepted), or exits 1 with exactly one JSON error record on
standard error.  It never ends in a traceback; under ``python -X dev -W
error`` a numpy warning is one, too.

The option table parses a command line exactly as argparse does, or declines
it: over command lines drawn from every flag, near-misses, help and ``--``,
and values in both forms, its namespace is argparse's wherever it parses one,
and it declines wherever argparse exits.  In a fresh interpreter the
benchmark's jobs and the README's command lines never import argparse.
"""

import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvteleport import errors  # noqa: E402
from cvteleport.cli import (  # noqa: E402
    _COMMANDS,
    _COMMON,
    _OPTIONS,
    _SURFACE_PRESETS,
    _flag_name,
    _table_args,
    build_parser,
    main,
)
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


ROOT = Path(__file__).resolve().parents[1]
COMMANDS = tuple(_COMMANDS)
# Every flag of every subcommand (so "--delta" beside "--delta-grid", and "--r-grid"
# under optimize), abbreviations, single-dash spellings, help and "--".
FLAGS = tuple(map(_flag_name, _OPTIONS)) + (
    "--help", "-h", "--", "--delta-g", "--inp", "--r-", "-r", "--N-", "--format-",
)
VALUES = st.sampled_from([
    "1", "0.5", "2.5", "24", "-1", "-0.0", "-1e-3", "", "inf", "nan", " 2", "1_0",
    "x", "fock:1", "0.7:1:3", "-2:2:5", "1,2", "csv", "json", "xml", "x2_transfer",
    "frobenius", "compare", "a=b", "--r", "-h",
])


@st.composite
def table_argvs(draw):
    """A subcommand (rarely something else) and up to five tokens, most of them
    one of the subcommand's flags with its value after ``=`` or as the next
    token; the rest any flag, a flag alone or a bare value."""
    first = draw(st.sampled_from(COMMANDS * 9 + ("--help", "-h", "--", "x", "")))
    own = tuple(map(_flag_name, _COMMANDS[first][2])) if first in _COMMANDS else FLAGS
    argv = [first]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(own * 9 + FLAGS))
        form = draw(st.sampled_from(("separate", "equals") * 9 + ("alone", "value")))
        value = draw(VALUES)
        argv += {"separate": [flag, value], "equals": [f"{flag}={value}"],
                 "alone": [flag], "value": [value]}[form]
    return argv


def _comparable(namespace) -> dict:
    """``vars(namespace)``, a NaN value (``--delta nan``) spelled so it equals itself."""
    return {k: "nan" if isinstance(v, float) and math.isnan(v) else v
            for k, v in vars(namespace).items()}


PARSER = build_parser()  # parse_args leaves it unchanged


def _argparse_vars(argv):
    """:func:`_comparable` of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _comparable(PARSER.parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=1500, deadline=None)
@given(argv=table_argvs())
def test_the_option_table_parses_as_argparse_or_declines(argv):
    table, expected = _table_args(argv), _argparse_vars(argv)
    if expected is None:
        assert table is None, argv
    if table is not None:
        assert _comparable(table) == expected, argv


@pytest.mark.parametrize("command", COMMANDS)
def test_the_option_table_parses_every_option_of_a_subcommand(command):
    """Each option of the subcommand once, alternating the two forms."""
    argv = [command]
    for k, name in enumerate(_COMMANDS[command][2] + _COMMON):
        keywords = _OPTIONS[name][0]
        if keywords.get("action") == "store_true":
            argv.append(_flag_name(name))
            continue
        value = keywords.get("choices", ("3",) if "type" in keywords else ("-2:2",))[-1]
        argv += [f"{_flag_name(name)}={value}"] if k % 2 else [_flag_name(name), value.lstrip("-")]
    table = _table_args(argv)
    assert table is not None and _comparable(table) == _argparse_vars(argv), argv


def test_benchmark_jobs_and_readme_lines_never_import_argparse():
    """The step "The option table parses plain command lines without importing
    argparse": every job of perfbench/workloads.py, every ``cvteleport`` line of
    the README and one plain line per command, run through ``main`` in one fresh
    interpreter, exit 0 with argparse never imported."""
    readme = (ROOT / "README.md").read_text().splitlines()
    lines = [shlex.split(line)[1:] for line in readme if line.startswith("cvteleport ")]
    assert lines
    lines += [line.split() for line in (
        "moments --input fock:1 --delta 0.92388 --r 1.25",
        "photon-stats --input fock:1 --N 8 --delta 0.92388 --r 1.25",
        "compare --input fock:1 --r 1.25 --delta-grid 0.7:1.0:7",
        "optimize --kind x2_transfer --r 2.5",
        "sweep --kinds x2_transfer,kappa4_transfer --r-grid 0.5,1.0,2.5",
        "transfer-surface --r 1.25 --grid=-2:2:5",
    )]
    script = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from workloads import WORKLOADS\n"
        "from cvteleport.cli import main\n"
        "argvs = [list(job) for w in WORKLOADS.values() for job in w.jobs] + json.loads(sys.argv[1])\n"
        "codes = []\n"
        "for argv in argvs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([len(argvs), codes, 'argparse' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(lines)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    count, codes, imported = json.loads(proc.stdout)
    assert count > len(lines) and codes == [0] * count
    assert not imported
