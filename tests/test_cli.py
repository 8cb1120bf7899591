import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvteleport import cli
from cvteleport.cli import Factor, _emit, build_parser, main, parse_grid, parse_state
from cvteleport import (
    Channel,
    CoherentInput,
    FockInput,
    FockMixtureInput,
    InvalidArgumentError,
    SqueezedBellResource,
    SqueezedVacuumInput,
    __version__,
    delta_family,
    teleport,
)
from cvteleport.optimize import closed_form_delta, sweep_r
from conftest import DELTA2_OPT, DELTA4_OPT
from oracles import (
    PhasePoint,
    PlaneConfig,
    output_photon_probs,
    transfer_fn,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# cvteleport ")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return rows


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_state_grammar():
    assert parse_state("fock:1") == FockInput(1)
    assert parse_state("coherent:2.12928") == CoherentInput(2.12928)
    assert parse_state("coherent:1.0,0.5") == CoherentInput(1.0 + 0.5j)
    assert parse_state("sqvac:1.5") == SqueezedVacuumInput(1.5)
    assert parse_state("mix:0@0.5,1@0.5") == FockMixtureInput(((0, 0.5), (1, 0.5)))


def test_parse_state_rejects_garbage():
    for text in ("fock", "fock:x", "cat:2", "mix:0@0.4,1@0.4"):
        with pytest.raises(InvalidArgumentError):
            parse_state(text)


def test_parse_grid_forms():
    assert parse_grid("0.5:1.0:3") == [0.5, 0.75, 1.0]
    assert parse_grid("0.75,1.0,2.5") == [0.75, 1.0, 2.5]
    assert parse_grid(1.25) == [1.25]
    with pytest.raises(InvalidArgumentError):
        parse_grid("0:1:0")


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_parse_grid_symmetric_start_stop_count_is_mirror_exact():
    """``-s:s:n`` keeps np.linspace's lower half bit for bit, its upper half is
    the exact negation of the lower, its ends are -s and s, and an odd grid's
    middle is +0.0, for n from 2 to 400 and spans from 1e-300 to 1e300."""
    rng = np.random.default_rng(28)
    spans = [2.0, 0.4444, 1e-300, 1e300, *(10.0 ** rng.uniform(-8.0, 8.0, 12)).tolist()]
    for s in spans:
        for n in range(2, 401):
            x = _bits(parse_grid(f"{-s!r}:{s!r}:{n}"))
            half = n // 2
            lower = _bits(np.linspace(-s, s, n))[:half]
            assert (x[:half] == lower).all(), (s, n)
            assert (x[::-1][:half] == _bits(-x[:half].view(np.float64))).all(), (s, n)
            assert x[0] == _bits(-s) and x[-1] == _bits(s), (s, n)
            if n % 2:
                assert x[half] == _bits(0.0), (s, n)
    # np.linspace puts -5.551115123125783e-17 where this grid has +0.0.
    assert np.linspace(-0.4444, 0.4444, 89)[44] != 0.0
    assert _bits(parse_grid("-0.4444:0.4444:89"))[44] == _bits(0.0)


@pytest.mark.parametrize(
    "text", ["0.75:1.0:31", "0.25:3.0:12", "0:3:57", "2:-1:7", "-1:1:1", "-0.0:0.0:3"]
)
def test_parse_grid_other_start_stop_count_is_linspace(text):
    start, stop, count = text.split(":")
    want = np.linspace(float(start), float(stop), int(count))
    assert (_bits(parse_grid(text)) == _bits(want)).all()


@pytest.mark.parametrize("text", ["0:inf:3", "-1e308:1e308:3", "nan:1:1", "-inf:inf:2"])
def test_parse_grid_rejects_non_finite_start_stop_count_without_a_warning(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidArgumentError, match=f"^bad grid {re.escape(repr(text))}: "):
            parse_grid(text)
    assert caught == []


def _run_module(args):
    """``python *args`` on this checkout's package, warnings set by ``args`` alone."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", "PYTHONDEVMODE")}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


NON_FINITE_GRID_COMMANDS = [
    ["sweep", "--kinds", "x2_transfer", "--r-grid", "0:inf:3"],
    ["sweep", "--kinds", "x2_transfer", "--r-grid=-1e308:1e308:3"],
    ["compare", "--input", "fock:1", "--r", "1", "--delta-grid=-1e308:1e308:3"],
    ["transfer-surface", "--r", "1", "--grid=-1e308:1e308:3"],
]


@pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]], ids=["default", "W-error"])
@pytest.mark.parametrize("argv", NON_FINITE_GRID_COMMANDS, ids=lambda argv: argv[-1])
def test_non_finite_grid_is_one_invalid_argument_record_under_any_warnings_filter(argv, flags):
    proc = _run_module([*flags, "-m", "cvteleport", *argv])
    assert proc.returncode == 1 and proc.stdout == "" and proc.stderr.count("\n") == 1, proc
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "InvalidArgumentError" and error["message"].startswith("bad grid ")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_optimize_subcommand(capsys):
    code, out, _ = run_cli(["optimize", "--kind", "x2_transfer", "--r", "2.5"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert abs(float(rows[0]["delta_star"]) - 0.92388) <= 1e-4


def test_moments_identity_channel(capsys):
    code, out, _ = run_cli(
        ["moments", "--input", "coherent:2.12928", "--identity-channel", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and len(rows) == 1
    ms = rows[0]
    assert abs(ms["n_mean"] - 4.534) <= 1e-3
    assert ms["g2_zero"] == pytest.approx(1.0, abs=1e-9)


def test_moments_with_channel_csv(capsys):
    code, out, _ = run_cli(
        ["moments", "--input", "fock:1", "--delta", "0.92388", "--r", "1.25"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert float(rows[0]["n_mean"]) > 1.0  # teleportation adds photons


@pytest.mark.parametrize("text,spelled", [
    ("fock:1", "fock:1"),
    ("coherent:2.12928,0.5", "coherent:(2.12928+0.5j)"),
    ("sqvac:-0.5", "sqvac:-0.5"),
    ("mix:0@0.25,3@0.75", "mix:0@0.25,3@0.75"),
])
def test_moments_label_names_the_input_and_the_channel(text, spelled, capsys):
    """The label column, pinned byte for byte, equals the output's label."""
    label = f"out[{spelled} | transfer(delta=0.3,theta=0.4,r=2.0,g=1.3)]"
    argv = ["moments", "--input", text, "--delta", "0.3", "--theta", "0.4", "--r", "2",
            "--gain", "1.3"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.splitlines()[-1].endswith(f',"{label}"')
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and json.loads(out)[0]["label"] == label
    ch = Channel(SqueezedBellResource(delta=0.3, theta=0.4, r=2.0), gain=1.3)
    assert teleport(parse_state(text), ch).label == label


def test_photon_stats_identity(capsys):
    code, out, _ = run_cli(
        ["photon-stats", "--input", "fock:1", "--N", "3", "--identity-channel"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert [float(r["P_in"]) for r in rows] == [0.0, 1.0, 0.0, 0.0]
    assert [float(r["P_out"]) for r in rows] == [0.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("command", ["moments", "photon-stats"])
@pytest.mark.parametrize("name", ["delta", "theta", "r", "gain"])
def test_identity_channel_refuses_resource_options(command, name, tmp_path, capsys):
    """The identity channel has no resource, so a resource option given with it
    would be ignored (and still enter the provenance hash); it is an error."""
    flag = "--" + name
    argv = [command, "--input", "fock:1", "--identity-channel", flag, "0.5"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": "fock:1", "identity_channel": True, name: 0.5}))
    for args in (argv, [command, "--config", str(cfg)]):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "InvalidArgumentError", "message": f"--identity-channel takes no {flag}"
        }
    # Switched off in the config file, the same options build the channel.
    cfg.write_text(json.dumps({"identity_channel": False, "delta": 0.9, "r": 1.0, name: 0.5}))
    code, out, _ = run_cli([command, "--input", "fock:1", "--config", str(cfg)], capsys)
    assert code == 0 and read_csv(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--input", "fock:1", "--identity-channel", "--delta", "7", "--r", "-3",
         "--gain", "0", "--theta", "nan"],
        ["photon-stats", "--input", "fock:1", "--identity-channel", "--delta", "7", "--r", "1,2,3"],
    ],
    ids=["moments", "photon-stats"],
)
def test_identity_channel_with_invalid_resource_options_is_an_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["message"] == "--identity-channel takes no --delta"


def test_photon_stats_channel(capsys):
    code, out, _ = run_cli(
        ["photon-stats", "--input", "fock:1", "--N", "6", "--delta", "0.9", "--r", "1.25"],
        capsys,
    )
    rows = read_csv(out)
    p_out = [float(r["P_out"]) for r in rows]
    assert code == 0 and p_out[1] > 0.8 and abs(sum(p_out) - 1.0) <= 0.01


@pytest.mark.parametrize("text", ["fock:1", "coherent:2.12928", "sqvac:1.5", "sqvac:-1.5"])
def test_photon_stats_is_the_family_distribution(text, capsys):
    """photon-stats prints the Delta family's P_out, the numbers compare uses,
    and they agree with the direct 2-D path on a fine grid."""
    state, r, delta = parse_state(text), 1.25, 0.9
    code, out, _ = run_cli(
        ["photon-stats", "--input", text, "--N", "24", "--delta", "0.9", "--r", "1.25"], capsys
    )
    assert code == 0
    p_out = np.array([float(row["P_out"]) for row in read_csv(out)])
    want = delta_family(state, r, N=24).photon_distribution(delta).probs
    assert np.array_equal(p_out, want)
    fine = PlaneConfig(radial_nodes=256, angular_nodes=768)
    ch = Channel(SqueezedBellResource(delta=delta, theta=0.0, r=r))
    direct = output_photon_probs(teleport(state, ch), 24, fine).probs
    assert np.abs(p_out - direct).max() <= 1e-10


def test_compare_fock1_optima_differ(capsys):
    """D_N and (1 - F) reach their grid minima at different Delta."""
    code, out, _ = run_cli(
        ["compare", "--input", "fock:1", "--r", "1.25", "--delta-grid", "0.7:1.0:61", "--N", "24"],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 61
    d = np.array([float(r["d_n"]) for r in rows])
    one_minus_f = np.array([float(r["one_minus_fidelity"]) for r in rows])
    assert int(np.argmin(d)) != int(np.argmin(one_minus_f))


@pytest.mark.parametrize("kind,column", [("d_functional", "d_n"),
                                         ("one_minus_fidelity", "one_minus_fidelity"),
                                         ("frobenius", "frobenius")])
@pytest.mark.parametrize("text,r", [("fock:1", "1.0"), ("coherent:2.12928", "1.25"),
                                    ("mix:0@0.5,1@0.5", "0.75")])
def test_optimize_and_compare_print_the_same_digits(text, r, kind, column, capsys):
    """optimize's objective value is the value compare prints at Delta*, on any grid."""
    code, out, _ = run_cli(["optimize", "--kind", kind, "--input", text, "--r", r], capsys)
    assert code == 0
    (optimum,) = read_csv(out)
    star = optimum["delta_star"]
    for grid in (star, f"{star},0.5,0.9", f"0.5,0.75,{star},0.9,1.0"):
        code, out, _ = run_cli(
            ["compare", "--input", text, "--r", r, "--delta-grid", grid], capsys
        )
        assert code == 0
        (row,) = [row for row in read_csv(out) if row["delta"] == star]
        assert row[column] == optimum["objective_value"], grid


def test_byte_identical_reruns(capsys):
    args = ["compare", "--input", "fock:1", "--r", "1.0", "--delta-grid", "0.85:0.95:3", "--N", "8"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_sweep_subcommand(capsys):
    code, out, _ = run_cli(
        ["sweep", "--kinds", "x2_transfer,kappa4_transfer", "--r-grid", "0.5,1.0"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert [r["kind"] for r in rows] == ["x2_transfer"] * 2 + ["kappa4_transfer"] * 2
    assert all(r["status"] == "ok" for r in rows)


def test_sweep_flags_failed_cells(capsys):
    code, out, _ = run_cli(
        ["sweep", "--kinds", "one_minus_fidelity", "--r-grid", "1.0"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0]["status"].startswith("error:")


def test_sweep_with_flagged_cells_writes_its_records_rows(monkeypatch, capsys):
    """The kind, r and status Factors of a sweep write csv.writer's text of the
    records' rows, spelling each distinct kind and status once; its JSON is the
    same rows, with null where the CSV writes nan."""
    kinds, r_grid = ["x2_transfer", "frobenius"], [1.0, 10.0, 12.0]
    records = sweep_r(kinds, r_grid, input=CoherentInput(1.0))
    rows = [
        [rec.kind, rec.r, rec.delta_star, rec.objective_value,
         "ok" if rec.error is None else f"error: {rec.error}"]
        for rec in records
    ]
    assert [row[4].startswith("error: AccuracyError") for row in rows] == [False] * 4 + [True] * 2
    names = ["kind", "r", "delta_star", "objective_value", "status"]
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([names, *rows])

    others = []
    spell = cli._csv_field

    def counted(value):
        if not isinstance(value, float):
            others.append(value)
        return spell(value)

    monkeypatch.setattr(cli, "_csv_field", counted)
    argv = ["sweep", "--kinds", ",".join(kinds), "--input", "coherent:1", "--r-grid", "1,10,12"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.split("\n", 1)[1] == expected.getvalue()
    assert '"error: AccuracyError' in out
    body = [value for value in others if value not in names]  # the header may pass too
    assert len(body) <= len(set(kinds)) + len({row[4] for row in rows})

    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    assert _strict_json(out) == [
        {name: None if isinstance(v, float) and math.isnan(v) else v for name, v in zip(names, row)}
        for row in rows
    ]


def _strict_json(text):
    """``json.loads`` that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_sweep_json_writes_null_where_the_csv_writes_nan(capsys):
    argv = ["sweep", "--kinds", "one_minus_fidelity,x2_transfer,frobenius", "--r-grid", "1,10"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    csv_rows = read_csv(out)
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    json_rows = _strict_json(out)
    assert [row["status"] for row in json_rows] == [row["status"] for row in csv_rows]
    assert sum(row["status"].startswith("error:") for row in csv_rows) == 4
    for got, want in zip(json_rows, csv_rows):
        for name in ("delta_star", "objective_value"):
            flagged = want["status"].startswith("error:")
            assert (want[name] == "nan") == flagged and (got[name] is None) == flagged, (want, got)
            if not flagged:
                assert repr(got[name]) == want[name]


def test_uncertified_optimum_is_an_error_record(capsys):
    """Past r ~ 8.5 the coherent-input Frobenius objective is flat to rounding."""
    code, out, err = run_cli(
        ["optimize", "--kind", "frobenius", "--input", "coherent:1", "--r", "10"], capsys
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "AccuracyError"
    code, out, _ = run_cli(["sweep", "--kinds", "frobenius", "--input", "coherent:1",
                            "--r-grid", "2,10,12"], capsys)
    assert code == 0
    statuses = [row["status"] for row in read_csv(out)]
    assert statuses[0] == "ok"
    assert all(s.startswith("error: AccuracyError") for s in statuses[1:]), statuses


def test_subnormal_transfer_forms_print_their_optimum(capsys):
    """At r = 355 the unscaled transfer forms are subnormal: the optimum is
    printed, with no warning; the whole run used to end in one LinAlgError
    record.  Past that, and for kappa4 from r of about 177, the forms built
    from scaled (a, b) give the r-independent optimum to 4 ulp."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["sweep", "--kinds", "x2_transfer,n_transfer",
                                  "--r-grid", "1,355"], capsys)
        assert code == 0 and err == ""
        rows = read_csv(out)
        assert [row["status"] for row in rows] == ["ok"] * 4
        for row in rows:
            assert float(row["delta_star"]) == pytest.approx(DELTA2_OPT, abs=4.5e-16)
        code, out, err = run_cli(["optimize", "--kind", "n_transfer", "--r", "355"], capsys)
        assert code == 0 and err == ""
        assert float(read_csv(out)[0]["delta_star"]) == pytest.approx(DELTA2_OPT, abs=4.5e-16)
        # Where the unscaled forms are 0 (r = 400) or keep a few digits (kappa4 from
        # r = 182, n at 370), the scaled forms give the r-independent optimum.
        cells = [(["--kinds", "x2_transfer,n_transfer", "--r-grid", "400"], DELTA2_OPT),
                 (["--kinds", "kappa4_transfer", "--r-grid", "182,185,186,188"], DELTA4_OPT),
                 (["--kinds", "n_transfer", "--input", "coherent:1", "--r-grid", "370"], DELTA2_OPT)]
        for options, want in cells:
            code, out, err = run_cli(["sweep", *options], capsys)
            assert code == 0 and err == ""
            for row in read_csv(out):
                assert row["status"] == "ok", row
                assert abs(float(row["delta_star"]) - want) <= 4 * math.ulp(want), row


def test_transfer_surface(capsys):
    code, out, _ = run_cli(["transfer-surface", "--r", "1.25", "--grid=-2:2:5"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 4 * 25
    presets = {r["preset"] for r in rows}
    assert presets == {"tmsv", "photon_subtracted", "photon_added", "coherent_optimal"}
    tmsv_origin = [
        r for r in rows if r["preset"] == "tmsv" and float(r["w"]) == 0.0 and float(r["z"]) == 0.0
    ]
    assert float(tmsv_origin[0]["tau"]) == 1.0


@pytest.mark.parametrize(
    "grid", ["nan", "inf", "-inf,1e200"], ids=["nan", "inf", "minus-inf-and-1e200"]
)
def test_transfer_surface_rejects_non_finite_grid_values(grid, capsys):
    code, out, err = run_cli(
        ["transfer-surface", "--r", "1", f"--grid={grid}", "--presets", "tmsv"], capsys
    )
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == {
        "type": "InvalidArgumentError", "message": f"grid values must be finite, got {grid!r}"
    }


@pytest.mark.parametrize(
    "grid,point", [("1e200", "(1e+200, 1e+200)"), ("-1e200,1", "(-1e+200, -1e+200)")]
)
def test_transfer_surface_overflow_is_an_evaluation_error(grid, point, capsys):
    """Far out on the grid w^2 + z^2 overflows and tau is no number: an error
    naming the first such point, not a NaN row or a warning."""
    code, out, err = run_cli(
        ["transfer-surface", "--r", "1", f"--grid={grid}", "--presets", "tmsv"], capsys
    )
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == {
        "type": "EvaluationError", "message": f"transfer function not finite at (w, z) = {point}"
    }


@pytest.mark.parametrize("grid", ["-inf,1e200", "1e200"])
def test_transfer_surface_bad_grid_warns_nothing_under_dev_mode(grid):
    proc = _run_module(["-X", "dev", "-W", "error", "-m", "cvteleport", "transfer-surface",
                        "--r", "1", f"--grid={grid}", "--presets", "tmsv"])
    assert proc.returncode == 1 and proc.stdout == ""
    assert "error" in json.loads(proc.stderr) and "Warning" not in proc.stderr


def _surface_rows_per_point(r, theta, gain, axis, presets=None):
    """The transfer-surface rows as one scalar transfer call per point builds them,
    for ``presets`` (default all four, in their default order)."""
    deltas = {
        "tmsv": 1.0,
        "photon_subtracted": math.cos(math.atan(math.tanh(r))),
        "photon_added": math.cos(math.atan(1.0 / math.tanh(r))),
        "coherent_optimal": closed_form_delta("fidelity_coherent", r),
    }
    rows = []
    for preset in presets or deltas:
        delta = deltas[preset]
        tau = transfer_fn(Channel(SqueezedBellResource(delta=delta, theta=theta, r=r), gain=gain))
        for w in axis:
            for z in axis:
                value = float(tau.fn(PhasePoint(w, z)).real)
                rows.append({"preset": preset, "delta": delta, "w": w, "z": z, "tau": value})
    return rows


def test_transfer_surface_bytes_match_per_point_evaluation(capsys):
    argv = ["transfer-surface", "--r", "1.25", "--grid=-2:2:31", "--theta", "0.4", "--gain", "0.9"]
    rows = _surface_rows_per_point(1.25, 0.4, 0.9, parse_grid("-2:2:31"))
    buf = io.StringIO()
    # The provenance hash of this configuration, unchanged since the per-point CLI.
    buf.write(f"# cvteleport {__version__} config=a52a89b80c76\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(rows[0]))
    writer.writerows(row.values() for row in rows)

    # Compared as lists of lines: a mismatch then reports the first differing
    # line instead of a diff of the whole text.
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and len(rows) == 4 * 31 * 31
    assert out.splitlines(True) == buf.getvalue().splitlines(True)
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    expected = json.dumps(rows, indent=2, default=float) + "\n"
    assert out.splitlines(True) == expected.splitlines(True)


@pytest.mark.parametrize(
    "grid", ["-1,0.5,-0.5,1,0,-0.0,2", "0:3:57"], ids=["signed-zero", "no-mirror"]
)
@pytest.mark.parametrize(
    "presets", [["photon_added"], ["tmsv", "coherent_optimal", "photon_subtracted"]],
    ids=["one-preset", "three-presets"],
)
def test_transfer_surface_bytes_match_per_point_evaluation_off_the_mirror(grid, presets, capsys):
    """Grids whose squares repeat out of mirror order (and a signed zero), or do
    not repeat at all, print what one scalar call per point prints, with one
    preset (its preset and Delta columns folded by the writer) or several."""
    rows = _surface_rows_per_point(1.25, 0.3, 1.2, parse_grid(grid), presets)
    argv = ["transfer-surface", "--r", "1.25", f"--grid={grid}", "--theta", "0.3",
            "--gain", "1.2", "--presets", ",".join(presets)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(rows[0]))
    writer.writerows(row.values() for row in rows)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.split("\n", 1)[1].splitlines(True) == buf.getvalue().splitlines(True)
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    expected = json.dumps(rows, indent=2, default=float) + "\n"
    assert out.splitlines(True) == expected.splitlines(True)


@pytest.mark.parametrize(
    "grid,n_squares",
    [("-2:2:201", 101), ("-2:2:41", 21), ("0:3:57", 57), ("-1,1,-1,0,-0.0", 2)],
)
def test_transfer_surface_evaluates_tau_once_per_pair_of_distinct_squares(
    grid, n_squares, monkeypatch, capsys
):
    """Each preset evaluates tau at u = w^2 + z^2 once per unordered pair of
    distinct squares.  The grid -2:2:201 is mirror-exact, so its 201 values
    have 101 distinct squares: 5,151 pairs against 40,401 cells."""
    n_pairs = n_squares * (n_squares + 1) // 2
    sizes = []
    surface_values = cli._surface_values
    monkeypatch.setattr(
        cli, "_surface_values", lambda ch, u: sizes.append(len(u)) or surface_values(ch, u)
    )
    code, _, _ = run_cli(["transfer-surface", "--r", "1.25", f"--grid={grid}",
                          "--presets", "tmsv,photon_added"], capsys)
    assert code == 0 and sizes == [n_pairs, n_pairs]


@pytest.mark.parametrize("argv,point", [
    (["--grid=1,1e200", "--presets", "tmsv,photon_added"], "(1.0, 1e+200)"),
    (["--grid=3,1e200,-1e200", "--presets", "tmsv"], "(3.0, 1e+200)"),
], ids=["two-presets", "repeated-square"])
def test_transfer_surface_overflow_names_the_first_cell_in_row_order(argv, point, capsys):
    """The error names the first cell, w-major and z-minor, whose tau is no
    number, though its pair of squares is not the first pair."""
    code, out, err = run_cli(["transfer-surface", "--r", "1", *argv], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {
        "type": "EvaluationError", "message": f"transfer function not finite at (w, z) = {point}"
    }


def test_emit_writes_what_csv_writer_writes(capsys):
    table = {
        "array": np.array([0.1, -0.0, 0.0, np.nan, np.inf, 1e-300, 0.1, -0.0]),
        "float": [0.1, -0.0, 2.5, 1e22, 0.1, -1.5e-7, float("nan"), 3.0],
        "np_float": [np.float64(0.1), np.float64(-0.0), np.float64(1 / 3), np.float64(0.1)] * 2,
        "int": [0, 1, -7, True, False, np.int64(4), 10**20, 2],
        "none": [None, 1.0, None, "x", None, 2, None, None],
        "text": ["a,b", 'say "hi"', "", "line\nbreak", "plain", "a,b", " pad ", "c\rr"],
        "words": np.array(["x", "y,z", "x", "", "q\"", "x", "y,z", "w"]),
        "repeats": ["a,b"] * 3 + ["c"] * 5,
        "range": range(300, 308),
    }
    resolved = {"format": "csv"}
    _emit(table, resolved)
    lines = capsys.readouterr().out.split("\n", 1)
    assert lines[0].startswith(f"# cvteleport {__version__} config=")
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(table)
    writer.writerows(zip(*table.values()))
    assert lines[1] == expected.getvalue()

    # JSON has no inf: the table raises, and nothing is written.
    with pytest.raises(ValueError, match="not JSON compliant"):
        _emit(table, {"format": "json"})
    assert capsys.readouterr().out == ""
    # Without it, each NaN is null, where the CSV writes nan.
    table["array"] = np.where(np.isinf(table["array"]), 1.0, table["array"])
    rows = [
        {name: None if isinstance(v, float) and math.isnan(v) else v for name, v in zip(table, row)}
        for row in zip(*table.values())
    ]
    _emit(table, {"format": "json"})
    assert capsys.readouterr().out == json.dumps(rows, indent=2, default=float) + "\n"

    # csv.writer quotes a row that is one empty field.
    _emit({"lone": [None, "", 0.5]}, resolved)
    assert capsys.readouterr().out.split("\n", 1)[1] == 'lone\n""\n""\n0.5\n'


def test_factor_columns_write_the_bytes_of_their_expanded_rows(tmp_path, capsys):
    """A Factor column writes what the same column written out row by row writes,
    as CSV to stdout or to --output, and as JSON."""
    values = [0.0, -0.0, float("nan"), 'say "hi", twice', "", None, 2.5]
    tables = [
        {
            "f": Factor(values, np.array([1, 0, 0, 2, 3, 4, 5, 6, 1, 3])),
            "a": np.linspace(-1.0, 1.0, 10),
            "g": Factor(["x,y", -0.0], np.array([1, 1, 0, 0, 1, 0, 1, 0, 0, 1])),
            "t": Factor(np.array([0.5, -0.0, np.nan]), np.array([2, 0, 1, 1, 0, 2, 0, 0, 1, 2])),
        },
        # A Factor of one value is spelled once, in front of the next column's
        # spellings: as the first column, twice in a row, between a plain list
        # and a Factor, and (not folded) as the last column.
        {
            "one": Factor(['k,"1"'], np.zeros(6, dtype=np.intp)),
            "same": Factor(np.array([-0.0]), np.zeros(6, dtype=np.intp)),
            "a": [0.5, None, "", "x", -0.0, 3],
            "mid": Factor([""], np.zeros(6, dtype=np.intp)),
            "g": Factor(["x,y", 2.5], np.array([1, 0, 0, 1, 1, 0])),
            "last": Factor([None], np.zeros(6, dtype=np.intp)),
        },
        {"empty": Factor([""], np.zeros(3, dtype=np.intp)), "none": [None, "", None]},
        # No rows: the header alone.
        {
            "one": Factor(["p"], np.zeros(0, dtype=np.intp)),
            "a": np.zeros(0),
            "t": Factor(np.array([0.5, 1.0]), np.zeros(0, dtype=np.intp)),
        },
        {"lone": Factor(["", None, -0.0], np.array([0, 1, 2, 2, 0]))},
    ]
    for table in tables:
        expanded = {
            name: [c.values[k] for k in c.index] if isinstance(c, Factor) else c
            for name, c in table.items()
        }
        written = {}
        for fmt in ("csv", "json"):
            _emit(expanded, {"format": fmt})
            expected = written[fmt] = capsys.readouterr().out
            _emit(table, {"format": fmt})
            assert capsys.readouterr().out == expected
            path = tmp_path / f"out.{fmt}"
            _emit(table, {"format": fmt, "output": str(path)})
            assert path.read_bytes() == expected.encode()
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([list(expanded), *zip(*expanded.values())])
        assert written["csv"].split("\n", 1)[1] == buf.getvalue()
    assert buf.getvalue() == 'lone\n""\n""\n-0.0\n-0.0\n""\n'


def test_transfer_surface_spells_each_distinct_value_once(monkeypatch, capsys):
    """The preset, delta, w and z columns are spelled once per distinct value, not
    once per row, and tau once per distinct value: every float, of a column or
    of a Factor, is spelled by ``_float_text``, everything else by ``_csv_field``."""
    floats, others = [], []
    spell_float, spell = cli._float_text, cli._csv_field

    def counted(value):
        if not isinstance(value, float):
            others.append(value)
        return spell(value)

    monkeypatch.setattr(cli, "_float_text", lambda value: floats.append(value) or spell_float(value))
    monkeypatch.setattr(cli, "_csv_field", counted)
    presets = ["tmsv", "photon_added", "coherent_optimal"]
    code, out, _ = run_cli(["transfer-surface", "--r", "1.25", "--grid=-2:2:201",
                            "--presets", ",".join(presets)], capsys)
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == len(presets) * 201 * 201
    distinct_tau = len({row["tau"] for row in rows})
    assert len(floats) <= len(presets) + 2 * 201 + distinct_tau
    assert len(others) <= len(presets) + len(rows[0])


def test_only_a_factor_is_spelled_once_per_distinct_value(monkeypatch, capsys):
    """The writer dedups nothing: a plain float64 column is spelled once per row,
    repeats and all, and a Factor once per distinct value."""
    spelled = []
    spell_float = cli._float_text
    monkeypatch.setattr(cli, "_float_text", lambda value: spelled.append(value) or spell_float(value))
    values = np.array([0.25, -0.0, 0.0, 0.25])
    index = np.array([0, 1, 2, 3, 0, 0, 1, 2, 3, 3, 3, 0])
    column = values[index]
    _emit({"x": column}, {"format": "csv"})
    plain = capsys.readouterr().out
    assert len(spelled) == len(column)
    spelled.clear()
    _emit({"x": Factor(values, index)}, {"format": "csv"})
    assert capsys.readouterr().out == plain
    assert len(spelled) == len(values)
    # A Factor of one value is spelled once for the whole table.
    spelled.clear()
    one = np.zeros(len(index), dtype=np.intp)
    _emit({"c": Factor(np.array([0.75]), one), "x": Factor(values, index)}, {"format": "csv"})
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([["c", "x"], *((0.75, x) for x in column)])
    assert capsys.readouterr().out.split("\n", 1)[1] == buf.getvalue()
    assert len(spelled) == 1 + len(values)


def test_transfer_surface_config_grid_of_integers_prints_the_flag_bytes(tmp_path, capsys):
    argv = ["transfer-surface", "--r", "1.25", "--presets", "tmsv,photon_added"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": [-1, 0, 1]}))
    for fmt in ("csv", "json"):
        code, from_flag, _ = run_cli(argv + ["--grid=-1,0,1", "--format", fmt], capsys)
        assert code == 0
        code, from_config, _ = run_cli(argv + ["--config", str(path), "--format", fmt], capsys)
        assert code == 0 and "-1.0" in from_config
        if fmt == "csv":
            # The provenance line hashes the options as given, so it may differ.
            from_flag, from_config = (text.split("\n", 1)[1] for text in (from_flag, from_config))
        assert from_config == from_flag


def test_parser_reuse_keeps_no_state_between_calls(capsys):
    code, _, _ = run_cli(["optimize", "--kind", "x2_transfer", "--r", "1.0"], capsys)
    assert code == 0
    code, out, err = run_cli(["optimize", "--kind", "x2_transfer"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["message"] == "missing --r"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["moments", "--delta", "0.9", "--r", "1"], "--input"),
        (["moments", "--input", "fock:1", "--r", "1"], "--delta"),
        (["photon-stats", "--input", "fock:1", "--delta", "0.9"], "--r"),
        (["compare", "--input", "fock:1", "--r", "1"], "--delta-grid"),
        (["optimize", "--r", "1"], "--kind"),
        (["sweep", "--r-grid", "1"], "--kinds"),
        (["sweep", "--kinds", "x2_transfer"], "--r-grid"),
        (["transfer-surface"], "--r"),
    ],
)
def test_missing_required_option_is_named(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {"type": "InvalidArgumentError", "message": f"missing {flag}"}


def test_json_output_is_row_array(capsys):
    code, out, _ = run_cli(
        ["optimize", "--kind", "x2_transfer", "--r", "1.0", "--format", "json"], capsys
    )
    rows = json.loads(out)
    assert isinstance(rows, list) and rows[0]["kind"] == "x2_transfer"


def test_output_file_and_provenance(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out, _ = run_cli(
        ["optimize", "--kind", "x2_transfer", "--r", "1.0", "--output", str(path)], capsys
    )
    assert code == 0 and out == ""
    text = path.read_text()
    first = text.splitlines()[0]
    assert first.startswith("# cvteleport 1.0.0 config=") and len(first.split("config=")[1]) == 12


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "x2_transfer", "r": 1.0, "N": 8}))
    code, out, _ = run_cli(["optimize", "--config", str(cfg)], capsys)
    assert code == 0
    assert abs(float(read_csv(out)[0]["r"]) - 1.0) == 0.0
    code, out, _ = run_cli(["optimize", "--config", str(cfg), "--r", "2.0"], capsys)
    assert float(read_csv(out)[0]["r"]) == 2.0


# One valid configuration per subcommand (two where --identity-channel excludes
# the resource options), every value away from its default.
_EVERY_OPTION = [
    ("moments", {"input": "fock:1", "delta": 0.9, "theta": 0.2, "r": 1.25, "gain": 1.1}),
    ("moments", {"input": "coherent:1", "identity_channel": True}),
    ("photon-stats",
     {"input": "sqvac:0.5", "N": 6, "delta": 0.9, "theta": 0.2, "r": 1.25, "gain": 1.1}),
    ("photon-stats", {"input": "sqvac:0.5", "N": 6, "identity_channel": True}),
    ("compare",
     {"input": "fock:1", "N": 8, "delta_grid": [0.8, 0.9], "theta": 0.2, "r": 1.25, "gain": 1.1}),
    ("optimize",
     {"kind": "frobenius", "input": "coherent:1", "N": 8, "theta": 0.2, "r": 1.25, "gain": 1.1}),
    ("sweep", {"kinds": ["x2_transfer", "d_functional"], "r_grid": [0.5, 1.0], "input": "fock:1",
               "N": 8, "theta": 0.2, "gain": 1.1}),
    ("transfer-surface", {"presets": ["tmsv", "photon_added"], "grid": [-1.0, 0.0, 1.0],
                          "theta": 0.2, "r": 1.25, "gain": 1.1}),
]


def _as_flags(options: dict) -> list:
    argv = []
    for name, value in options.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.append(f"{flag}={','.join(map(str, value)) if isinstance(value, list) else value}")
    return argv


def test_every_option_means_the_same_from_a_flag_and_from_a_config_file(tmp_path, capsys):
    """For every option of every subcommand, moving it from the command line into
    a --config file leaves the table unchanged."""
    path, cfg = tmp_path / "out.csv", tmp_path / "cfg.json"

    def table(argv):
        path.unlink(missing_ok=True)
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and out == "" and err == "", (argv, err)
        return path.read_text().split("\n", 1)[1]  # everything after the provenance line

    covered = {}
    for command, options in _EVERY_OPTION:
        options = {**options, "format": "csv", "output": str(path)}
        want = table([command, *_as_flags(options)])
        for name, value in options.items():
            cfg.write_text(json.dumps({name: value}))
            rest = {key: v for key, v in options.items() if key != name}
            assert table([command, *_as_flags(rest), "--config", str(cfg)]) == want, (command, name)
        covered.setdefault(command, set()).update(options)
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    accepted = {
        command: {action.dest for action in sub._actions} - {"help", "config"}
        for command, sub in subparsers.choices.items()
    }
    assert covered == accepted


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": "fock:1", "r": 1.25, "delta-grid": "0.7:1.0:61"}))
    code, out, err = run_cli(["compare", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidArgumentError"
    assert "'delta-grid'" in error["message"] and "did you mean 'delta_grid'?" in error["message"]

    cfg.write_text(json.dumps({"kind": "x2_transfer", "r": 1.0, "delta_grid": "0.7:1.0:3"}))
    code, out, err = run_cli(["optimize", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert "unknown config key 'delta_grid' for optimize" in json.loads(err)["error"]["message"]

    # Retired options are unknown keys too.
    for key, value in (
        ("jobs", 2), ("angular_nodes", 256), ("radial_nodes", 96),
        ("quad_tol", 1e-9), ("fd_step", 1e-3), ("richardson_levels", 3),
    ):
        cfg.write_text(json.dumps({"input": "fock:1", "r": 1.25, "delta_grid": "0.9", key: value}))
        code, out, err = run_cli(["compare", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert f"unknown config key '{key}' for compare" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--kind", "x2_transfer", "--r", "2.5"],
        ["transfer-surface", "--r", "1.25", "--grid=-2:2:3"],
        # --delta must not pass as an abbreviation of --delta-grid either.
        ["compare", "--input", "fock:1", "--r", "1.25", "--delta-grid", "0.9"],
    ],
)
def test_commands_that_choose_delta_refuse_delta(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--delta", "0.3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --delta 0.3" in capsys.readouterr().err

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.3}))
    code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert f"unknown config key 'delta' for {argv[0]}" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv,code,message", [
    (["compare", "--r"], 2, "expected one argument"),
    (["--help"], 0, "usage: cvteleport"),
    (["compare", "-h"], 0, "usage: cvteleport compare"),
])
def test_argparse_prints_help_and_usage_errors(argv, code, message, capsys):
    """The step "The option table parses plain command lines without importing
    argparse; argparse prints help and every usage error" (its usage half; the
    refused ``--delta`` is the test above)."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == code
    assert message in "".join(capsys.readouterr())


def test_error_record_and_exit_code(capsys):
    code, out, err = run_cli(["moments", "--input", "cat:2"], capsys)
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"]["type"] == "InvalidArgumentError"


_FOCK1 = {"input": "fock:1", "delta": 0.9, "r": 1.0}


@pytest.mark.parametrize(
    "command,cfg,message",
    [
        ("moments", {**_FOCK1, "input": {"kind": "fock", "n": 2.7}},
         "Fock photon number must be an integer, got 2.7"),
        ("moments", {**_FOCK1, "input": {"kind": "fock_mixture", "weights": [[1.5, 0.5], [0, 0.5]]}},
         "mixture photon number must be an integer, got 1.5"),
        ("photon-stats", {**_FOCK1, "N": 2.7}, "N must be an integer, got 2.7"),
        ("photon-stats", {**_FOCK1, "N": True}, "N must be an integer, got True"),
        ("moments", {"input": "fock:1", "identity_channel": "no"},
         "identity_channel must be true or false, got 'no'"),
        ("photon-stats", {"input": "fock:1", "identity_channel": 1},
         "identity_channel must be true or false, got 1"),
        ("moments", {**_FOCK1, "r": True}, "r must be a number, got True"),
        ("moments", {**_FOCK1, "delta": True}, "delta must be a number, got True"),
        ("moments", {**_FOCK1, "gain": False}, "gain must be a number, got False"),
        ("moments", {**_FOCK1, "theta": "0.3"}, "theta must be a number, got '0.3'"),
        ("compare", {"input": "fock:1", "r": 1.0, "delta_grid": [0.9, True]},
         "delta_grid value must be a number, got True"),
        ("sweep", {"kinds": "x2_transfer", "r_grid": [1.0, True]},
         "r_grid value must be a number, got True"),
        ("moments", {**_FOCK1, "output": 1}, "output must be a file path, got 1"),
        ("sweep", {"kinds": 5, "r_grid": 1.0}, "kinds must be a comma list or a list of names, got 5"),
        ("transfer-surface", {"r": 1.0, "presets": 0},
         "presets must be a comma list or a list of names, got 0"),
        ("transfer-surface", {"r": 1.0, "grid": [0.0, False]}, "grid value must be a number, got False"),
        ("transfer-surface", {"r": 1.0, "presets": []}, "empty --presets"),
        ("transfer-surface", {"r": 1.0, "grid": []}, "empty --grid"),
        *(("optimize", {"format": fmt, "kind": "x2_transfer", "r": 1},
           f"unknown output format {fmt!r}") for fmt in (False, "", 0)),
        # A null is no value: it neither selects a default nor enters the hash.
        *((command, {**cfg, key: None}, f"config key {key!r} is null; give a value or leave it out")
          for command, cfg, key in (
              ("optimize", {"kind": "x2_transfer", "r": 1}, "format"),
              ("optimize", {"kind": "x2_transfer", "r": 1}, "theta"),
              ("photon-stats", _FOCK1, "N"),
              ("moments", _FOCK1, "output"),
          )),
    ],
)
def test_config_values_of_the_wrong_type_give_error_records(command, cfg, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error == {"type": "InvalidArgumentError", "message": message}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"input": {"kind": "fock_mixture", "weights": 5}, "r": 1, "delta": 0.5}',
         "fock_mixture 'weights' must be [n, p] pairs, got 5"),
        ('{"input": {"kind": "fock"}, "r": 1, "delta": 0.5}',
         "fock state descriptor needs the field 'n'"),
        ('{"input": {"kind": "coherent"}, "r": 1, "delta": 0.5}',
         "coherent state descriptor needs the field 'beta_re'"),
        ('{"input": {"kind": "fock_mixture", "weights": [[1]]}, "r": 1, "delta": 0.5}',
         "fock_mixture 'weights' must be [n, p] pairs, got [[1]]"),
        ('{"input": {"kind": "coherent", "beta_re": 1, "beta_img": 2}, "r": 1, "delta": 0.5}',
         "coherent state descriptor has the unknown field 'beta_img'"),
        ('{"input": {"kind": "fock_mixture", "weights": [[0, 1]], "extra": 1}, "r": 1, "delta": 0.5}',
         "fock_mixture state descriptor has the unknown field 'extra'"),
        ('{"input": ', "is not JSON"),
        ("[" * 100_000, "nests arrays or objects too deeply to parse"),
        (b'{"input": "fock:1", "r": 1, "delta": 0.5, "theta": "\xff"}', "is not JSON"),
    ],
)
def test_malformed_state_descriptors_and_config_files_give_one_error_record(
    text, message, fmt, tmp_path, capsys
):
    path = tmp_path / "cfg.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run_cli(["moments", "--config", str(path), "--format", fmt], capsys)
    assert code == 1 and out == ""
    [line] = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "InvalidArgumentError" and message in error["message"]


def test_config_booleans_and_numbers_of_the_right_type_are_accepted(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"input": "fock:1", "identity_channel": True, "N": 4}))
    code, out, _ = run_cli(["photon-stats", "--config", str(path)], capsys)
    assert code == 0 and [row["P_out"] for row in read_csv(out)] == ["0.0", "1.0", "0.0", "0.0", "0.0"]
    path.write_text(json.dumps({"input": "fock:1", "r": 1, "delta_grid": [0.9, 1]}))
    code, out, _ = run_cli(["compare", "--config", str(path)], capsys)
    assert code == 0 and [row["delta"] for row in read_csv(out)] == ["0.9", "1.0"]
    # A grid of one number is that number, not the default grid.
    path.write_text(json.dumps({"r": 1.0, "presets": ["tmsv"], "grid": 0}))
    code, out, _ = run_cli(["transfer-surface", "--config", str(path)], capsys)
    assert code == 0 and [(row["w"], row["z"], row["tau"]) for row in read_csv(out)] == [("0.0", "0.0", "1.0")]


def test_bad_delta_rejected(capsys):
    code, _, err = run_cli(
        ["photon-stats", "--input", "fock:0", "--delta", "1.5", "--r", "1.0"], capsys
    )
    assert code == 1
    assert "delta" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--input", "fock:1", "--r", "nan", "--delta-grid", "0.9"],
        ["compare", "--input", "coherent:nan", "--r", "1.0", "--delta-grid", "0.9"],
        ["compare", "--input", "fock:1", "--r", "800", "--delta-grid", "0.9"],
        ["compare", "--input", "coherent:1e200", "--r", "1.0", "--delta-grid", "0.9"],
    ],
    ids=["r-nan", "coherent-nan", "r-overflow", "coherent-overflow"],
)
def test_non_finite_and_overflowing_parameters_give_error_record(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "InvalidArgumentError"


@pytest.mark.parametrize("gain", ["1e40", "1e150"])
@pytest.mark.parametrize("text", ["coherent:1", "sqvac:0.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--r", "1", "--delta-grid", "0.9"],
        ["photon-stats", "--r", "1", "--delta", "0.9"],
        ["optimize", "--kind", "frobenius", "--r", "1"],
    ],
    ids=["compare", "photon-stats", "optimize"],
)
def test_overflowing_gaussian_overlaps_give_error_record(argv, text, gain, capsys):
    """Past a gain of about 1e34 the closed-form Gaussian overlap moments overflow."""
    code, out, err = run_cli(argv + ["--input", text, "--gain", gain], capsys)
    assert code == 1 and out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "EvaluationError" and "overflow" in record["message"]


@pytest.mark.parametrize("r,gain", [("1", "1e200"), ("30", "1e150")])
@pytest.mark.parametrize("text", ["fock:1", "mix:0@0.5,1@0.5", "coherent:1", "sqvac:0.5"])
@pytest.mark.parametrize(
    "argv",
    [["compare", "--delta-grid", "0.9"], ["optimize", "--kind", "frobenius"]],
    ids=["compare", "optimize"],
)
def test_overflowing_transfer_rate_gives_error_record(argv, text, r, gain, capsys):
    """Where the Gram rate 2 e + g^2 overflows, every input kind raises
    EvaluationError (a series or closed form there would be all NaN)."""
    code, out, err = run_cli(argv + ["--input", text, "--r", r, "--gain", gain], capsys)
    assert code == 1 and out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "EvaluationError" and "overflow" in record["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--r", "1", "--delta-grid", "0.9"],
        ["photon-stats", "--r", "1", "--delta", "0.9"],
        ["optimize", "--kind", "d_functional", "--r", "1"],
    ],
    ids=["compare", "photon-stats", "optimize"],
)
def test_overflowing_squeezing_gives_error_record(argv, capsys):
    """Past |s| of about 80 the closed-form Gaussian overlap moments overflow."""
    code, out, err = run_cli(argv + ["--input", "sqvac:400"], capsys)
    assert code == 1 and out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "EvaluationError" and "overflow" in record["message"]


@pytest.mark.parametrize("text", ["fock:65", "fock:400", "fock:1000000", "mix:0@0.5,1000000@0.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--r", "1", "--delta-grid", "0.9"],
        ["photon-stats", "--r", "1", "--delta", "0.9"],
        ["optimize", "--kind", "d_functional", "--r", "1"],
    ],
    ids=["compare", "photon-stats", "optimize"],
)
def test_top_photon_number_past_n_max_gives_error_record(argv, text, capsys):
    """A Fock-diagonal input past N_max = 64 photons raises CapacityError before
    any series is built, so even a million photons fail at once."""
    start = time.perf_counter()
    code, out, err = run_cli(argv + ["--input", text], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "CapacityError" and "N_max=64" in record["message"]


def test_moments_of_a_fock_state_past_n_max(capsys):
    """moments reads closed forms and evaluates no characteristic function, so
    a Fock state past N_max = 64 photons has the moments of the mixture of it
    alone."""
    rows = []
    for text in ("fock:70", "mix:70@1.0"):
        code, out, err = run_cli(["moments", "--input", text, "--delta", "0.9", "--r", "1"], capsys)
        assert code == 0 and err == ""
        rows.append(read_csv(out)[0])
    assert rows[0].pop("label") != rows[1].pop("label")
    assert rows[0] == rows[1]


def test_gaussian_moments_print_exact_fourth_cumulants(capsys):
    """A Gaussian state through a Gaussian channel has kappa4 = 0 exactly."""
    code, out, _ = run_cli(["moments", "--input", "coherent:2.12928", "--identity-channel"], capsys)
    row = read_csv(out)[0]
    assert code == 0 and row["mu4_x"] == "3.0" and row["kappa4_x"] == "0.0"
    code, out, _ = run_cli(
        ["moments", "--input", "sqvac:1.5", "--delta", "1", "--r", "3", "--gain", "1.3"], capsys
    )
    assert code == 0 and read_csv(out)[0]["kappa4_p"] == "0.0"


def test_top_photon_number_at_n_max_gives_rows(capsys):
    code, out, _ = run_cli(
        ["compare", "--input", "mix:0@0.5,64@0.5", "--r", "4", "--N", "64", "--delta-grid", "0.5,1"],
        capsys,
    )
    assert code == 0 and len(read_csv(out)) == 2


@pytest.mark.parametrize("text", ["sqvac:6", "sqvac:-8"])
def test_strong_squeezing_gives_certified_rows(text, capsys):
    """Squeezing far past |s| = 4 is summed in closed form: every command prints rows."""
    code, out, _ = run_cli(
        ["compare", "--input", text, "--r", "1", "--delta-grid", "0.5,0.9"], capsys
    )
    assert code == 0 and len(read_csv(out)) == 2
    code, out, _ = run_cli(
        ["sweep", "--kinds", "d_functional,one_minus_fidelity,frobenius", "--input", text,
         "--r-grid", "0.5,2"], capsys
    )
    assert code == 0 and all(row["status"] == "ok" for row in read_csv(out))


@pytest.mark.parametrize("text", ["coherent:1", "sqvac:0.5"])
def test_overflowing_gaussian_overlaps_are_recorded_sweep_cells(text, capsys):
    code, out, _ = run_cli(["sweep", "--kinds", "frobenius,x2_transfer", "--input", text,
                            "--r-grid", "1.0", "--gain", "1e150"], capsys)
    assert code == 0
    statuses = [row["status"] for row in read_csv(out)]
    assert statuses[0].startswith("error: EvaluationError") and statuses[1] == "ok"


NON_FINITE_CELL = ["--input", "coherent:1e100,709", "--r", "0.5", "--theta", "3", "--gain", "1.3",
                   "--N", "5"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["moments", "--input", "sqvac:179", "--identity-channel"], "overflow"),
        (["moments", "--input", "fock:1", "--delta", "0.5", "--r", "1", "--gain", "1e100"], "overflow"),
        (["optimize", "--kind", "mu4_x", "--input", "sqvac:360", "--r", "1"], "overflow"),
        (["moments", "--input", "sqvac:178", "--identity-channel"], "mu4_p"),
        (["moments", "--input", "coherent:1e100", "--identity-channel"], "g2_zero"),
        (["moments", "--input", "fock:1", "--delta", "0.3", "--r", "300", "--theta", "3",
          "--gain", "1000"], "not finite"),
        (["moments", "--input", "fock:1", "--delta", "1e-300", "--r", "300", "--theta", "3",
          "--gain", "1000"], "not finite"),
        (["compare", "--delta-grid", "0.92388"] + NON_FINITE_CELL, "fidelity basis"),
        (["optimize", "--kind", "one_minus_fidelity"] + NON_FINITE_CELL, "fidelity basis"),
    ],
)
def test_results_that_are_not_finite_numbers_are_evaluation_errors(argv, message, fmt, capsys):
    """An overflow or a result that is not a finite number is an EvaluationError
    record, never a traceback, inf or NaN (in JSON, Infinity and NaN are not even
    valid); compare and optimize give the same record on the same cell."""
    code, out, err = run_cli(argv + ["--format", fmt], capsys)
    assert code == 1 and out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "EvaluationError" and message in record["message"]


def test_overflowing_input_moments_are_recorded_sweep_cells(capsys):
    code, out, _ = run_cli(["sweep", "--kinds", "mu4_x,x2_transfer", "--input", "sqvac:360",
                            "--r-grid", "1"], capsys)
    assert code == 0
    statuses = [row["status"] for row in read_csv(out)]
    assert statuses[0].startswith("error: EvaluationError") and statuses[1] == "ok"


@pytest.mark.parametrize("r", ["0", "-0.0"])
def test_transfer_surface_at_r_zero_prints_the_photon_added_limit(r, capsys):
    """At r = 0 the photon_added preset's 1 / tanh(r) divides by zero; its r -> 0
    limit is Delta = 0, the state |1,1>."""
    code, out, err = run_cli(["transfer-surface", f"--r={r}"], capsys)
    assert code == 0 and err == ""
    rows = read_csv(out)
    assert {row["preset"] for row in rows} == set(cli._SURFACE_PRESETS)
    assert {row["delta"] for row in rows if row["preset"] == "photon_added"} == {"0.0"}
    for r in (1e-300, 1e-8, 0.5, 1.25, 30.0):  # elsewhere the same bits as before
        assert cli._SURFACE_PRESETS["photon_added"](r) == math.cos(math.atan(1.0 / math.tanh(r)))


def test_explicit_zero_gain_is_rejected(capsys):
    code, _, err = run_cli(
        ["compare", "--input", "fock:1", "--r", "1.0", "--gain", "0", "--delta-grid", "0.9"], capsys
    )
    assert code == 1
    assert "gain" in json.loads(err)["error"]["message"]


def test_explicit_zero_cutoff_prints_one_row(capsys):
    code, out, _ = run_cli(
        ["photon-stats", "--input", "fock:0", "--N", "0", "--delta", "0.9", "--r", "1.0"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert [r["n"] for r in rows] == ["0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--input", "fock:10", "--r", "0.3", "--delta-grid", "0.5"],
        ["compare", "--input", "mix:0@0.5,12@0.5", "--r", "0.5", "--delta-grid", "0.5,0.9"],
    ],
)
def test_compare_fock_diagonal_with_mass_beyond_cutoff(argv, capsys):
    # Frobenius - D_N reaches ~1e-5 here because the output keeps photon mass
    # beyond N = 24; the consistency check allows exactly that mass.
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    rows = read_csv(out)
    assert len(rows) == len(argv[-1].split(","))
    assert all(float(row["frobenius"]) >= float(row["d_n"]) for row in rows)


def test_config_cutoff_radius_is_not_an_option(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": "fock:1", "r": 1.0, "delta_grid": "0.9", "cutoff_radius": 3.0}))
    code, out, err = run_cli(["compare", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidArgumentError"
    assert "unknown config key 'cutoff_radius' for compare" in error["message"]


def test_readme_names_every_option_the_parser_accepts():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    accepted = {
        option
        for sub in subparsers.choices.values()
        for action in sub._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    assert documented == accepted


def test_readme_python_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_readme_command_lines_run(capsys):
    """The step "README command-line examples": every README line that starts
    with ``cvteleport `` exits 0, with every warning an error, and prints a
    JSON document or a CSV table whose rows match its header."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("cvteleport ")]
    assert lines
    for line in lines:
        code, out, err = run_cli(shlex.split(line)[1:], capsys)
        assert code == 0 and err == "", line
        if out.startswith(("[", "{")):
            assert json.loads(out), line
        else:
            rows = read_csv(out)
            assert rows and all(None not in row and None not in row.values() for row in rows), line
