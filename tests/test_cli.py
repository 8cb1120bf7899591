import argparse
import csv
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from cvteleport.cli import _emit, build_parser, main, parse_grid, parse_state
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
from cvteleport.optimize import closed_form_delta
from cvteleport.phasespace import PhasePoint
from cvteleport.states import transfer_fn
from oracles import PlaneConfig, output_photon_probs


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


def test_photon_stats_identity(capsys):
    code, out, _ = run_cli(
        ["photon-stats", "--input", "fock:1", "--N", "3", "--identity-channel"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert [float(r["P_in"]) for r in rows] == [0.0, 1.0, 0.0, 0.0]
    assert [float(r["P_out"]) for r in rows] == [0.0, 1.0, 0.0, 0.0]


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


def _surface_rows_per_point(r, theta, gain, axis):
    """The transfer-surface rows as one scalar transfer call per point builds them."""
    deltas = {
        "tmsv": 1.0,
        "photon_subtracted": math.cos(math.atan(math.tanh(r))),
        "photon_added": math.cos(math.atan(1.0 / math.tanh(r))),
        "coherent_optimal": closed_form_delta("fidelity_coherent", r),
    }
    rows = []
    for preset, delta in deltas.items():
        tau = transfer_fn(Channel(SqueezedBellResource(delta=delta, theta=theta, r=r), gain=gain))
        for w in axis:
            for z in axis:
                value = float(tau.fn(PhasePoint(w, z)).real)
                rows.append({"preset": preset, "delta": delta, "w": w, "z": z, "tau": value})
    return rows


def test_transfer_surface_bytes_match_per_point_evaluation(capsys):
    argv = ["transfer-surface", "--r", "1.25", "--grid=-2:2:31", "--theta", "0.4", "--gain", "0.9"]
    rows = _surface_rows_per_point(1.25, 0.4, 0.9, [float(x) for x in np.linspace(-2, 2, 31)])
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

    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    _emit(table, {"format": "json"})
    assert capsys.readouterr().out == json.dumps(rows, indent=2, default=float) + "\n"

    # csv.writer quotes a row that is one empty field.
    _emit({"lone": [None, "", 0.5]}, resolved)
    assert capsys.readouterr().out.split("\n", 1)[1] == 'lone\n""\n""\n0.5\n'


def test_parser_reuse_keeps_no_state_between_calls(capsys):
    code, _, _ = run_cli(["optimize", "--kind", "x2_transfer", "--r", "1.0"], capsys)
    assert code == 0
    code, out, err = run_cli(["optimize", "--kind", "x2_transfer"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["message"] == "missing --r"


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


def test_error_record_and_exit_code(capsys):
    code, out, err = run_cli(["moments", "--input", "cat:2"], capsys)
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"]["type"] == "InvalidArgumentError"


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
    EvaluationError (a Gauss-Laguerre rule or closed form there would be all NaN)."""
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
    any Gauss-Laguerre rule is built, so even a million photons fail at once."""
    start = time.perf_counter()
    code, out, err = run_cli(argv + ["--input", text], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "CapacityError" and "N_max=64" in record["message"]


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
