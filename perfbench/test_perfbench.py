"""Tests of the benchmark's own correctness gate and tracer.

Run from the repository root: ``python3 -m pytest perfbench/test_perfbench.py -q``.
"""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, job_id  # noqa: E402

CLI = run.import_cli()


def _job(workload, prefix):
    """The first job of ``workload`` whose id starts with ``prefix``."""
    argv = next(a for a in WORKLOADS[workload].jobs if job_id(a).startswith(prefix))
    return argv, reference.load(workload)[job_id(argv)]


@pytest.fixture(scope="module")
def outputs():
    """One output per job kind, with its reference."""
    picks = {
        "compare": ("case_grid", "compare --input fock:1 --r 1.25"),
        "optimize": ("optimize_sweep", "optimize --kind one_minus_fidelity --input sqvac:1.5"),
        "moments": ("surface_tables", "moments --input sqvac:1.5"),
        "sweep": ("surface_tables", "sweep"),
        "surface": ("surface_tables", "transfer-surface"),
    }
    out = {}
    for kind, (workload, prefix) in picks.items():
        argv, ref = _job(workload, prefix)
        _, rc, text = run.run_job(CLI, argv)
        assert rc == 0
        out[kind] = (ref, text)
    return out


@pytest.mark.parametrize("kind", ["compare", "optimize", "moments", "sweep", "surface"])
def test_seed_outputs_match_their_references(outputs, kind):
    ref, text = outputs[kind]
    verdict = reference.check_output(ref, 0, text)
    assert verdict.cells > 0
    assert verdict.failed == 0, verdict.problems


def _perturbed_row(ref, row, column, shift):
    bad = copy.deepcopy(ref)
    bad["rows"][row][bad["columns"].index(column)] += shift
    return bad


@pytest.mark.parametrize(
    "kind, column, inside, outside",
    [
        ("compare", "d_n", 5e-7, 2e-6),
        ("compare", "frobenius", 5e-7, 2e-6),
        ("optimize", "delta_star", 5e-4, 2e-3),
        ("optimize", "objective_value", 5e-7, 2e-6),
        ("moments", "mu4_p", 1e-10, 1e-8),
        ("sweep", "r", 1e-13, 1e-11),
    ],
)
def test_perturbed_reference_value_is_caught(outputs, kind, column, inside, outside):
    ref, text = outputs[kind]
    row = len(ref["rows"]) // 2
    assert reference.check_output(_perturbed_row(ref, row, column, inside), 0, text).failed == 0
    verdict = reference.check_output(_perturbed_row(ref, row, column, outside), 0, text)
    assert verdict.failed == 1
    assert verdict.problems[0].startswith(f"row {row}: {column}=")


def test_perturbed_surface_value_fails_its_symmetry_class(outputs):
    ref, text = outputs["surface"]
    bad = copy.deepcopy(ref)
    bad["tau"][3][5] += 1e-9  # the eight rows with {|w|, |z|} = {0.06, 0.16}
    assert reference.check_output(bad, 0, text).failed == 8
    bad = copy.deepcopy(ref)
    bad["axis"][0] += 1e-9  # w = -2 and z = -2 rows
    assert reference.check_output(bad, 0, text).failed == 2 * len(ref["axis"]) - 1


def test_failed_or_misshapen_job_fails_every_cell(outputs):
    ref, text = outputs["compare"]
    cells = len(ref["rows"])
    assert reference.check_output(ref, 1, text).failed == cells
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert reference.check_output(ref, 0, truncated).failed == cells
    assert reference.check_output(ref, 0, text.replace("d_n", "D_N")).failed == cells


def test_non_finite_output_is_a_miss(outputs):
    ref, text = outputs["compare"]
    lines = text.splitlines()
    fields = lines[3].split(",")
    fields[2] = "nan"
    lines[3] = ",".join(fields)
    assert reference.check_output(ref, 0, "\n".join(lines) + "\n").failed == 1


def test_calibration_brackets_a_job_and_passes_its_result_through():
    import calibrate

    calibration = calibrate.Calibration({"job": 0.01})
    result, slowdown = calibration.time_job("job", lambda: (0.02, "out"))
    assert result == (0.02, "out")
    assert slowdown > 0.0
    assert calibration.units >= 2 * calibrate.MIN_UNITS
    assert calibration.mean_slowdown() > 0.0


def test_tracer_counts_layers_and_restores_the_package():
    import spans

    argv = ["compare", "--input", "fock:1", "--r", "1.25", "--delta-grid", "0.9:1.0:2"]
    _, _, plain = run.run_job(CLI, argv)
    originals = (CLI.main, CLI.distortion_measures, sys.modules["cvteleport.photonstats"].overlap)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, rc, traced = run.run_job(CLI, argv)
    finally:
        tracer.uninstall()
    assert rc == 0 and traced == plain
    assert (CLI.main, CLI.distortion_measures,
            sys.modules["cvteleport.photonstats"].overlap) == originals
    flat = tracer.flat()
    assert flat["cli.main.calls"] == 1
    assert flat["photonstats.distortion_measures.calls"] == 2
    assert flat["photonstats.overlap.calls"] == 6
    assert flat["photonstats.purity.calls"] == 4
    assert flat["channel.chi_out.grid_calls"] == 8
    assert flat.get("numerics.derivative_at_origin.calls", 0) == 0
    assert flat.get("optimize.objective.evals", 0) == 0
    assert 0.0 < flat["numerics.self_s"] < flat["cli.main.time_s"]
