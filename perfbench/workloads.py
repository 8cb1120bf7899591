"""The benchmark's workloads: fixed CLI job lists, and what each one is for.

A job is one ``cvteleport`` command line, run in-process through
``cvteleport.cli.main(argv)``.  A pass runs every job of a workload once, in
an order permuted by the workload seed; the load is a closed loop with one
client, so the next job starts when the previous one has finished.
"""

from __future__ import annotations

from dataclasses import dataclass

CASE_INPUTS = ("fock:0", "fock:1", "mix:0@0.5,1@0.5", "coherent:2.12928", "sqvac:1.5")
OPTIMIZE_KINDS = ("d_functional", "one_minus_fidelity", "frobenius")
OPTIMIZE_INPUTS = ("sqvac:1.5", "coherent:2.12928")
SURFACE_PRESETS = ("tmsv", "photon_subtracted", "photon_added", "coherent_optimal")
CLOSED_FORM_KINDS = "x2_transfer,kappa4_transfer,n_transfer,mu4_x,mu4_p"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cell: str
    jobs: tuple

    def job_ids(self) -> list[str]:
        return [job_id(argv) for argv in self.jobs]


def job_id(argv) -> str:
    """The key a job's reference values are stored under."""
    return " ".join(argv)


def _case_grid() -> tuple:
    return tuple(
        ("compare", "--input", state, "--r", r, "--delta-grid", "0.75:1.0:31")
        for state in CASE_INPUTS
        for r in ("0.75", "1.0", "1.25", "2.5")
    )


def _optimize_sweep() -> tuple:
    return tuple(
        ("optimize", "--kind", kind, "--input", state, "--r", r)
        for kind in OPTIMIZE_KINDS
        for state in OPTIMIZE_INPUTS
        for r in ("0.75", "1.25", "2.5")
    )


def _surface_tables() -> tuple:
    surfaces = tuple(
        ("transfer-surface", "--r", "1.25", "--grid=-2:2:201", "--presets", preset)
        for preset in SURFACE_PRESETS
    )
    moments = tuple(
        ("moments", "--input", state, "--delta", "0.92388", "--r", "1.25")
        for state in CASE_INPUTS
    )
    sweep = (
        ("sweep", "--kinds", CLOSED_FORM_KINDS, "--input", "coherent:2.12928",
         "--r-grid", "0.25:3.0:12"),
    )
    return surfaces + moments + sweep


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="case_grid",
            why="The paper's case-study table: compare over a 31-point Delta grid for five "
            "inputs at four r; nearly all time is quadrature and the optimizer is idle.",
            cell="one (input, r, Delta) row of compare",
            jobs=_case_grid(),
        ),
        Workload(
            name="optimize_sweep",
            why="Delta optimization of the three quadrature objectives for two non-Fock "
            "inputs; ~75 objective evaluations per cell multiply the quadrature cost.",
            cell="one optimized (kind, input, r) row of optimize",
            jobs=_optimize_sweep(),
        ),
        Workload(
            name="surface_tables",
            why="Output-heavy closed-form work with no quadrature: transfer-surface CSV, "
            "moment tables and a closed-form sweep.",
            cell="one output row",
            jobs=_surface_tables(),
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload.  Written down before any optimization is measured.
LAYER_TABLE = (
    {
        "metrics": [
            "photonstats.output_photon_probs.{calls,self_s,grid_nodes}",
            "numerics.laguerre_envelope_all.{calls,time_s,elements}",
            "channel.chi_out.{grid_calls,grid_points,time_s}",
        ],
        "moves": "cells_per_s and job_p50_ms on case_grid (about 10 of the ~14 ms per cell); "
        "job_tail_ms on optimize_sweep (the d_functional jobs); about 0 on surface_tables.",
    },
    {
        "metrics": [
            "photonstats.overlap.{calls,self_s}",
            "photonstats.purity.calls",
            "photonstats.distortion_measures.{calls,self_s}",
            "numerics.integrate_plane.{calls,self_s,nodes}",
        ],
        "moves": "cells_per_s on case_grid (3 overlaps per cell); job_p50_ms on "
        "optimize_sweep (the fidelity and Frobenius jobs).",
    },
    {
        "metrics": ["numerics.plan_quadrature.{calls,self_s}", "channel.chi_out.scalar_calls"],
        "moves": "cells_per_s on case_grid and optimize_sweep; the ceiling is about 1 ms per call.",
    },
    {
        "metrics": [
            "optimize.minimize_delta.{calls,self_s,iterations}",
            "optimize.objective.{evals,time_s}",
            "optimize.evals_per_call",
        ],
        "moves": "cells_per_s and job_tail_ms on optimize_sweep; zero on case_grid.",
    },
    {
        "metrics": [
            "states.transfer_fn.calls",
            "states.tau.{point_calls,time_s}",
            "cli.{self_s,output_bytes,rows}",
            "cli.main.{calls,time_s}",
        ],
        "moves": "cells_per_s on surface_tables; negligible elsewhere.",
    },
    {
        "metrics": [
            "moments.moment_set.{calls,time_s}",
            "moments.transfer_xp_table.{calls,time_s}",
            "numerics.derivative_at_origin.calls",
        ],
        "moves": "job_p50_ms on surface_tables; derivative_at_origin.calls must stay 0 "
        "(the finite-difference oracle is off the production path).",
    },
    {
        "metrics": ["trace.overhead_frac", "trace.unattributed_frac"],
        "moves": "no end-to-end metric; they validate the trace itself.",
    },
)
