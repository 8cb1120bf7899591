"""cvteleport benchmark: CLI workloads run in-process, checked against references.

Usage, from the repository root::

    python3 perfbench/run.py --workload case_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30           # every workload
    python3 perfbench/run.py --workload all --repeat 10 --trace 1 --out FILE
    python3 perfbench/run.py --record-reference                    # rewrite references

``--trace 0`` measures the end-to-end metrics with the package untouched;
``--trace 1`` is a separate run that alternates untraced and traced passes and
reports the per-layer metrics (see ``spans.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (cells)
and ``metrics``.  Every job of every pass is checked against its reference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
from workloads import LAYER_TABLE, WORKLOADS, job_id

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = Path(__file__).resolve()
SETUP_PROBES = 5
# job_tail_ms is the top TAIL_N-quantile of job latency: p90.
TAIL_N = 10
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# failed_frac is 0 when the program is correct, so it is reported beside the
# metrics (and as attempted/failed in the result) rather than as one of them.
PER_LAYER = (
    ("photonstats.output_photon_probs.calls", "count"),
    ("photonstats.output_photon_probs.self_s", "s"),
    ("photonstats.output_photon_probs.grid_nodes", "count"),
    ("numerics.laguerre_envelope_all.calls", "count"),
    ("numerics.laguerre_envelope_all.time_s", "s"),
    ("numerics.laguerre_envelope_all.elements", "count"),
    ("channel.chi_out.grid_calls", "count"),
    ("channel.chi_out.grid_points", "count"),
    ("channel.chi_out.time_s", "s"),
    ("channel.chi_out.scalar_calls", "count"),
    ("photonstats.overlap.calls", "count"),
    ("photonstats.overlap.self_s", "s"),
    ("photonstats.purity.calls", "count"),
    ("photonstats.distortion_measures.calls", "count"),
    ("photonstats.distortion_measures.self_s", "s"),
    ("numerics.integrate_plane.calls", "count"),
    ("numerics.integrate_plane.self_s", "s"),
    ("numerics.integrate_plane.nodes", "count"),
    ("numerics.plan_quadrature.calls", "count"),
    ("numerics.plan_quadrature.self_s", "s"),
    ("optimize.minimize_delta.calls", "count"),
    ("optimize.minimize_delta.self_s", "s"),
    ("optimize.minimize_delta.iterations", "count"),
    ("optimize.objective.evals", "count"),
    ("optimize.objective.time_s", "s"),
    ("optimize.evals_per_call", "evals/call"),
    ("states.transfer_fn.calls", "count"),
    ("states.tau.point_calls", "count"),
    ("states.tau.time_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.rows", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.time_s", "s"),
    ("moments.moment_set.calls", "count"),
    ("moments.moment_set.time_s", "s"),
    ("moments.transfer_xp_table.calls", "count"),
    ("moments.transfer_xp_table.time_s", "s"),
    ("numerics.derivative_at_origin.calls", "count"),
    ("optimize.self_s", "s"),
    ("photonstats.self_s", "s"),
    ("numerics.self_s", "s"),
    ("channel.self_s", "s"),
    ("states.self_s", "s"),
    ("moments.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
)


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def pin_environment():
    """One CLI worker and single-threaded BLAS, before numpy is imported.

    ``output_photon_probs`` does a matmul; numpy's OpenBLAS would otherwise
    start up to 64 threads.  One thread is within ``nproc`` on any machine.
    """
    os.environ.pop("CVTELEPORT_JOBS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_cli():
    """``cvteleport.cli`` from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "cvteleport" / "__init__.py").is_file():
        raise SetupError(f"no cvteleport sources under {src}")
    sys.path.insert(0, str(src))
    import cvteleport.cli

    if Path(cvteleport.cli.__file__).resolve().parent != (src / "cvteleport").resolve():
        raise SetupError(f"imported cvteleport from {cvteleport.cli.__file__}, not {src}")
    return cvteleport.cli


def _git_commit():
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cvteleport_jobs": 1,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Jobs and passes
# ---------------------------------------------------------------------------

def run_job(cli, argv):
    """``(seconds, exit status, stdout)`` of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(argv))
        except (Exception, SystemExit):
            rc = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        seconds = perf_counter() - t0
    if rc != 0 and not isinstance(rc, str):
        rc = f"{rc} {err.getvalue().strip()}"
    return seconds, rc, out.getvalue()


class Tally:
    """Cells attempted and failed over every checked pass."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.output_bytes = 0
        self.rows = 0

    def check(self, argv, rc, text):
        key = job_id(argv)
        verdict = reference.check_output(self.refs[key], rc, text)
        self.attempted += verdict.cells
        self.failed += verdict.failed
        self.problems = (self.problems + [f"{key}: {p}" for p in verdict.problems])[:5]
        self.output_bytes += len(text.encode())
        self.rows += verdict.cells
        return verdict


def run_pass(cli, order, tally, calibration=None):
    """Run every job once; returns ``{job id: (seconds, slowdown, cells completed)}``.

    With a ``calibration``, the machine's slowdown is measured right before
    and after each job (see ``calibrate.py``); without one it reads 1.
    """
    results = {}
    for argv in order:
        if calibration:
            (seconds, rc, text), slowdown = calibration.time_job(
                job_id(argv), lambda: run_job(cli, argv))
        else:
            (seconds, rc, text), slowdown = run_job(cli, argv), 1.0
        verdict = tally.check(argv, rc, text)
        results[job_id(argv)] = (seconds, slowdown, verdict.cells - verdict.failed)
    return results


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def probe_setup(workload):
    """Child mode: import, build the job list, run one warm-up job; print the
    seconds that took and the machine's slowdown measured right after."""
    t0 = perf_counter()
    cli = import_cli()
    jobs = list(WORKLOADS[workload].jobs)
    run_job(cli, jobs[0])
    seconds = perf_counter() - t0
    import calibrate

    print(f"setup_s {seconds!r} {calibrate.Calibration({}).window(2 * seconds)!r}")


def measure_setup(workload) -> float:
    """Median over fresh processes of the setup time over its slowdown."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--setup-probe", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()}")
        seconds, slowdown = map(float, proc.stdout.split()[-2:])
        samples.append(seconds / slowdown)
    return statistics.median(samples)


def warm_up(cli, w):
    """One untimed pass in the listed order; returns each job's seconds.

    Besides filling caches, it fixes the heap layout: the peak RSS of a
    first pass depends on the job order (allocator fragmentation), and a
    seed-independent first pass keeps ``peak_rss_mb`` from varying by seed.
    """
    return {job_id(argv): run_job(cli, argv)[0] for argv in w.jobs}


def _order(rng, jobs):
    order = list(jobs)
    rng.shuffle(order)
    return order


def _repeat(unit, seconds):
    """Run ``unit()`` at least once, and again while the next run is
    predicted to end within ``seconds`` of the start."""
    results = []
    start = perf_counter()
    while not results or (perf_counter() - start) * (len(results) + 1) <= seconds * len(results):
        results.append(unit())
    return results


def end_to_end(workload, seed, seconds):
    """Timed passes for ``seconds``; each job's latency is its median pass.

    Each job time is divided by the slowdown measured around it, so the
    metrics are what the jobs take on an idle machine: other tenants of a
    shared host otherwise move them by more than any bound (see
    ``calibrate.py``).  The uncorrected values are printed with them.
    """
    import calibrate

    w = WORKLOADS[workload]
    setup_s = measure_setup(workload)
    cli = import_cli()
    tally = Tally(reference.load(workload))
    calibration = calibrate.Calibration(warm_up(cli, w))
    rng = random.Random(seed)
    passes = _repeat(lambda: run_pass(cli, _order(rng, w.jobs), tally, calibration), seconds)
    cells = sum(c for p in passes for _, _, c in p.values()) / len(passes)

    def metrics(latency):
        """From ``latency(seconds, slowdown)`` of every job of every pass."""
        per_job = [statistics.median(latency(*p[key][:2]) for p in passes) for key in passes[0]]
        return {
            "cells_per_s": cells / sum(per_job),
            # The upper median of each job's median: surface_tables is half
            # sub-10 ms jobs, and a plain median would straddle that gap.
            "job_p50_ms": 1e3 * statistics.median_high(per_job),
            "job_tail_ms": 1e3 * statistics.quantiles(
                [latency(s, f) for p in passes for s, f, _ in p.values()], n=TAIL_N)[-1],
        }

    values = {
        "setup_s": setup_s,
        **metrics(lambda seconds, slowdown: seconds / slowdown),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": len(passes),
        "jobs_timed": len(passes) * len(w.jobs),
        "slowdown": calibration.mean_slowdown(),
        "uncorrected": metrics(lambda seconds, slowdown: seconds),
        "failed_frac": tally.failed / tally.attempted,
    }
    return tally, values, detail


def per_layer(workload, seed, seconds):
    import spans

    w = WORKLOADS[workload]
    cli = import_cli()
    tally = Tally(reference.load(workload))
    warm_up(cli, w)
    rng = random.Random(seed)
    tracer = spans.Tracer()

    def pair():
        """Pass time untraced, then traced, on fresh permutations."""
        untraced = sum(s for s, _, _ in run_pass(cli, _order(rng, w.jobs), tally).values())
        tally.output_bytes = tally.rows = 0
        tracer.install()
        try:
            traced = sum(s for s, _, _ in run_pass(cli, _order(rng, w.jobs), tally).values())
        finally:
            tracer.uninstall()
        tracer.counts["cli.output_bytes"] += tally.output_bytes
        tracer.counts["cli.rows"] += tally.rows
        return untraced, traced

    untraced, traced = zip(*_repeat(pair, seconds))
    flat = tracer.flat()
    values = {name: flat.get(name, 0) / len(traced) for name, _ in PER_LAYER}
    calls = flat.get("optimize.minimize_delta.calls", 0)
    values["optimize.evals_per_call"] = flat.get("optimize.objective.calls", 0) / max(calls, 1)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    values["trace.unattributed_frac"] = 1.0 - flat.get("cli.main.time_s", 0.0) / sum(traced)
    detail = {"pairs": len(traced), "failed_frac": tally.failed / tally.attempted}
    return tally, values, detail


def run_one(args) -> int:
    measure = per_layer if args.trace else end_to_end
    tally, values, detail = measure(args.workload, args.seed, args.seconds)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=environment())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in values.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  {'job_tail_ms percentile':44s} p{100 - 100 // TAIL_N} of "
              f"{detail['jobs_timed']} jobs")
        print(f"  {'machine slowdown':44s} {detail['slowdown']:.4g}x over "
              f"{detail['passes']} passes; uncorrected: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in detail["uncorrected"].items()))
    print(f"  {'failed_frac':44s} {detail['failed_frac']:.6g} "
          f"({tally.failed} of {tally.attempted} cells)")
    for problem in tally.problems:
        print(f"perfbench: miss: {problem}", file=sys.stderr)
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Every workload, several seeds
# ---------------------------------------------------------------------------

def _child(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"{workload} seed {seed} failed: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    detail = json.loads(next(x for x in lines if x.startswith("perfbench-detail "))[17:])
    return json.loads(lines[-1]), detail


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args) -> int:
    report = {"environment": environment(), "seconds": args.seconds,
              "layer_table": LAYER_TABLE, "workloads": {}}
    ok, attempted, failed, summary = True, 0, 0, {}
    for name, w in WORKLOADS.items():
        runs = [_child(name, args.seed + k, args.seconds, 0) for k in range(args.repeat)]
        entry = {"why": w.why, "cell": w.cell, "jobs": w.job_ids(),
                 "seeds": [args.seed + k for k in range(args.repeat)],
                 "end_to_end": {}, "runs": [d for _, d in runs]}
        print(f"{name}  ({args.repeat} runs of {args.seconds} s)")
        for metric, unit in END_TO_END:
            vals = [r["metrics"][metric]["value"] for r, _ in runs]
            q1, med, q3 = _quartiles(vals)
            entry["end_to_end"][metric] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "values": vals,
            }
            summary[f"{name}.{metric}"] = {"value": med, "unit": unit}
            print(f"  {metric:16s} {med:12.6g} {unit:5s} spread {(q3 - q1) / med:.3f}")
        counts = sorted({d["jobs_timed"] for _, d in runs})
        run_failed = sum(r["failed"] for r, _ in runs)
        run_attempted = sum(r["attempted"] for r, _ in runs)
        print(f"  {'job_tail_ms':16s} is p{100 - 100 // TAIL_N} of {counts} jobs")
        print(f"  {'failed_frac':16s} {run_failed / run_attempted:12.6g} "
              f"({run_failed} of {run_attempted} cells)")
        if args.trace:
            traced, tdetail = _child(name, args.seed, args.seconds, 1)
            entry["per_layer"] = {
                k: {"value": v["value"], "unit": v["unit"]} for k, v in traced["metrics"].items()
            }
            entry["traced_run"] = tdetail
            run_failed += traced["failed"]
            run_attempted += traced["attempted"]
            for metric, _ in PER_LAYER:
                v = traced["metrics"][metric]
                print(f"    {metric:44s} {v['value']:.6g} {v['unit']}")
        ok = ok and run_failed == 0
        attempted += run_attempted
        failed += run_failed
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def record_references() -> int:
    cli = import_cli()
    env = environment()
    for name, w in WORKLOADS.items():
        refs = {}
        for argv in w.jobs:
            _, rc, text = run_job(cli, argv)
            if rc != 0:
                raise SetupError(f"{job_id(argv)} failed: {rc}")
            refs[job_id(argv)] = reference.make_reference(argv, text)
        reference.save(name, refs, env)
        print(f"recorded {len(refs)} jobs for {name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --workload all: runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--out", help="with --workload all: write the full report here")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if (args.repeat != 1 or args.out) and args.workload != "all":
        parser.error("--repeat and --out go with --workload all")
    pin_environment()
    try:
        if args.record_reference:
            return record_references()
        if args.setup_probe:
            probe_setup(args.workload)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
