"""Command-line front end: state/channel descriptors in, tables out.

Subcommands::

    moments           observables of an input or teleported state
    photon-stats      photon-number probabilities (columns n, P_in, P_out)
    compare           Delta sweep of D_N / fidelity / Frobenius for one input
    optimize          minimize one objective over Delta at fixed r
    sweep             optimize a list of objectives over an r grid
    transfer-surface  (w, z) grid of the transfer function for named presets

State descriptor grammar: ``fock:N``, ``coherent:RE[,IM]``, ``sqvac:S``,
``mix:N1@P1,N2@P2,...``.  Grids are ``start:stop:count`` or comma lists.
Options may come from a JSON config file (``--config``); explicit flags win.
Outputs are deterministic: fixed column orders, shortest round-trip decimals,
and a provenance comment (tool version + config hash) on every CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .channel import teleport
from .errors import CVTeleportError, InvalidArgumentError
from .moments import moment_set
from .optimize import (
    OBJECTIVE_KINDS,
    Objective,
    closed_form_delta,
    minimize_delta,
    sweep_r,
)
from .phasespace import PhasePoint
from .photonstats import delta_family, input_distribution
from .states import (
    Channel,
    CoherentInput,
    FockInput,
    FockMixtureInput,
    InputState,
    SqueezedBellResource,
    SqueezedVacuumInput,
    as_int,
    as_real,
    state_from_descriptor,
    transfer_fn,
)

_FORMATS = ("csv", "json")


def parse_state(text: str) -> InputState:
    """Parse the compact state grammar used on the command line."""
    if isinstance(text, dict):
        return state_from_descriptor(text)
    try:
        kind, _, arg = text.partition(":")
        if kind == "fock":
            return FockInput(int(arg))
        if kind == "coherent":
            parts = [float(x) for x in arg.split(",")]
            if len(parts) == 1:
                return CoherentInput(complex(parts[0], 0.0))
            if len(parts) == 2:
                return CoherentInput(complex(parts[0], parts[1]))
            raise ValueError("coherent takes RE or RE,IM")
        if kind == "sqvac":
            return SqueezedVacuumInput(float(arg))
        if kind == "mix":
            weights = []
            for chunk in arg.split(","):
                n, _, p = chunk.partition("@")
                weights.append((int(n), float(p)))
            return FockMixtureInput(tuple(weights))
    except InvalidArgumentError:
        raise
    except Exception as exc:
        raise InvalidArgumentError(f"bad state descriptor {text!r}: {exc}") from exc
    raise InvalidArgumentError(
        f"bad state descriptor {text!r}; expected fock:N, coherent:RE[,IM], sqvac:S or mix:N@P,..."
    )


def parse_grid(text, what: str = "grid") -> list[float]:
    """Parse ``start:stop:count``, a comma list, a number or a list of numbers;
    ``what`` names the option in the error of a value that is none of these."""
    if isinstance(text, (list, tuple)):
        return [as_real(x, f"{what} value") for x in text]
    if not isinstance(text, str):
        return [as_real(text, what)]
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            count = int(count)
            if count < 1:
                raise ValueError("grid count must be >= 1")
            return [float(x) for x in np.linspace(float(start), float(stop), count)]
        return [float(x) for x in text.split(",")]
    except InvalidArgumentError:
        raise
    except Exception as exc:
        raise InvalidArgumentError(f"bad grid {text!r}: {exc}") from exc


_EXECUTION_KEYS = ("output",)


def _config_hash(resolved: dict) -> str:
    # The output path does not alter the numbers and stays out of the
    # provenance hash.
    science = {k: v for k, v in resolved.items() if k not in _EXECUTION_KEYS}
    blob = json.dumps(science, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it among the fields of a row."""
    if isinstance(value, float):
        return float.__repr__(value)  # csv.writer's spelling of a float, never quoted
    buf = io.StringIO()
    # A second, empty field keeps an empty first field from being quoted.
    csv.writer(buf, lineterminator="\n").writerow((value, None))
    return buf.getvalue()[:-2]


def _csv_fields(column) -> list[str]:
    """The column's CSV fields, each distinct value spelled once.

    A float64 array's values are told apart by bit pattern, so 0.0 and -0.0
    keep their own spelling; any other column repeats a value by repeating
    the object, and each object is spelled once.
    """
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        bits, index = np.unique(column.view(np.int64), return_inverse=True)
        spelled = [_csv_field(v) for v in bits.view(np.float64).tolist()]
        return np.array(spelled, dtype=object)[index].tolist()
    values = list(column)  # holds every object, so no two share an id meanwhile
    spelled = {id(v): _csv_field(v) for v in {id(v): v for v in values}.values()}
    return [spelled[id(v)] for v in values]


def _emit(table: dict, resolved: dict):
    """Write a column table (name -> sequence, one entry per row) as CSV or JSON.

    JSON is an array of row objects.  The CSV is what ``csv.writer`` writes
    for the same rows, built one column at a time.  It is written line by
    line, so the whole text of a large table is never held at once.  The
    text goes to ``--output`` or to standard output.
    """
    columns = list(table)
    if resolved.get("format") == "json":
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
        payload = [dict(zip(columns, row)) for row in zip(*values)]
        chunks = [json.dumps(payload, indent=2, default=float) + "\n"]
    else:
        rows = itertools.chain([_csv_fields(columns)], zip(*map(_csv_fields, table.values())))
        lines = map(",".join, rows)
        if len(columns) == 1:
            lines = (line or '""' for line in lines)  # csv.writer quotes a lone empty field
        provenance = f"# cvteleport {__version__} config={_config_hash(resolved)}\n"
        chunks = itertools.chain([provenance], map("{}\n".format, lines))
    out_path = resolved.get("output")
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


_NOT_CONFIG_KEYS = ("command", "config", "func")


def _check_config_keys(file_cfg: dict, args: argparse.Namespace):
    """Reject config-file keys that are not option names of the subcommand."""
    known = set(vars(args)).difference(_NOT_CONFIG_KEYS)
    for key in file_cfg:
        if key in known:
            continue
        spelling = key.lstrip("-").replace("-", "_")
        hint = (
            f"did you mean {spelling!r}?" if spelling in known
            else f"expected one of {sorted(known)}"
        )
        raise InvalidArgumentError(f"unknown config key {key!r} for {args.command}; {hint}")


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config-file values under explicit flags; flags win."""
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise InvalidArgumentError("config file must hold a JSON object")
        _check_config_keys(file_cfg, args)
    resolved = dict(file_cfg)
    for key, value in vars(args).items():
        if key in ("config", "func"):
            continue
        if value is not None:
            resolved[key] = value
    resolved.setdefault("format", "csv")
    return resolved


def _opt(resolved: dict, key: str, default, check=as_real):
    """Option ``key`` checked by ``check`` (:func:`as_real` or :func:`as_int`), or
    ``default`` when it was not given.

    Only an absent value (None) takes the default, so an explicit zero
    reaches the validation of the object it configures.
    """
    value = resolved.get(key)
    return default if value is None else check(value, key)


def _flag(resolved: dict, key: str) -> bool:
    """Switch ``key``: off when absent; a config file must give a JSON boolean."""
    value = resolved.get(key)
    if value is None or isinstance(value, bool):
        return bool(value)
    raise InvalidArgumentError(f"{key} must be true or false, got {value!r}")


def _names(resolved: dict, key: str, default=()) -> list:
    """Option ``key``, a comma list or a list of strings, as a list; ``default`` when absent."""
    value = resolved.get(key)
    if value is None:
        return list(default)
    if isinstance(value, str):
        return value.split(",")
    if isinstance(value, list) and all(isinstance(name, str) for name in value):
        return value
    raise InvalidArgumentError(f"{key} must be a comma list or a list of names, got {value!r}")


def _channel_from(resolved: dict, delta=None) -> Channel:
    if delta is None:
        if resolved.get("delta") is None:
            raise InvalidArgumentError("a resource needs --delta (or --identity-channel)")
        delta = as_real(resolved["delta"], "delta")
    res = SqueezedBellResource(
        delta=delta, theta=_opt(resolved, "theta", 0.0), r=float(_single_r(resolved))
    )
    return Channel(res, gain=_opt(resolved, "gain", 1.0))


def _single_r(resolved: dict) -> float:
    if resolved.get("r") is None:
        raise InvalidArgumentError("missing --r")
    grid = parse_grid(resolved["r"], "r")
    if len(grid) != 1:
        raise InvalidArgumentError("this command takes a single --r value")
    return grid[0]


def _input_state(resolved: dict) -> InputState:
    if resolved.get("input") is None:
        raise InvalidArgumentError("missing --input")
    return parse_state(resolved["input"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_moments(resolved):
    state = _input_state(resolved)
    if _flag(resolved, "identity_channel"):
        ms = moment_set(state)
    else:
        ms = moment_set(teleport(state, _channel_from(resolved)))
    _emit({k: [v] for k, v in ms.to_dict().items()}, resolved)


def _cmd_photon_stats(resolved):
    state = _input_state(resolved)
    n_photons = _opt(resolved, "N", 24, as_int)
    p_in = input_distribution(state, n_photons)
    if _flag(resolved, "identity_channel"):
        p_out = p_in
    else:
        ch = _channel_from(resolved)
        res = ch.resource
        family = delta_family(state, res.r, res.theta, ch.gain, n_photons)
        p_out = family.photon_distribution(res.delta)
    _emit({"n": range(n_photons + 1), "P_in": p_in.probs, "P_out": p_out.probs}, resolved)


def _cmd_compare(resolved):
    state = _input_state(resolved)
    if resolved.get("delta_grid") is None:
        raise InvalidArgumentError("compare needs --delta-grid")
    deltas = parse_grid(resolved["delta_grid"], "delta_grid")
    if not deltas:
        raise InvalidArgumentError("empty --delta-grid")
    family = delta_family(
        state,
        _single_r(resolved),
        theta=_opt(resolved, "theta", 0.0),
        gain=_opt(resolved, "gain", 1.0),
        N=_opt(resolved, "N", 24, as_int),
    )

    cols = family.measure_columns(deltas)
    table = {
        "delta": deltas,
        "d_n": cols["d_n"],
        "fidelity": cols["fidelity"],
        "one_minus_fidelity": 1.0 - cols["fidelity"],
        "frobenius": cols["frobenius"],
    }
    _emit(table, resolved)


def _cmd_optimize(resolved):
    kind = resolved.get("kind")
    if kind is None:
        raise InvalidArgumentError("optimize needs --kind")
    state = parse_state(resolved["input"]) if resolved.get("input") is not None else None
    obj = Objective(
        kind=kind,
        r=_single_r(resolved),
        theta=_opt(resolved, "theta", 0.0),
        input=state,
        gain=_opt(resolved, "gain", 1.0),
        n_photons=_opt(resolved, "N", 24, as_int),
    )
    rec = minimize_delta(obj)
    table = {
        "kind": [rec.kind],
        "r": [rec.r],
        "delta_star": [rec.delta_star],
        "objective_value": [rec.objective_value],
        "iterations": [rec.iterations],
    }
    _emit(table, resolved)


def _cmd_sweep(resolved):
    if not resolved.get("kinds"):
        raise InvalidArgumentError("sweep needs --kinds")
    kinds = _names(resolved, "kinds")
    for kind in kinds:
        if kind not in OBJECTIVE_KINDS:
            raise InvalidArgumentError(f"unknown objective kind {kind!r}")
    if resolved.get("r_grid") is None:
        raise InvalidArgumentError("sweep needs --r-grid")
    r_grid = parse_grid(resolved["r_grid"], "r_grid")
    state = parse_state(resolved["input"]) if resolved.get("input") is not None else None
    records = sweep_r(
        kinds, r_grid, input=state, theta=_opt(resolved, "theta", 0.0),
        gain=_opt(resolved, "gain", 1.0), n_photons=_opt(resolved, "N", 24, as_int),
    )
    table = {
        "kind": [rec.kind for rec in records],
        "r": [rec.r for rec in records],
        "delta_star": [rec.delta_star for rec in records],
        "objective_value": [rec.objective_value for rec in records],
        "status": ["ok" if rec.error is None else f"error: {rec.error}" for rec in records],
    }
    _emit(table, resolved)


_SURFACE_PRESETS = ("tmsv", "photon_subtracted", "photon_added", "coherent_optimal")


def _preset_delta(preset: str, r: float) -> float:
    """Delta value realizing each figure preset inside the Bell-like family."""
    if preset == "tmsv":
        return 1.0
    if preset == "photon_subtracted":
        return math.cos(math.atan(math.tanh(r)))
    if preset == "photon_added":
        return math.cos(math.atan(1.0 / math.tanh(r)))
    if preset == "coherent_optimal":
        return closed_form_delta("fidelity_coherent", r)
    raise InvalidArgumentError(f"unknown preset {preset!r}; expected one of {_SURFACE_PRESETS}")


def _cmd_transfer_surface(resolved):
    r = _single_r(resolved)
    theta = _opt(resolved, "theta", 0.0)
    gain = _opt(resolved, "gain", 1.0)
    presets = _names(resolved, "presets", _SURFACE_PRESETS)
    axis = parse_grid("-2:2:41" if resolved.get("grid") is None else resolved["grid"], "grid")
    # Rows run w-major, z-minor within each preset.
    w, z = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    deltas = [_preset_delta(preset, r) for preset in presets]
    taus = [
        transfer_fn(
            Channel(SqueezedBellResource(delta=delta, theta=theta, r=r), gain=gain)
        ).fn(PhasePoint(w, z)).real
        for delta in deltas
    ]
    table = {
        "preset": [preset for preset in presets for _ in range(w.size)],
        "delta": np.repeat(deltas, w.size),
        "w": np.tile(w, len(presets)),
        "z": np.tile(z, len(presets)),
        "tau": np.concatenate(taus),
    }
    _emit(table, resolved)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--output", help="output file (default: stdout)")
    p.add_argument("--format", choices=_FORMATS, help="csv (default) or json")


def _add_resource(p: argparse.ArgumentParser, delta: bool = True):
    if delta:
        p.add_argument("--delta", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--r")
    p.add_argument("--gain", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvteleport",
        description="Observable statistics of continuous-variable teleportation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # No abbreviated options: "--delta" would otherwise pass for "--delta-grid".
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("moments", help="moment set of an input or teleported state")
    p.add_argument("--input")
    p.add_argument("--identity-channel", dest="identity_channel", action="store_true", default=None)
    _add_resource(p)
    _add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = add_parser("photon-stats", help="photon-number probabilities")
    p.add_argument("--input")
    p.add_argument("--N", type=int)
    p.add_argument("--identity-channel", dest="identity_channel", action="store_true", default=None)
    _add_resource(p)
    _add_common(p)
    p.set_defaults(func=_cmd_photon_stats)

    p = add_parser("compare", help="Delta sweep of distortion measures")
    p.add_argument("--input")
    p.add_argument("--N", type=int)
    p.add_argument("--delta-grid", dest="delta_grid")
    _add_resource(p, delta=False)
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = add_parser("optimize", help="minimize one objective over Delta")
    p.add_argument("--kind", choices=OBJECTIVE_KINDS)
    p.add_argument("--input")
    p.add_argument("--N", type=int)
    _add_resource(p, delta=False)
    _add_common(p)
    p.set_defaults(func=_cmd_optimize)

    p = add_parser("sweep", help="optimize objectives over an r grid")
    p.add_argument("--kinds")
    p.add_argument("--r-grid", dest="r_grid")
    p.add_argument("--input")
    p.add_argument("--N", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--gain", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = add_parser("transfer-surface", help="(w, z) grid of the transfer function")
    p.add_argument("--presets")
    p.add_argument("--grid")
    _add_resource(p, delta=False)
    _add_common(p)
    p.set_defaults(func=_cmd_transfer_surface)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        resolved = _resolve(args)
        fmt = resolved.get("format") or "csv"
        if fmt not in _FORMATS:
            raise InvalidArgumentError(f"unknown output format {fmt!r}")
        if not isinstance(resolved.get("output", ""), (str, type(None))):
            raise InvalidArgumentError(f"output must be a file path, got {resolved['output']!r}")
        args.func(resolved)
        return 0
    except (CVTeleportError, ValueError, OSError, KeyError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
