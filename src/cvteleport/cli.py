"""Command-line front end: state/channel descriptors in, tables out.

Subcommands::

    moments           observables of an input or teleported state
    photon-stats      photon-number probabilities (columns n, P_in, P_out)
    compare           Delta sweep of D_N / fidelity / Frobenius for one input
    optimize          minimize one objective over Delta at fixed r
    sweep             optimize a list of objectives over an r grid
    transfer-surface  (w, z) grid of the transfer function for named presets

State descriptor grammar: ``fock:N``, ``coherent:RE[,IM]``, ``sqvac:S``,
``mix:N1@P1,N2@P2,...``.  Grids are ``start:stop:count`` (``np.linspace``,
mirror-exact where ``stop == -start``, finite or an error) or comma lists.
Options may come from a JSON config file (``--config``); explicit flags win.
Outputs are deterministic: fixed column orders, shortest round-trip decimals,
and a provenance comment (tool version + config hash) on every CSV.

One option table (``_OPTIONS``, with ``_COMMANDS`` and ``_COMMON``) defines
the command line.  A subcommand followed by ``--flag=value``, ``--flag value``
and ``--switch`` tokens, spelled in full, is parsed straight from the table
into the namespace argparse would build; argparse is imported only for any
other command line, and prints help and every usage error.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from . import __version__
from .channel import teleport
from .errors import CVTeleportError, EvaluationError, InvalidArgumentError
from .moments import moment_set
from .optimize import (
    OBJECTIVE_KINDS,
    Objective,
    closed_form_delta,
    minimize_delta,
    sweep_columns,
)
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
    delta_weight_rows,
    state_from_descriptor,
    transfer_basis,
)

if TYPE_CHECKING:
    import argparse

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
    ``what`` names the option in the error of a value that is none of these.

    ``start:stop:count`` is ``np.linspace``, mirror-exact where ``stop == -start
    != 0``: the upper half is the exact negation of linspace's lower half and an
    odd grid's middle point is 0.0, so each value's mirror is on the grid.  Its
    start, stop and points must be finite."""
    if isinstance(text, (list, tuple)):
        return [as_real(x, f"{what} value") for x in text]
    if not isinstance(text, str):
        return [as_real(text, what)]
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            start, stop, count = float(start), float(stop), int(count)
            if count < 1:
                raise ValueError("grid count must be >= 1")
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise ValueError("start and stop must be finite")
            with np.errstate(all="ignore"):
                x = np.linspace(start, stop, count)
            if not np.isfinite(x).all():
                raise ValueError("grid points must be finite")
            if stop == -start != 0 and count >= 2:
                half = count // 2
                x[count - half:] = -x[half - 1::-1]
                if count % 2:
                    x[half] = 0.0
            return x.tolist()
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


# csv.writer's spelling of a float, never quoted.
_float_text = float.__repr__


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it among the fields of a row."""
    if isinstance(value, float):
        return _float_text(value)
    buf = io.StringIO()
    # A second, empty field keeps an empty first field from being quoted.
    csv.writer(buf, lineterminator="\n").writerow((value, None))
    return buf.getvalue()[:-2]


def _json_value(value):
    """``value`` for a JSON table: ``None`` (``null``) where the CSV spells ``nan``."""
    return None if isinstance(value, float) and math.isnan(value) else value


class Factor(NamedTuple):
    """A column given by its distinct values and, for each row, the position in
    ``values`` of the value the row takes (an integer array).

    The CSV writer spells each of ``values`` once; every other column is
    spelled row by row.  A command passes a ``Factor`` where it knows why its
    rows repeat.
    """

    values: Sequence
    index: np.ndarray

    def tolist(self) -> list:
        if isinstance(self.values, np.ndarray):
            return self.values[self.index].tolist()
        return [self.values[k] for k in self.index.tolist()]


# Lines joined into one string and written at a time.
_BLOCK_LINES = 8192


def _spelled(column, prefix: str, end: str, empty: str):
    """The column as ``(spellings, index)``: each value as a CSV field between
    ``prefix`` and ``end`` (an empty field spelled ``empty``), a float64
    array's by ``_float_text`` and any other's by ``_csv_field``.

    A ``Factor`` spells each of its distinct values once, into an object
    array, and its index gives each row's position there.  Any other column is
    spelled row by row, into a list, and its index is None.
    """
    values, index = column if isinstance(column, Factor) else (column, None)
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        spellings = [prefix + text + end for text in map(_float_text, values.tolist())]
    else:
        spellings = [prefix + (_csv_field(value) or empty) + end for value in values]
    return (spellings, None) if index is None else (np.array(spellings, dtype=object), index)


def _csv_blocks(table: dict):
    """The CSV text of ``table``: its header line, then one string per block of
    ``_BLOCK_LINES`` rows.

    A ``Factor`` of one value, other than the last column, is spelled once and
    that spelling is put in front of each spelling of the next column, so a row
    joins one piece fewer.
    """
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(table)
    yield header.getvalue()
    columns = list(table.values())
    n_rows = min(len(c.index if isinstance(c, Factor) else c) for c in columns)
    ends = [","] * (len(columns) - 1) + ["\n"]
    empty = '""' if len(columns) == 1 else ""  # csv.writer quotes a row that is one empty field
    spelled, prefix = [], ""
    for j, (column, end) in enumerate(zip(columns, ends)):
        spellings, index = _spelled(column, prefix, end, empty)
        if index is not None and len(spellings) == 1 and j < len(columns) - 1:
            prefix = spellings[0]
        else:
            spelled.append((spellings, index))
            prefix = ""
    grid = np.empty((min(n_rows, _BLOCK_LINES), len(spelled)), dtype=object)
    for start in range(0, n_rows, _BLOCK_LINES):
        block = grid[:n_rows - start]
        stop = start + len(block)
        for j, (spellings, index) in enumerate(spelled):
            block[:, j] = spellings[start:stop] if index is None else spellings[index[start:stop]]
        yield "".join(block.ravel().tolist())


def _emit(table: dict, resolved: dict):
    """Write a column table (name -> column, one entry per row) as CSV or JSON.

    A column is a sequence, a numpy array or a ``Factor``.  JSON is an array of
    row objects, with ``null`` for a NaN (the CSV's ``nan``, as in a flagged
    sweep cell); it holds no other number that is not finite.  The CSV is what
    ``csv.writer`` writes for the same rows.  Each value is spelled with the
    ``,`` or line end that follows it: a ``Factor`` once per distinct value,
    any other column once per row, so the writer dedups nothing a command
    did not ask for.  A ``Factor`` of one value that is not the last column
    is spelled once for the whole table, in front of each spelling of the
    next column.  A block of lines is then one grid of spellings, joined
    into one string and written at once, so the whole text of a large table
    is never held at once.  It goes to ``--output`` or to standard output.
    """
    if resolved.get("format") == "json":
        columns = list(table)
        values = [c.tolist() if isinstance(c, (np.ndarray, Factor)) else c for c in table.values()]
        payload = [dict(zip(columns, map(_json_value, row))) for row in zip(*values)]
        chunks = [json.dumps(payload, indent=2, default=float, allow_nan=False) + "\n"]
    else:
        provenance = f"# cvteleport {__version__} config={_config_hash(resolved)}\n"
        chunks = itertools.chain([provenance], _csv_blocks(table))
    out_path = resolved.get("output")
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


_NOT_CONFIG_KEYS = ("command", "config", "func")


def _check_config_keys(file_cfg: dict, args):
    """Reject config-file keys that are not option names of the subcommand, and
    null values: a key is given a value or left out."""
    known = set(vars(args)).difference(_NOT_CONFIG_KEYS)
    for key, value in file_cfg.items():
        if key in known:
            if value is None:
                raise InvalidArgumentError(f"config key {key!r} is null; give a value or leave it out")
            continue
        spelling = key.lstrip("-").replace("-", "_")
        hint = (
            f"did you mean {spelling!r}?" if spelling in known
            else f"expected one of {sorted(known)}"
        )
        raise InvalidArgumentError(f"unknown config key {key!r} for {args.command}; {hint}")


def _resolve(args) -> dict:
    """Merge config-file values under explicit flags; flags win."""
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
                raise InvalidArgumentError(f"config file {args.config!r} is not JSON: {exc}") from None
            except RecursionError:
                raise InvalidArgumentError(
                    f"config file {args.config!r} nests arrays or objects too deeply to parse"
                ) from None
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


def _flag(value, name: str) -> bool:
    """A switch; a config file must give a JSON boolean."""
    if isinstance(value, bool):
        return value
    raise InvalidArgumentError(f"{name} must be true or false, got {value!r}")


def _names(value, name: str) -> list:
    """A comma list or a list of strings, as a list."""
    if isinstance(value, str):
        return value.split(",")
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return value
    raise InvalidArgumentError(f"{name} must be a comma list or a list of names, got {value!r}")


def _single_r(value, name: str) -> float:
    grid = parse_grid(value, name)
    if len(grid) != 1:
        raise InvalidArgumentError("this command takes a single --r value")
    return grid[0]


def _finite_grid(value, name: str) -> list[float]:
    grid = parse_grid(value, name)
    if not all(map(math.isfinite, grid)):
        raise InvalidArgumentError(f"{name} values must be finite, got {value!r}")
    return grid


# The Delta value that realizes each figure preset inside the Bell-like family.
_SURFACE_PRESETS = {
    "tmsv": lambda r: 1.0,
    "photon_subtracted": lambda r: math.cos(math.atan(math.tanh(r))),
    # At r = 0, where 1 / tanh(r) divides by zero, its r -> 0 limit: Delta = 0, |1,1>.
    "photon_added": lambda r: math.cos(math.atan(1.0 / math.tanh(r))) if r else 0.0,
    "coherent_optimal": lambda r: closed_form_delta("fidelity_coherent", r),
}
_REQUIRED = object()

# Every option once: its argparse keywords, the check that turns a flag string or
# a config-file value into the command's value, and its value when absent.  The
# parser's own default stays None, so absent options stay out of the provenance hash.
_OPTIONS = {
    "input": ({}, lambda text, _: parse_state(text), _REQUIRED),
    "identity_channel": ({"action": "store_true"}, _flag, False),
    "delta": ({"type": float}, as_real, _REQUIRED),
    "theta": ({"type": float}, as_real, 0.0),
    "r": ({}, _single_r, _REQUIRED),
    "gain": ({"type": float}, as_real, 1.0),
    "N": ({"type": int}, as_int, 24),
    "delta_grid": ({}, parse_grid, _REQUIRED),
    "kind": ({"choices": OBJECTIVE_KINDS}, lambda kind, _: kind, _REQUIRED),
    "kinds": ({}, _names, _REQUIRED),
    "r_grid": ({}, parse_grid, _REQUIRED),
    "presets": ({}, _names, tuple(_SURFACE_PRESETS)),
    "grid": ({}, _finite_grid, parse_grid("-2:2:41")),
    # Read by _resolve and main, never by a handler.
    "config": ({"help": "JSON config file; explicit flags override it"}, None, None),
    "output": ({"help": "output file (default: stdout)"}, None, None),
    "format": ({"choices": _FORMATS, "help": "csv (default) or json"}, None, None),
}


def _flag_name(name: str) -> str:
    return "--" + name.replace("_", "-")


def _get(resolved: dict, name: str, optional: bool = False):
    """Option ``name`` through its check, or its table value when absent (None; an
    explicit zero is checked).  An absent required option raises ``missing
    --<flag>``, or is None where the command passes ``optional``."""
    _, check, absent = _OPTIONS[name]
    value = resolved.get(name)
    if value is not None:
        return check(value, name)
    if absent is not _REQUIRED:
        return absent
    if optional:
        return None
    raise InvalidArgumentError(f"missing {_flag_name(name)}")


def _channel_from(resolved: dict) -> Channel | None:
    """The resource channel, or None under ``--identity-channel``, which refuses
    the resource options it would ignore."""
    if _get(resolved, "identity_channel"):
        for name in ("delta", "theta", "r", "gain"):
            if resolved.get(name) is not None:
                raise InvalidArgumentError(f"--identity-channel takes no {_flag_name(name)}")
        return None
    res = SqueezedBellResource(
        delta=_get(resolved, "delta"), theta=_get(resolved, "theta"), r=_get(resolved, "r")
    )
    return Channel(res, gain=_get(resolved, "gain"))


def _cmd_moments(resolved):
    state = _get(resolved, "input")
    ch = _channel_from(resolved)
    ms = moment_set(state if ch is None else teleport(state, ch))
    _emit({k: [v] for k, v in ms.to_dict().items()}, resolved)


def _cmd_photon_stats(resolved):
    state = _get(resolved, "input")
    n_photons = _get(resolved, "N")
    p_in = input_distribution(state, n_photons)
    ch = _channel_from(resolved)
    if ch is None:
        p_out = p_in
    else:
        family = delta_family(state, ch.resource.r, ch.resource.theta, ch.gain, n_photons)
        p_out = family.photon_distribution(ch.resource.delta)
    _emit({"n": range(n_photons + 1), "P_in": p_in.probs, "P_out": p_out.probs}, resolved)


def _cmd_compare(resolved):
    state = _get(resolved, "input")
    deltas = _get(resolved, "delta_grid")
    if not deltas:
        raise InvalidArgumentError("empty --delta-grid")
    family = delta_family(state, _get(resolved, "r"), theta=_get(resolved, "theta"),
                          gain=_get(resolved, "gain"), N=_get(resolved, "N"))
    cols = family.measure_columns(deltas)
    _emit({
        "delta": np.array(deltas),  # float64, which the writer spells by one repr pass
        "d_n": cols["d_n"],
        "fidelity": cols["fidelity"],
        "one_minus_fidelity": cols["one_minus_fidelity"],
        "frobenius": cols["frobenius"],
    }, resolved)


def _cmd_optimize(resolved):
    rec = minimize_delta(Objective(
        kind=_get(resolved, "kind"), input=_get(resolved, "input", optional=True),
        r=_get(resolved, "r"), theta=_get(resolved, "theta"), gain=_get(resolved, "gain"),
        n_photons=_get(resolved, "N"),
    ))
    names = ("kind", "r", "delta_star", "objective_value", "iterations")
    _emit({name: [getattr(rec, name)] for name in names}, resolved)


def _cmd_sweep(resolved):
    kinds = _get(resolved, "kinds")
    for kind in kinds:
        if kind not in OBJECTIVE_KINDS:
            raise InvalidArgumentError(f"unknown objective kind {kind!r}")
    r_grid = _get(resolved, "r_grid")
    delta_star, objective_value, errors = sweep_columns(
        kinds, r_grid, input=_get(resolved, "input", optional=True),
        theta=_get(resolved, "theta"), gain=_get(resolved, "gain"), n_photons=_get(resolved, "N"),
    )
    # Rows run kind-major over the (kind, r) grid, so kind, r and (mostly "ok")
    # status repeat: each is spelled once per distinct value.
    row, n = np.arange(len(errors)), len(r_grid)
    status = ["ok" if error is None else f"error: {error}" for error in errors]
    position = {text: k for k, text in enumerate(dict.fromkeys(status))}
    status_index = np.array([position[text] for text in status], dtype=np.intp)
    _emit({
        "kind": Factor(kinds, row // n),
        "r": Factor([float(r) for r in r_grid], row % n),
        # float64, which the writer spells by one repr pass
        "delta_star": delta_star,
        "objective_value": objective_value,
        "status": Factor(list(position), status_index),
    }, resolved)


def _surface_values(ch: Channel, u: np.ndarray) -> np.ndarray:
    """The transfer function of ``ch`` at ``u = w^2 + z^2``: the
    :func:`~cvteleport.states.transfer_basis` terms times the Delta weights,
    summed in one fixed order, so a value does not depend on the grid."""
    d2, cross, comp = delta_weight_rows(ch.resource.delta, ch.resource.theta)[0]
    rate, terms, _ = transfer_basis(ch)
    one, mixed, paired = terms(u)
    # + 0.0 spells an underflowed product of a negative sum as 0.0, not -0.0.
    return np.exp(-rate * u) * (d2 * one + cross * mixed + comp * paired) + 0.0


def _cmd_transfer_surface(resolved):
    r, theta, gain = _get(resolved, "r"), _get(resolved, "theta"), _get(resolved, "gain")
    presets = _get(resolved, "presets")
    if not presets:
        raise InvalidArgumentError("empty --presets")
    axis = _get(resolved, "grid")
    if not axis:
        raise InvalidArgumentError("empty --grid")
    deltas = []
    for preset in presets:
        if preset not in _SURFACE_PRESETS:
            expected = tuple(_SURFACE_PRESETS)
            raise InvalidArgumentError(f"unknown preset {preset!r}; expected one of {expected}")
        deltas.append(_SURFACE_PRESETS[preset](r))
    # tau depends on (w, z) through u = w^2 + z^2 only, so each preset is
    # evaluated once per unordered pair of distinct squares.  (-x)^2 == x^2 and
    # fl(a + b) == fl(b + a), so a pair's u is bit for bit each of its cells'.
    with np.errstate(over="ignore", invalid="ignore"):  # w^2 + z^2 may overflow: see below
        squares, k = np.unique(np.multiply(axis, axis), return_inverse=True)
        low, high = np.triu_indices(len(squares))
        u = squares[low] + squares[high]
        tau = np.concatenate([
            _surface_values(Channel(SqueezedBellResource(delta, theta, r), gain), u)
            for delta in deltas
        ])
    # Rows run w-major, z-minor within each preset: row i * n + j of a preset is
    # (w, z) = (axis[i], axis[j]), and its value is that of pair cell[i * n + j].
    # Each array of positions takes the narrowest unsigned type that holds them,
    # so the per-row arrays of a large surface take a byte or two a row, not 8.
    m, n = len(squares), len(axis)
    pairs = np.empty((m, m), dtype=np.min_scalar_type(low.size))
    pairs[low, high] = pairs[high, low] = np.arange(low.size)
    cell = pairs[np.ix_(k, k)].ravel()
    if not np.isfinite(tau).all():
        # The first such cell in row order: preset-major, then w-major, z-minor.
        bad = ~np.isfinite(tau.reshape(len(deltas), -1)[:, cell])
        i = np.flatnonzero(bad)[0] % cell.size
        raise EvaluationError(
            f"transfer function not finite at (w, z) = ({axis[i // n]}, {axis[i % n]})"
        )
    # Each distinct bit pattern of tau is spelled once.
    bits, tau_index = np.unique(tau.view(np.int64), return_inverse=True)
    tau_index = tau_index.astype(np.min_scalar_type(bits.size)).reshape(len(presets), -1)[:, cell]
    preset_index = np.repeat(np.arange(len(presets), dtype=np.min_scalar_type(len(presets))), n * n)
    position = np.arange(n, dtype=np.min_scalar_type(n))
    _emit({
        "preset": Factor(presets, preset_index),
        "delta": Factor(deltas, preset_index),
        "w": Factor(axis, np.tile(np.repeat(position, n), len(presets))),
        "z": Factor(axis, np.tile(position, n * len(presets))),
        "tau": Factor(bits.view(np.float64), tau_index.ravel()),
    }, resolved)


# Every subcommand: its handler, its help text and its options besides _COMMON.
_COMMANDS = {
    "moments": (_cmd_moments, "moment set of an input or teleported state",
                ("input", "identity_channel", "delta", "theta", "r", "gain")),
    "photon-stats": (_cmd_photon_stats, "photon-number probabilities",
                     ("input", "N", "identity_channel", "delta", "theta", "r", "gain")),
    "compare": (_cmd_compare, "Delta sweep of distortion measures",
                ("input", "N", "delta_grid", "theta", "r", "gain")),
    "optimize": (_cmd_optimize, "minimize one objective over Delta",
                 ("kind", "input", "N", "theta", "r", "gain")),
    "sweep": (_cmd_sweep, "optimize objectives over an r grid",
              ("kinds", "r_grid", "input", "N", "theta", "gain")),
    "transfer-surface": (_cmd_transfer_surface, "(w, z) grid of the transfer function",
                         ("presets", "grid", "theta", "r", "gain")),
}
_COMMON = ("config", "output", "format")


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only here: a command line the option table parses never imports it

    parser = argparse.ArgumentParser(
        prog="cvteleport",
        description="Observable statistics of continuous-variable teleportation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, names) in _COMMANDS.items():
        # No abbreviated options: "--delta" would otherwise pass for "--delta-grid".
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name in names + _COMMON:
            p.add_argument(_flag_name(name), default=None, **_OPTIONS[name][0])
        p.set_defaults(func=handler)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: ``parse_args`` leaves it unchanged."""
    return build_parser()


def _table_args(argv: Sequence[str]):
    """The namespace ``build_parser().parse_args(argv)`` builds, read off
    ``_COMMANDS``, ``_OPTIONS`` and ``_COMMON``; None where ``argv`` takes a
    shape the table does not parse.

    ``argv[0]`` is a subcommand and every later token ``--<flag>=<value>``,
    the value verbatim, or ``--<flag>``, a switch's ``True`` or an option whose
    value is the next token, which must be nonempty and not start with ``-``.
    Each flag is spelled in full for one of the subcommand's options; the
    value goes through the option's ``type`` and must be one of its
    ``choices``; the last of a repeated option wins.  Every other shape is
    argparse's to parse or refuse (help, ``--``, abbreviations, negative
    numbers as separate values and every usage error).
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, names = _COMMANDS[argv[0]]
    names += _COMMON
    spelled = {_flag_name(name): name for name in names}
    values = dict.fromkeys(names)
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        name = spelled.get(flag)
        if name is None:
            return None
        keywords = _OPTIONS[name][0]
        if keywords.get("action") == "store_true":
            if equals:
                return None
            values[name] = True
            continue
        if not equals:
            value = next(tokens, "")
            if not value or value[0] == "-":
                return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        values[name] = value
    return SimpleNamespace(command=argv[0], **values, func=handler)


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` by default); return its exit status.

    The option table parses the command lines it can (:func:`_table_args`);
    argparse parses the rest, and prints help and every usage error."""
    if argv is None:
        argv = sys.argv[1:]
    args = _table_args(argv)
    if args is None:
        args = _shared_parser().parse_args(argv)
    try:
        resolved = _resolve(args)
        if resolved["format"] not in _FORMATS:
            raise InvalidArgumentError(f"unknown output format {resolved['format']!r}")
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
