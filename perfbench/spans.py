"""Span recorder for the traced benchmark run, applied from outside the package.

:meth:`Tracer.install` replaces every public function of each layer module
with a timing wrapper, on every module-level name that refers to it: the CLI
and the optimizer import their callees into their own namespaces, and a
wrapper on the defining module alone would miss those calls.  The
characteristic-function closures returned by ``teleport``, ``transfer_fn``
and ``input_charfn``, and the objective closures returned by
``objective_function``, are wrapped too.  :meth:`Tracer.uninstall` puts the
original objects back, so untraced passes run the package untouched.

Spans nest on a stack (the CLI runs one job at a time, ``--jobs`` is 1); a
span's self time is its duration minus the time its child spans cover.
Spans are aggregated by name as they close: calls, total and self seconds.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "cvteleport"
# phasespace and errors do no measurable work.
LAYERS = ("cli", "optimize", "photonstats", "numerics", "channel", "states", "moments")


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans as [name, child_s]
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` timed as span ``name``; ``before(parent, args)`` counts work,
        ``after(result)`` may replace the result."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(stack[-1][0] if stack else None, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                acc = spans.get(name)
                if acc is None:
                    acc = spans[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[1]
            return after(result) if after is not None else result

        return wrapper

    def _charfn(self, name, before=None):
        """``after`` hook wrapping the ``fn`` closure of a returned CharFn."""

        def after(cf):
            return dataclasses.replace(cf, fn=self.wrap(name, cf.fn, before))

        return after

    def _hooks(self) -> dict:
        counts = self.counts

        def point_kind(prefix, scalar_key):
            def before(parent, args, kwargs):
                p = args[0]
                if np.ndim(p.w):
                    counts[prefix + ".grid_calls"] += 1
                    counts[prefix + ".grid_points"] += np.size(p.w)
                else:
                    counts[prefix + scalar_key] += 1

            return before

        chi_out = self._charfn(
            "channel.chi_out", point_kind("channel.chi_out", ".scalar_calls")
        )
        tau = self._charfn("states.tau", point_kind("states.tau", ".point_calls"))

        def teleport_after(out):
            return dataclasses.replace(out, charfn=chi_out(out.charfn))

        def laguerre_before(parent, args, kwargs):
            n_max, u = args
            counts["numerics.laguerre_envelope_all.elements"] += (n_max + 1) * np.size(u)
            if parent == "photonstats.output_photon_probs":
                counts["photonstats.output_photon_probs.grid_nodes"] += np.size(u)

        def integrate_before(parent, args, kwargs):
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
            if cfg is None:
                cfg = sys.modules[PACKAGE + ".numerics"].QuadratureConfig()
            counts["numerics.integrate_plane.nodes"] += cfg.radial_nodes * cfg.angular_nodes

        def minimize_after(record):
            counts["optimize.minimize_delta.iterations"] += record.iterations
            return record

        def objective_after(f):
            return self.wrap("optimize.objective", f)

        return {
            "channel.teleport": (None, teleport_after),
            "states.transfer_fn": (None, tau),
            "states.input_charfn": (None, self._charfn("states.chi_in")),
            "numerics.laguerre_envelope_all": (laguerre_before, None),
            "numerics.integrate_plane": (integrate_before, None),
            "optimize.minimize_delta": (None, minimize_after),
            "optimize.objective_function": (None, objective_after),
        }

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every public function of every layer module, wherever it is named."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module(PACKAGE + ".cli")
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        hooks = self._hooks()
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, *hooks.get(name, (None, None)))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def flat(self) -> dict:
        """Every recorded value by metric name, totals over all traced passes."""
        out = dict(self.counts)
        for name, (calls, total, own) in self.spans.items():
            out[name + ".calls"] = calls
            out[name + ".time_s"] = total
            out[name + ".self_s"] = own
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                acc[2] for name, acc in self.spans.items() if name.startswith(layer + ".")
            )
        out["optimize.objective.evals"] = out.get("optimize.objective.calls", 0)
        return out
