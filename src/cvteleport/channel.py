"""Teleportation output states.

The whole channel model is one product:

``chi_out(xi) = chi_AB(g conj(xi); xi) * chi_in(g xi)``

i.e. the transfer function of the resource times the input characteristic
function with the gain folded into its argument.  An output is that product's
two factors, ``(input, channel)``: every observable is computed from their
closed forms, and no production path evaluates ``chi_out`` at points (the
pointwise closure is a test oracle, ``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import Channel, InputState, state_label, transfer_label


@dataclass(frozen=True)
class OutputState:
    """Teleportation output: the input state and the channel it went through."""

    input: InputState
    channel: Channel

    @property
    def label(self) -> str:
        return f"out[{state_label(self.input)} | {transfer_label(self.channel)}]"


# ``teleport(input_state, ch)`` is the output of teleporting ``input_state``
# through ``ch``: the constructor itself, under the verb.  It stays a class, not
# a function: the benchmark's tracer (perfbench/spans.py) wraps a function
# ``channel.teleport`` and reads the old pointwise closure off its result.
teleport = OutputState
