"""How much slower the machine runs now than when it is not shared.

The benchmark runs on small VMs whose host is shared with other tenants.
Their load slows every instruction of ours, by up to 1.7x for seconds to
minutes at a time, without showing as steal time, so the same job's wall
time and CPU time both drift with it.  A fixed reference loop slows down
with them.  ``Calibration.time_job`` runs that loop right before and right
after a job, for a share of the job's time, and divides the loop's mean
time by ``REFERENCE_UNIT_S``, its time on an idle machine; the job's time
divided by that slowdown is what the job would take on the idle machine.

The loop mixes the kinds of work the workloads do: interpreter arithmetic,
float formatting (the CSV writers), and numpy element-wise kernels and a
small matmul (the quadrature).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The loop's time on an idle 2-vCPU x86-64 VM (Intel Xeon, Python 3.11,
# numpy 2.4 with single-threaded OpenBLAS); only its constancy matters.
REFERENCE_UNIT_S = 0.6e-3
# Share of each job's time spent running the loop around it, and the fewest
# units run on either side of a job.
CALIBRATION_SHARE = 0.1
MIN_UNITS = 8

_X = np.linspace(-2.0, 2.0, 4096)
_M = np.outer(_X[:48], _X[::-1][:48]) / 4.0


def reference_unit() -> float:
    """Seconds taken by one fixed unit of work."""
    t0 = perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    text = ",".join(f"{v:.17g}" for v in _X[:128])
    y = np.exp(-_X * _X) * np.cos(3.0 * _X)
    acc += float(y.sum()) + len(text)
    m = _M
    for _ in range(8):
        m = m @ _M
        m /= np.abs(m).max()
    if acc != acc:  # keeps the work from being optimized away; never true
        raise ArithmeticError("non-finite reference loop")
    return perf_counter() - t0


class Calibration:
    """Measures the slowdown around each job; keeps every unit time for reporting.

    ``expected`` maps a job id to a typical time of that job (from a warm-up
    pass); it sizes the window before the job.
    """

    def __init__(self, expected: dict):
        self.expected = expected
        self.units = 0
        self.unit_seconds = 0.0

    def window(self, seconds: float) -> float:
        """Run the loop for half the share of ``seconds`` (``MIN_UNITS`` times
        at least); its mean unit time over the reference."""
        end = perf_counter() + 0.5 * CALIBRATION_SHARE * seconds
        times = [reference_unit() for _ in range(MIN_UNITS)]
        while perf_counter() < end:
            times.append(reference_unit())
        self.units += len(times)
        self.unit_seconds += sum(times)
        return sum(times) / len(times) / REFERENCE_UNIT_S

    def time_job(self, key, job):
        """Run ``job()``, which returns ``(seconds, ...)``, between two windows;
        returns its result and the mean slowdown of the two."""
        before = self.window(self.expected[key])
        result = job()
        return result, (before + self.window(result[0])) / 2

    def mean_slowdown(self) -> float:
        return self.unit_seconds / max(self.units, 1) / REFERENCE_UNIT_S
