"""Timing in reference-machine seconds.

The benchmark's host shares its cores with other tenants, and its speed
drifts: one `solve()` of x/pi + sin(x) took from 216 ms to 427 ms within
minutes on the 2-vCPU Xeon (2.0 GHz, Python 3.11.7) the benchmark was
written on, with no change in CPU time versus wall time and no steal.
Averaging over a longer run does not remove a drift that lasts minutes.

So every timed item is bracketed by a fixed calibration kernel: a small
tree-walking evaluation in pure Python that shares nothing with revolve,
so no change to revolve can speed it up or slow it down.  An item's time
is scaled by ``REFERENCE_S / (mean of the calibrations before and after
it)``, which converts it to seconds on the host at its reference speed.
The raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import math
import time

# A round value near the kernel's median time on the host described above.
REFERENCE_S = 3.0e-3

_EXPRESSION = ("+", ("*", ("var",), ("const", 0.3183098861837907)),
               ("sin", ("-", ("var",), ("*", ("const", 0.5), ("var",)))))
_POINTS = 2500


def _evaluate(node: tuple, x: float) -> float:
    op = node[0]
    if op == "var":
        return x
    if op == "const":
        return node[1]
    if op == "sin":
        return math.sin(_evaluate(node[1], x))
    left = _evaluate(node[1], x)
    right = _evaluate(node[2], x)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    return left * right


def kernel() -> float:
    """Run the calibration kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    total = 0.0
    for i in range(_POINTS):
        total += _evaluate(_EXPRESSION, i * 1e-3)
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise ArithmeticError("calibration kernel lost its value")
    return elapsed


class Clock:
    """Scales the duration of consecutive timed items to reference speed.

    Call :meth:`scale` right after each timed item; the calibration it runs
    also serves as the "before" calibration of the next item.
    """

    def __init__(self):
        for _ in range(3):  # warm the kernel's code paths
            kernel()
        self._last = kernel()
        self.samples: list[float] = []

    def restart(self) -> None:
        """Re-calibrate before an item that does not follow another."""
        self._last = kernel()

    def scale(self) -> float:
        now = kernel()
        self.samples.append(now)
        factor = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        return factor
