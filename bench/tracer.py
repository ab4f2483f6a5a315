"""Outside-in tracing of revolve's layers.

The tracer replaces, for the duration of a traced pass, the module
attributes through which one layer calls the next (``revolve.volume.
integrate``, ``revolve.monotone.scan_sign_changes`` and so on) with thin
wrappers, and puts the originals back on ``restore``.  The package's own
code is never edited.

* Calls at the ``volume``, ``monotone`` and ``numerics`` boundaries become
  spans ``(operation id, name, start, end, parent span)`` kept in memory.
* Per-evaluation and per-Newton-call work is too fine for spans; for it
  only the count, the total and the self time are kept.
* Wrapping ``differentiate`` marks derivative expressions, so the bound
  callables ``bind`` returns for them count as f' evaluations.

A layer's self time is its wrapped calls' duration minus the time spent in
wrapped calls nested inside them.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (metric group, span name) of the public volume functions, attributed as
# inclusive time of the outermost call in each group
_VOLUME_GROUPS = {
    "cross_validate": "volume.cross_validate",
    "shell_volume": "volume.shell",
    "piecewise_signed_sum": "volume.piecewise",
    "theorem1_y": "volume.theorem",
    "theorem1_x": "volume.theorem",
    "theorem2_y": "volume.theorem",
    "theorem3_x": "volume.theorem",
    "disk_volume_y_axis": "volume.disk",
    "disk_volume_x_axis": "volume.disk",
}


class Tracer:
    """Counters, self times and spans of one traced pass."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.spans: list[tuple | None] = []
        self.op_id: int | None = None
        # frames of the open wrapped calls: [nested seconds, span index]
        self._stack: list[list] = [[0.0, None]]
        self._depth: dict[str, int] = defaultdict(int)
        self._derivatives: dict[int, object] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, volume, monotone, cli) -> None:
        """Wrap the attributes each layer calls through."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module in (volume, monotone):
            self._patch(module, "bind", self._bind)
            self._patch(module, "differentiate", self._differentiate)
            self._patch(module, "partition", self._span("monotone.partition"))
            self._patch(module, "critical_points",
                        self._span("monotone.critical_points"))
        self._patch(volume, "integrate",
                    self._span("numerics.integrate", on_result=self._quadrature))
        self._patch(volume, "newton_solve", self._newton)
        self._patch(volume, "validate_revolution_hypotheses",
                    self._span("monotone.validate", evals="monotone.validate.evals"))
        for attr, name in _VOLUME_GROUPS.items():
            self._patch(volume, attr, self._span(name, group=name + ".s"))
        self._patch(volume, "solve", self._span("volume.solve"))
        self._patch(monotone, "scan_sign_changes",
                    self._span("numerics.scan", evals="numerics.scan.points"))
        self._patch(monotone, "find_root_bracketed",
                    self._span("numerics.brent", on_result=self._brent))
        # the CLI imported these names before the tracer existed
        self._patch(cli, "solve", self._span("volume.solve"))
        self._patch(cli, "partition", self._span("monotone.partition"))
        self._patch(cli, "validate_revolution_hypotheses",
                    self._span("monotone.validate", evals="monotone.validate.evals"))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, group: str | None = None,
              evals: str | None = None, on_result=None):
        counts, seconds, stack, depth = (self.counts, self.seconds,
                                         self._stack, self._depth)
        perf = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                self.spans.append(None)
                frame = [0.0, index]
                parent = stack[-1][1]
                stack.append(frame)
                evals_before = counts["expr.evals"]
                if group:
                    depth[group] += 1
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf()
                    stack.pop()
                    elapsed = end - start
                    stack[-1][0] += elapsed
                    self.spans[index] = (self.op_id, name, start, end, parent)
                    counts[name + ".calls"] += 1
                    seconds[name + ".self_s"] += elapsed - frame[0]
                    if group:
                        depth[group] -= 1
                        if depth[group] == 0:
                            seconds[group] += elapsed
                    if evals:
                        counts[evals] += counts["expr.evals"] - evals_before
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        return make

    def _quadrature(self, result) -> None:
        # one Gauss-Kronrod panel evaluates the integrand 15 times
        self.counts["numerics.integrate.panels"] += result.evaluations // 15
        if not result.converged:
            self.counts["numerics.integrate.unconverged"] += 1

    def _brent(self, result) -> None:
        self.counts["numerics.brent.iterations"] += result.iterations

    def _newton(self, fn):
        counts, seconds, stack = self.counts, self.seconds, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            evals_before = counts["expr.evals"]
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                stack[-1][0] += elapsed
                counts["numerics.newton.calls"] += 1
                counts["numerics.newton.evals"] += counts["expr.evals"] - evals_before
                seconds["numerics.newton.self_s"] += elapsed - frame[0]
            counts["numerics.newton.iterations"] += result.iterations
            if result.method_used == "newton-with-bisection-fallback":
                counts["numerics.newton.fallbacks"] += 1
            return result
        return wrapper

    def _differentiate(self, fn):
        def wrapper(expression, var):
            result = fn(expression, var)
            self._derivatives[id(result)] = result  # keeps the id unique
            return result
        return wrapper

    def _bind(self, fn):
        counts, seconds, stack = self.counts, self.seconds, self._stack
        perf = time.perf_counter

        def wrapper(expression, variable, parameters=None):
            counts["expr.bind_calls"] += 1
            bound = fn(expression, variable, parameters)
            kind = ("expr.deriv_evals" if id(expression) in self._derivatives
                    else "expr.f_evals")

            def counted(x):
                start = perf()
                value = bound(x)
                elapsed = perf() - start
                stack[-1][0] += elapsed
                counts["expr.evals"] += 1
                counts[kind] += 1
                seconds["expr.eval_self_s"] += elapsed
                return value
            return counted
        return wrapper
