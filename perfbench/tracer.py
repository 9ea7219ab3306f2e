"""Spans and counters recorded around calls into quadstop's modules.

`Tracer.wrap` replaces a module attribute that callers look up (for
example `quadstop.cli.solve_boundary`) by a wrapper that records a span
for each call and adds the call's work to counters.  Nothing inside the
package changes, and `restore` puts the original attributes back.

A span is [op, name, start, end, parent]: spans of one CLI operation
share `op`, and `parent` is the index of the enclosing span (-1 at the
top).  Calls made on other threads than the one that created the
tracer run untimed; they are counted in `trace.offthread_calls`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._patched = []
        self._owner = threading.get_ident()
        self._lock = threading.Lock()

    def wrap(self, module, attr, span=None, count=None):
        """Time calls to module.attr as `span`; count(args, kwargs) gives increments."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._owner:
                with self._lock:
                    self.counts["trace.offthread_calls"] += 1
                return original(*args, **kwargs)
            if count is not None:
                self.counts.update(count(args, kwargs))
            if span is None:
                return original(*args, **kwargs)
            record = [self.op, span, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self, op=None):
        """({name: inclusive seconds}, {name: self seconds}) over the spans of `op` (all if None)."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, own = Counter(), Counter()
        for i, (span_op, name, start, end, _) in enumerate(self.spans):
            if op is None or span_op == op:
                incl[name] += end - start
                own[name] += end - start - child[i]
        return incl, own


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def instrument(tracer, quadstop):
    """Wrap the attributes through which the CLI reaches each layer.

    Layers are the modules cli, dataio, martin_solver, verification,
    kernels, specfun and problem.  `quadstop` is the imported package
    with its submodules loaded.
    """
    cli, ms, ver, ker = quadstop.cli, quadstop.martin_solver, quadstop.verification, quadstop.kernels
    tracer.wrap(cli, "main", "cli")
    for name in ("save_boundary_csv", "load_boundary_csv", "read_problem_csv",
                 "write_json_report"):
        tracer.wrap(cli, name, "dataio.io")
    tracer.wrap(cli, "solve_boundary", "martin_solver.solve_boundary")
    tracer.wrap(ms, "radial_moment", "martin_solver.radial_moment",
                lambda a, k: {"martin_solver.radial_moment_calls": 1,
                              "martin_solver.radial_moment_entries":
                                  np.broadcast(np.asarray(a[1]), np.asarray(a[2])).size})
    tracer.wrap(ms, "radial_moment_drho", None,
                lambda a, k: {"martin_solver.jacobian_evals": 1})
    tracer.wrap(ms, "lstsq", "martin_solver.lstsq",
                lambda a, k: {"martin_solver.lstsq_calls": 1,
                              "martin_solver.lstsq_flops":
                                  int(np.shape(a[0])[0]) * int(np.shape(a[0])[1]) ** 2})
    tracer.wrap(cli, "run_verification", "verification.run_verification")
    tracer.wrap(ver, "green_residual_normalized", "verification.residual",
                lambda a, k: {"verification.residual_points": 1})
    tracer.wrap(ver, "majorant_gap_scan", "verification.majorant",
                lambda a, k: {"verification.majorant_points":
                                  len(_arg(a, k, 2, "scan_grid"))})
    tracer.wrap(ver, "value", "verification.value")
    tracer.wrap(ver, "mc_value", "verification.mc",
                lambda a, k: {"verification.mc_paths": _arg(a, k, 3, "cfg").paths})
    tracer.wrap(ver, "class_membership_check", "problem.class_check")
    tracer.wrap(ver, "green_kernel_radial", "kernels.green_kernel_radial",
                lambda a, k: {"kernels.green_evals": int(np.size(_arg(a, k, 1, "s")))})
    tracer.wrap(ker, "bessel_K_scaled", "specfun.bessel_K_scaled",
                lambda a, k: {"specfun.bessel_evals": int(np.size(_arg(a, k, 1, "u")))})
