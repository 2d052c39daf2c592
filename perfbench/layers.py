"""Spans around the calls into each sdflow layer, recorded from outside the program.

A wrap point is a name that a caller looks up at call time: a module
attribute (``from .x import f`` binds a copy in the calling module, so
that copy is the one to replace) or a method on a class.  The wrapper
records one span per call, with the span that was open when it started
as its parent, and keeps every span in memory until the process ends.

Private helpers are not wrapped: the layer boundaries are the public
functions, and helpers are expected to be renamed or removed.
"""

from __future__ import annotations

import importlib
import inspect
import time

# (span name, module, attribute path).  The span name is "<layer>.<call>",
# where the layer is the sdflow module that owns the function.
WRAP_POINTS = [
    ("soliton.run_sweep", "sdflow.cli", "run_sweep"),
    ("soliton.shoot", "sdflow.cli", "shoot_bidirectional"),
    ("soliton.shoot", "sdflow.soliton", "shoot_bidirectional"),
    ("soliton.integrate", "sdflow.soliton", "integrate"),
    ("soliton.to_csv", "sdflow.soliton", "Trajectory.to_csv"),
    ("soliton.from_csv", "sdflow.soliton", "Trajectory.from_csv"),
    ("identities.check", "sdflow.cli", "convexity_residual_q"),
    ("identities.check", "sdflow.cli", "convexity_residual_m"),
    ("identities.check", "sdflow.cli", "tangential_identity_residual"),
    ("identities.check", "sdflow.cli", "q_upper_bound_residual"),
    ("identities.check", "sdflow.cli", "steady_first_integral_residuals"),
    ("graphpde.evolve", "sdflow.cli", "evolve"),
    ("graphpde.step", "sdflow.graphpde", "step"),
    ("geometry.operator", "sdflow.graphpde", "surface_diffusion_operator"),
    ("geometry.field_to_csv", "sdflow.geometry", "GraphField.to_csv"),
    ("curveflow.flow", "sdflow.curveflow", "flow"),
    ("curveflow.resample", "sdflow.curveflow", "resample_uniform"),
    ("curveflow.diameter", "sdflow.curveflow", "ClosedCurve.diameter"),
    ("curveflow.curvature", "sdflow.curveflow", "curvature_profile"),
]


class Tracer:
    """In-memory span list: ``[name, parent index or -1, start, end]``."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self, points=WRAP_POINTS):
        """Replace every wrap point that exists; return the ones that do not."""
        missing = []
        for name, module_name, path in points:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            current = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if current is None:
                missing.append(f"{module_name}.{path}")
            elif isinstance(current, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(name, current.__func__)))
            else:
                setattr(owner, attr, self.wrap(name, current))
        return missing


def durations(processes):
    """Per span name: the list of durations and the list of self times.

    ``processes`` holds one span list per process (parents are indices
    into their own process's list).  A span's self time is its duration
    minus the durations of its child spans; calls in one thread nest, so
    children never overlap.
    """
    total, self_time = {}, {}
    for spans in processes:
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        for i, (name, parent, start, end) in enumerate(spans):
            if end is None:  # the call raised out of the process
                continue
            total.setdefault(name, []).append(end - start)
            self_time.setdefault(name, []).append(end - start - child_time[i])
    return total, self_time
