"""Layer spans recorded from outside the library.

The tracer wraps the public functions of the pipeline modules, and a few
methods on their classes, at every ``inputdp.*`` module binding that
holds them, so ``from .x import y`` sites see the wrapper too.  Each call
becomes a span (name, start, end, parent, job id) kept in memory; the
library itself is never edited.  Removing the tracer restores every
binding to the original object.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Module names under ``inputdp`` whose public functions are wrapped; a
# span's layer is the module that defines the function.
LAYERS = ("harness", "calibration", "loss", "perturb", "solver", "analysis", "cli", "core")

# Methods wrapped on their class: (layer, class name, method name).
METHODS = (
    ("loss", "LossSpec", "encode_dataset"),
    ("perturb", "RngStream", "generator"),
    ("solver", "QuadraticProgram", "__post_init__"),
    ("core", "Dataset", "__post_init__"),
)


def _rows(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["dataset"])


def _contributors(args, kwargs, result):
    return len(args[0] if args else kwargs["dataset"])


def _path(args, kwargs, result):
    return str(args[0] if args else kwargs["path"])


def _solve(args, kwargs, result):
    return getattr(result, "iterations", None), getattr(result, "converged", None)


def _checks(args, kwargs, result):
    return len(result), sum(1 for check in result if not check["pass"])


# Per-span facts taken from a call's arguments or result, after the span
# has ended, so the probe's own time is not charged to the span.
PROBES = {
    "loss.LossSpec.encode_dataset": _rows,
    "perturb.perturb_dataset": _contributors,
    "perturb.write_perturbed_csv": _path,
    "perturb.read_perturbed_csv": _path,
    "solver.minimize_ball_constrained": _solve,
    "analysis.run_check_suite": _checks,
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    ``spans`` holds one list per call: [name, start, end, parent index
    (-1 at top level), job id, probe value].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.job = 0
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function and the listed methods."""
        modules = [m for n, m in list(sys.modules.items()) if n == "inputdp" or n.startswith("inputdp.")]
        for layer in LAYERS:
            module = sys.modules.get(f"inputdp.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                self.wrapped.add(f"{layer}.{attr}")
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, key, fn))
                            setattr(holder, key, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(f"inputdp.{layer}"), cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if fn is None:
                continue
            name = f"{layer}.{cls_name}.{method}"
            self._restore.append((cls, method, fn))
            setattr(cls, method, self._wrap(name, fn))
            self.wrapped.add(name)

    def remove(self) -> None:
        """Put every original function back where it was found."""
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def write(self, path) -> None:
        """Write all spans as CSV: name,start,end,parent,job."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, start, end, parent, job, _ in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{job}\n")


def span_times(spans: list[list], offset: int) -> tuple[list[float], list[float]]:
    """Self time (duration minus all children) and same-layer time
    (duration minus children in other layers) of each span in a
    contiguous run of spans that starts at index ``offset``."""
    child_all = [0.0] * len(spans)
    child_other = [0.0] * len(spans)
    for span in spans:
        parent = span[3] - offset
        if parent < 0:
            continue
        duration = span[2] - span[1]
        child_all[parent] += duration
        if span[0].split(".", 1)[0] != spans[parent][0].split(".", 1)[0]:
            child_other[parent] += duration
    self_time = [s[2] - s[1] - c for s, c in zip(spans, child_all)]
    layer_time = [s[2] - s[1] - c for s, c in zip(spans, child_other)]
    return self_time, layer_time
