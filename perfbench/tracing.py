"""Span tracing of fairchores' public functions, from outside the package.

A ``Tracer`` wraps each target function and, while installed, rebinds every
name that refers to the original across the loaded ``fairchores.*`` modules:
``from .core import normalize`` copies the binding, so patching only the
defining module would miss calls made through the copies.  Each call records
one span (name, start, end, parent span) in memory; ``self_s`` is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import sys
import time
from collections import Counter

# (layer, module, attribute path); the metric prefix is "<layer>.<function>"
TARGETS = (
    ("core", "fairchores.core", "normalize"),
    ("core", "fairchores.core", "parse_instance_csv"),
    ("core", "fairchores.core", "order_vector"),
    ("core", "fairchores.core", "DisutilityVector.__post_init__"),
    ("shares", "fairchores.shares", "hill_share"),
    ("shares", "fairchores.shares", "mms_lower_bound"),
    ("shares", "fairchores.shares", "guarantee"),
    ("shares", "fairchores.shares", "witness_upper"),
    ("shares", "fairchores.shares", "witness_lower"),
    ("mms", "fairchores.mms", "minmax_partition"),
    ("allocator", "fairchores.allocator", "allocate"),
    ("allocator", "fairchores.allocator", "reduce_to_ordered"),
    ("allocator", "fairchores.allocator", "moving_knife"),
    ("allocator", "fairchores.allocator", "lift_allocation"),
    ("experiments", "fairchores.experiments", "gen_synthetic"),
    ("experiments", "fairchores.experiments", "instance_ratio"),
    ("experiments", "fairchores.experiments", "curve_samples"),
    ("cli", "fairchores.cli", "main"),
)

# spans whose inclusive durations are also summarised as p50/max
DURATION_SUMMARY = ("mms.minmax_partition",)


def span_names() -> list[str]:
    return [f"{layer}.{attr}" for layer, _, attr in TARGETS]


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.names = span_names()
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.errors: Counter = Counter()  # (span name, exception class name)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, sid: int, fn):
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, errors, label = self._stack, self.errors, self.names[sid]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[(label, type(exc).__name__)] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "fairchores" or name.startswith("fairchores.")]
        for sid, (_, modname, attr) in enumerate(TARGETS):
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(sid, original)
            if path:  # a method: one binding, on its class
                self._rebind(owner, leaf, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, original, wrapper)
        return self

    def _rebind(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s, and the inclusive durations."""
        covered = [0.0] * len(self.span_name)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                covered[par] += self.end[idx] - self.start[idx]
        out = {name: {"calls": 0, "self_s": 0.0, "durations": []} for name in self.names}
        for idx, sid in enumerate(self.span_name):
            rec = out[self.names[sid]]
            dur = self.end[idx] - self.start[idx]
            rec["calls"] += 1
            rec["self_s"] += dur - covered[idx]
            rec["durations"].append(dur)
        return out

    def write_csv(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "parent", "name", "start_s", "end_s"))
            for idx, sid in enumerate(self.span_name):
                w.writerow((idx, self.parent[idx], self.names[sid],
                            f"{self.start[idx] - t0:.9f}", f"{self.end[idx] - t0:.9f}"))


def layer_metrics(summary: dict[str, dict], errors: Counter) -> dict[str, float]:
    """Flatten a summary into "<layer>.<function>.calls/.self_s" metrics."""
    out: dict[str, float] = {}
    for name, rec in summary.items():
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.self_s"] = rec["self_s"]
        if name in DURATION_SUMMARY:
            durs = rec["durations"]
            out[f"{name}.p50_ms"] = 1e3 * statistics.median(durs) if durs else 0.0
            out[f"{name}.max_ms"] = 1e3 * max(durs) if durs else 0.0
    out["mms.search_limit_errors"] = errors[("mms.minmax_partition", "SearchLimitError")]
    return out
