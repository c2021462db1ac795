"""Span tracing from outside the program.

A Tracer wraps the public functions of each constel module (the layers)
and records one span per call: name, start, end, parent span and op id.
Spans stay in memory until the run ends.  Because constel modules bind each
other's functions with ``from .x import y``, a wrapper replaces the
function in every constel module namespace that holds it; otherwise calls
through the re-bound name would be missed.  Fork-pool workers inherit the
wrappers, but their spans stay in the worker and are lost, so worker time
shows inside the parent's scan span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import time
from pathlib import Path

# (layer, attribute path in the layer's module, metric name)
TARGETS = (
    ("arith", "factorize", "arith.factorize"),
    ("arith", "powerful_numbers", "arith.powerful_numbers"),
    ("arith", "is_n_powerful", "arith.is_n_powerful"),
    ("monoids", "LatticeMonoid.__post_init__", "monoids.LatticeMonoid"),
    ("monoids", "LatticeMonoid.member", "monoids.member"),
    ("monoids", "cone_coefficients", "monoids.cone_coefficients"),
    ("monoids", "min_multiple", "monoids.min_multiple"),
    ("monoids", "ray_restriction", "monoids.ray_restriction"),
    ("monoids", "gaps", "monoids.gaps"),
    ("firmaments", "from_text", "firmaments.from_text"),
    ("firmaments", "base_firmament", "firmaments.base_firmament"),
    ("firmaments", "multiplicity_at", "firmaments.multiplicity_at"),
    ("firmaments", "firm_integral_test", "firmaments.firm_integral_test"),
    ("firmaments", "morphism_check", "firmaments.morphism_check"),
    ("firmaments", "induced_membership", "firmaments.induced_membership"),
    ("curves", "classify", "curves.classify"),
    ("curves", "minimal_general_type_profiles", "curves.minimal_general_type_profiles"),
    ("softpoints", "enumerate_soft_points", "softpoints.enumerate_soft_points"),
    ("heights", "scan_abc", "heights.scan_abc"),
    ("heights", "scan_vojta_gap", "heights.scan_vojta_gap"),
    ("cli", "main", "cli.main"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class Tracer:
    """Records spans of the wrapped functions while installed.

    Each span is a list [parent id, name, op id, start, end]; its id is its
    index in ``spans``.  ``raised`` counts, per layer, exceptions that left
    the layer: raised by a wrapped function whose caller span belongs to
    another layer (or that has no caller span)."""

    def __init__(self):
        self.spans: list[list] = []
        self.raised = dict.fromkeys(LAYERS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        spans, stack, raised = self.spans, self._stack, self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [parent, name, self.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or not spans[parent][1].startswith(layer + "."):
                    raised[layer] += 1
                raise
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target, re-binding it wherever a constel module bound it."""
        for layer in LAYERS:
            importlib.import_module(f"constel.{layer}")
        modules = [m for n, m in sys.modules.items() if n == "constel" or n.startswith("constel.")]
        for layer, attr, name in TARGETS:
            owner = sys.modules[f"constel.{layer}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(name, original)
            self._set(owner, leaf, wrapper)
            if not path:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path: Path, op_names: list[str]) -> None:
        """Spans as gzipped TSV: id, parent, name, op, start, end (seconds
        relative to the first span)."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            out.write("# id\tparent\tname\top\tstart_s\tend_s\n")
            for i, (parent, name, op, start, end) in enumerate(self.spans):
                label = op_names[op] if 0 <= op < len(op_names) else "-"
                out.write(f"{i}\t{parent}\t{name}\t{label}\t{start - t0:.9f}\t{end - t0:.9f}\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for parent, _, _, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function calls and self time, per-layer self time and raised
    count, and the median member call in microseconds."""
    names = [name for _, _, name in TARGETS]
    calls = dict.fromkeys(names, 0)
    own = dict.fromkeys(names, 0.0)
    member_us = []
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        name = span[1]
        calls[name] += 1
        own[name] += self_s
        if name == "monoids.member":
            member_us.append((span[4] - span[3]) * 1e6)
    metrics: dict[str, float] = {}
    for name in names:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = own[name]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(own[n] for n in names if n.startswith(layer + "."))
        metrics[f"{layer}.raised"] = tracer.raised[layer]
    metrics["monoids.member.p50_us"] = statistics.median(member_us) if member_us else 0.0
    return metrics
