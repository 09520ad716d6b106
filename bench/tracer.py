"""In-memory span tracer that wraps wallcross public entry points from outside.

A function imported by name into other modules (``from .lattice import
cone_enumerate``) has one binding per importing module, so patching only
its home module would miss every call made through the other bindings.
``Tracer.install`` therefore replaces the original object wherever a
``wallcross`` module namespace holds it, and replaces methods on their class.
``uninstall`` puts every original back.

Each wrapped call records one span: name, start, end, parent span and the
benchmark op it belongs to.  A span's self time is its duration minus the
time its child spans cover.  The wrapper's own bookkeeping (including the
size counts below) is charged to neither the child nor the parent, so it
shows only as the traced/untraced difference of a whole pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# (metric prefix, module, class or None, attribute)
TRACED = (
    ("scenario.parse_scenario", "wallcross.scenario", None, "parse_scenario"),
    ("lattice.cone_enumerate", "wallcross.lattice", None, "cone_enumerate"),
    ("lattice.wall_first_type", "wallcross.lattice", None, "wall_first_type"),
    ("algebra.build", "wallcross.algebra", "PbwAlgebra", "__init__"),
    ("algebra.ray_product", "wallcross.algebra", "PbwAlgebra", "ray_product"),
    ("algebra.factorize", "wallcross.algebra", "PbwAlgebra", "factorize"),
    ("algebra.convert", "wallcross.algebra", "PbwAlgebra", "convert"),
    ("algebra.normal_form", "wallcross.algebra", "PbwAlgebra", "normal_form"),
    ("algebra.multiply", "wallcross.algebra", "PbwAlgebra", "multiply"),
    ("refinement.twist_spectrum", "wallcross.refinement", None, "twist_spectrum"),
    ("refinement.to_twisted", "wallcross.refinement", None, "to_twisted"),
    ("multidisk.multilink_total", "wallcross.multidisk", None, "multilink_total"),
    ("multidisk.enumerate_forests", "wallcross.multidisk", None, "enumerate_forests"),
    ("multidisk.crossing_rewrite", "wallcross.multidisk", None, "crossing_rewrite"),
    ("engine.structure", "wallcross.engine", "StabilityStructure", "__init__"),
    ("engine.detect_walls", "wallcross.engine", None, "detect_walls"),
    ("engine.transport_spectrum", "wallcross.engine", None, "transport_spectrum"),
    ("engine.check_variation", "wallcross.engine", None, "check_variation"),
    ("cli.run", "wallcross.cli", None, "run"),
)

# Counted but not spanned: called thousands of times per chain, and its
# time belongs to multilink_total's self time anyway.
COUNTED_ONLY = (("multidisk.multilink_forest", "wallcross.multidisk", None, "multilink_forest"),)

SIZE_COUNTS = (
    "lattice.cone_members",
    "lattice.scan_points",
    "algebra.table_entries",
    "algebra.product_words",
    "algebra.convert_words",
    "engine.wall_events",
    "engine.transports",
    "multidisk.forests",
)


def _arg(fn, name):
    """Accessor for one named argument of fn, however it was passed."""
    sig = inspect.signature(fn)
    index = list(sig.parameters).index(name)

    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[index]

    return get


def _size_hooks(originals):
    """Per traced name, a function (counts, args, kwargs, result) -> None."""
    cone = originals["lattice.cone_enumerate"]
    cone_lattice, cone_trunc = _arg(cone, "lattice"), _arg(cone, "trunc")
    convert_element = _arg(originals["algebra.convert"], "element")

    def cone_enumerate(counts, args, kwargs, result):
        counts["lattice.cone_members"] += len(result)
        box = cone_trunc(args, kwargs).scan_box
        counts["lattice.scan_points"] += (2 * box + 1) ** cone_lattice(args, kwargs).rank

    def build(counts, args, kwargs, result):
        counts["algebra.table_entries"] += len(args[0].members) ** 2

    def ray_product(counts, args, kwargs, result):
        counts["algebra.product_words"] += len(result.terms())

    def convert(counts, args, kwargs, result):
        counts["algebra.convert_words"] += len(convert_element(args, kwargs).terms())

    def detect_walls(counts, args, kwargs, result):
        counts["engine.wall_events"] += len(result)

    def transport_spectrum(counts, args, kwargs, result):
        counts["engine.transports"] += 1

    def enumerate_forests(counts, args, kwargs, result):
        counts["multidisk.forests"] += len(result)

    def multilink_forest(counts, args, kwargs, result):
        counts["multidisk.forest_values"] += 1
        counts["multidisk.nonzero_forest_values"] += result != 0

    return {
        "lattice.cone_enumerate": cone_enumerate,
        "algebra.build": build,
        "algebra.ray_product": ray_product,
        "algebra.convert": convert,
        "engine.detect_walls": detect_walls,
        "engine.transport_spectrum": transport_spectrum,
        "multidisk.enumerate_forests": enumerate_forests,
        "multidisk.multilink_forest": multilink_forest,
    }


def _resolve(module, cls, attr):
    owner = sys.modules[module]
    if cls is not None:
        owner = getattr(owner, cls)
        return owner, owner.__dict__[attr]
    return owner, getattr(owner, attr)


class Tracer:
    """Spans and counts for the TRACED functions, recorded in memory."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, op id, child time]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    def _build_wrappers(self):
        originals = {}
        for name, module, cls, attr in TRACED + COUNTED_ONLY:
            originals[name] = _resolve(module, cls, attr)[1]
        hooks = _size_hooks(originals)
        for name, *_ in TRACED:
            self._wrappers[name] = self._span_wrapper(name, originals[name], hooks.get(name))
        for name, *_ in COUNTED_ONLY:
            self._wrappers[name] = self._count_wrapper(originals[name], hooks[name])

    def _span_wrapper(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent, self.op, 0.0]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[1], span[2] = start, perf_counter()
                    stack.pop()
                if hook is not None:
                    hook(counts, args, kwargs, result)
                return result
            finally:
                if parent >= 0:
                    spans[parent][5] += perf_counter() - entered

        return traced

    def _count_wrapper(self, fn, hook):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counts, args, kwargs, result)
            return result

        return counted

    def install(self) -> None:
        """Patch every binding of every traced function in loaded wallcross modules."""
        if not self._wrappers:
            self._build_wrappers()
        modules = [m for n, m in sys.modules.items() if n == "wallcross" or n.startswith("wallcross.")]
        for name, module, cls, attr in TRACED + COUNTED_ONLY:
            owner, original = _resolve(module, cls, attr)
            wrapper = self._wrappers[name]
            if cls is not None:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Inclusive seconds per function (outermost spans of each name) and
        seconds each function spent in each kind of direct child span."""
        inclusive: Counter = Counter()
        children: Counter = Counter()
        for name, start, end, parent, _op, _child in self.spans:
            if parent >= 0:
                children[f"{self.spans[parent][0]} > {name}"] += end - start
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return {"inclusive_s": dict(sorted(inclusive.items())), "child_s": dict(sorted(children.items()))}

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per traced function, then the size counts."""
        calls = Counter()
        self_s = Counter()
        for name, start, end, _parent, _op, child in self.spans:
            own = (end - start) - child
            if not 0.0 <= own <= end - start:
                raise ValueError(f"span {name} has self time {own} outside [0, {end - start}]")
            calls[name] += 1
            self_s[name] += own
        out: dict[str, float] = {}
        for name, *_ in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in SIZE_COUNTS:
            out[name] = self.counts[name]
        values = self.counts["multidisk.forest_values"]
        out["multidisk.useful_forest_ratio"] = (
            self.counts["multidisk.nonzero_forest_values"] / values if values else 0.0
        )
        return out
