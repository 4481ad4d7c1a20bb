"""Outside-in span tracer for the specmult layers.

The library carries no instrumentation, so the tracer wraps its public
calls from outside: every plain function a layer lists in ``__all__``,
plus the methods named in ``METHODS``.  A function is patched under every
name it is reachable by in the ``specmult`` modules, because ``specmult.cli``
imports names directly and sibling modules call one another through their
own globals.  Methods are patched on their class.

Spans are kept in memory as ``(name, start, end, parent, amount,
escaped)`` tuples, where ``amount`` holds per-call counters and
``escaped`` marks an exception that left the layer through this call.
Everything runs in one thread, so one stack gives each span its parent.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("spectral", "ouhermite", "multipliers", "products", "dyadic", "cli")


# A counter maps (signature, args, kwargs, result) of one call to a tuple of
# counts; the counts of a name are summed element-wise.


def _grid_points(signature, args, kwargs, result) -> tuple:
    """Tensor grid size of one Marcinkiewicz seminorm: (n_radii * n_gl)^d."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    return ((len(a["dyadic"].radii()) * a["n_gl"]) ** a["m"].arity,)


def _points(signature, args, kwargs, result) -> tuple:
    """Spectral points evaluated: one per entry of the returned array."""
    return (result.size,)


def _filtered(signature, args, kwargs, result) -> tuple:
    """(samples filtered out, samples drawn)."""
    return (result.n_filtered, result.n_filtered + result.n_used)


# functions whose spans carry counters: qualified name -> counter
COUNTERS = {
    "multipliers.marcinkiewicz_seminorm": _grid_points,
    "products.cz_growth_check": _filtered,
    "products.cz_smooth_check": _filtered,
}

# (layer, class, method, counter) traced in addition to the public functions
METHODS = (
    ("spectral", "MultiplierSpec", "__call__", _points),
    ("spectral", "SpectralSystem", "basis_matrix", None),
    ("spectral", "SpectralSystem", "random_coefficients", None),
    ("spectral", "GridFunction", "norm_lp", None),
    ("dyadic", "CZBad", "expand", None),
    ("dyadic", "CZResult", "bad_sum", None),
)


class Tracer:
    """Patches the layers on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        layer = name.split(".", 1)[0]
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_layer = stack[-1] if stack else (-1, "")
            idx = len(spans)
            spans.append(None)
            stack.append((idx, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, (), parent_layer != layer)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            amount = counter(signature, args, kwargs, result) if counter else ()
            spans[idx] = (name, start, end, parent, amount, False)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"specmult.{layer}") for layer in LAYERS}
        namespaces = [*modules.values(), importlib.import_module("specmult")]
        for layer, module in modules.items():
            for attr in module.__all__:
                original = getattr(module, attr)
                if not inspect.isfunction(original) or original.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, original, COUNTERS.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)
        for layer, cls_name, method, counter in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            self._patch(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original, counter))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span (name, start, end, parent), times from the first start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)


def summarize(spans: list, lo: int, hi: int) -> dict:
    """Per-name and per-layer totals of the spans with index in [lo, hi).

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent] += end - start
    by_name: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": ()})
    layers = {layer: {"self_s": 0.0, "errors": 0} for layer in LAYERS}
    seminorm_points = 0
    for idx in range(lo, hi):
        name, start, end, parent, amount, escaped = spans[idx]
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        self_s = end - start - child[idx]
        entry["self_s"] += self_s
        if amount:
            prev = entry["amount"] or (0,) * len(amount)
            entry["amount"] = tuple(a + b for a, b in zip(prev, amount))
        layer = name.split(".", 1)[0]
        layers[layer]["self_s"] += self_s
        layers[layer]["errors"] += int(escaped)
        if name == "spectral.MultiplierSpec.__call__" and amount:
            p = parent
            while p >= lo and spans[p][0] != "multipliers.marcinkiewicz_seminorm":
                p = spans[p][3]
            if p >= lo:
                seminorm_points += amount[0]
    return {"names": dict(by_name), "layers": layers, "seminorm_points": seminorm_points}
