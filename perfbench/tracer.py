"""Layer tracing for the benchmark's traced pass, installed from outside src/.

`install(tracer)` wraps every public function of each jsrkit layer module and
rebinds the wrapper in every jsrkit module namespace that holds the original,
including aliased imports such as `from .bounds import bounds as jsr_bounds`.
Calls within one layer do not open a new span, so a layer's self time counts
nested calls once: it is its span time minus the time of child spans in other
layers.  Functions that return an iterator (enumerate_words,
enumerate_necklaces) are timed on each `next`, not on the call that creates
the iterator.

Spans are kept in compact in-memory arrays and written out once, by
`Tracer.save`, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from collections.abc import Iterator
from time import perf_counter

import numpy as np

LAYERS = (
    "words",
    "tuples",
    "linalg",
    "bounds",
    "structure",
    "norms",
    "finiteness",
    "constructions",
    "cli",
)
_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}


class Tracer:
    """Span stack, per-layer self time, and the counters the ratios need."""

    def __init__(self) -> None:
        self.op = 0  # index of the op being traced; spans of one op share it
        self._stack: list[list] = []  # open spans: [layer, start, child_s, id]
        self._next_id = 0
        self.calls: Counter = Counter()  # (layer, fn) -> every call
        self.boundary: Counter = Counter()  # (layer, fn, caller layer) -> span-opening calls
        self.inclusive_s: Counter = Counter()  # (layer, fn) -> seconds of span-opening calls
        self.self_s: Counter = Counter()  # layer -> seconds
        self.failed: Counter = Counter()  # layer -> exceptions escaping the layer
        self.yields: Counter = Counter()  # (fn, consumer layer) -> items
        self.necklace_words_scanned = 0  # sum of r**n over enumerate_necklaces calls
        self.bounds_level_words = 0  # sum over bounds calls of sum_{n<=depth} r**n
        self.approx_iterations = 0
        # one entry per closed span
        self._ids = array("q")
        self._parents = array("q")
        self._ops = array("i")
        self._layers = array("b")
        self._starts = array("d")
        self._ends = array("d")

    @property
    def span_count(self) -> int:
        return len(self._ids)

    def caller_layer(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def open(self, layer: str) -> list:
        span = [layer, perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: list) -> float:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        layer, start, child_s, span_id = span
        duration = end - start
        self.self_s[layer] += duration - child_s
        parent = -1
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        self._ids.append(span_id)
        self._parents.append(parent)
        self._ops.append(self.op)
        self._layers.append(_LAYER_INDEX[layer])
        self._starts.append(start)
        self._ends.append(end)
        return duration

    def save(self, path) -> None:
        """Write every recorded span as columns of a compressed .npz file."""
        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            id=np.frombuffer(self._ids, dtype=np.int64),
            parent=np.frombuffer(self._parents, dtype=np.int64),
            op=np.frombuffer(self._ops, dtype=np.int32),
            layer=np.frombuffer(self._layers, dtype=np.int8),
            start=np.frombuffer(self._starts, dtype=np.float64),
            end=np.frombuffer(self._ends, dtype=np.float64),
        )


class _TracedIterator:
    """Times each `next` of a lazy iterator as a span of its layer."""

    def __init__(self, tracer: Tracer, layer: str, fn: str, it: Iterator) -> None:
        self._tracer = tracer
        self._layer = layer
        self._fn = fn
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        caller = tracer.caller_layer()
        if caller == self._layer:
            item = next(self._it)
        else:
            span = tracer.open(self._layer)
            try:
                item = next(self._it)
            except StopIteration:
                raise
            except BaseException:
                tracer.failed[self._layer] += 1
                raise
            finally:
                tracer.close(span)
        tracer.yields[(self._fn, caller)] += 1
        return item


# Hooks see the call's bound arguments and its result.
def _on_enumerate_necklaces(tracer: Tracer, args: dict, result) -> None:
    tracer.necklace_words_scanned += args["r"] ** args["n"]


def _on_bounds(tracer: Tracer, args: dict, result) -> None:
    tracer.bounds_level_words += sum(args["t"].r ** n for n in range(1, args["max_depth"] + 1))


def _on_approx(tracer: Tracer, args: dict, result) -> None:
    tracer.approx_iterations += result.iterations


_HOOKS = {
    ("words", "enumerate_necklaces"): _on_enumerate_necklaces,
    ("bounds", "bounds"): _on_bounds,
    ("norms", "approx_barabanov"): _on_approx,
}


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    key = (layer, name)
    hook = _HOOKS.get(key)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[key] += 1
        caller = tracer.caller_layer()
        if caller == layer:
            result = fn(*args, **kwargs)
        else:
            tracer.boundary[(layer, name, caller)] += 1
            span = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[layer] += 1
                raise
            finally:
                tracer.inclusive_s[key] += tracer.close(span)
        if hook is not None:
            hook(tracer, signature.bind(*args, **kwargs).arguments, result)
        if isinstance(result, Iterator):
            return _TracedIterator(tracer, layer, name, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every layer's public functions; returns a function that undoes it."""
    package = importlib.import_module("jsrkit")
    modules = [package] + [
        importlib.import_module(f"jsrkit.{name}") for name in LAYERS + ("config", "errors")
    ]
    replaced = []
    for layer in LAYERS:
        module = importlib.import_module(f"jsrkit.{layer}")
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue  # re-exported from another module; wrapped under its own layer
            wrapper = _wrap(tracer, layer, name, fn)
            for target in modules:
                for attr, value in list(vars(target).items()):
                    if value is fn:
                        replaced.append((target, attr, value))
                        setattr(target, attr, wrapper)

    def uninstall() -> None:
        for target, attr, value in reversed(replaced):
            setattr(target, attr, value)

    return uninstall
