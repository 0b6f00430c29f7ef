"""Timing spans recorded from outside the package by swapping module attributes.

A function is traced by replacing every ``otafc.*`` module attribute bound to
it with a wrapper, so callers that imported the name (``from .channel import
noise_covariance``) hit the wrapper too. Each call records one span: name,
start, end, parent span and item id. Spans live in flat arrays and are
reduced to calls, self time and total time once the run ends.
"""

import importlib
import sys
import time
from array import array
from contextlib import contextmanager


def _package_modules(package="otafc"):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def swap(original, replacement, package="otafc"):
    """Rebind every attribute of the package's modules that is `original`.

    Returns the undo list for `restore`.
    """
    undo = []
    for mod in _package_modules(package):
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def restore(undo):
    for mod, name, original in reversed(undo):
        setattr(mod, name, original)


@contextmanager
def swapped(original, make_wrapper, package="otafc"):
    """Context manager: `make_wrapper(original)` stands in for `original`."""
    undo = swap(original, make_wrapper(original), package)
    try:
        yield
    finally:
        restore(undo)


def resolve(dotted):
    """'otafc.channel.noise_covariance' -> the function object, or None if absent."""
    module, _, attr = dotted.rpartition(".")
    return getattr(importlib.import_module(module), attr, None)


class Tracer:
    """Records a span per call of each target function while active.

    targets maps a span name to the dotted path of the function it times.
    A target the package no longer defines is skipped and reports zero
    calls. A new item id starts each time the `root` span opens, so spans
    of one trial (or one image) share an id.
    """

    def __init__(self, targets, root, package="otafc"):
        self.targets = dict(targets)
        self.root = root
        self.package = package
        self.names = list(self.targets)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self._stack = [-1]
        self._item = 0
        self._undo = []

    def _wrap(self, idx, fn):
        is_root = self.names[idx] == self.root
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if is_root:
                self._item += 1
            span = len(self.start)
            self.name_id.append(idx)
            self.parent.append(self._stack[-1])
            self.item.append(self._item)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._stack.pop()

        return traced

    def __enter__(self):
        for idx, name in enumerate(self.names):
            fn = resolve(self.targets[name])
            if fn is not None:
                self._undo += swap(fn, self._wrap(idx, fn), self.package)
        return self

    def __exit__(self, *exc):
        restore(self._undo)
        self._undo = []
        return False

    def summary(self):
        """{span name: (calls, self seconds, total seconds)} for every target."""
        return span_summary(self.names, self.name_id, self.start, self.end, self.parent)


def span_summary(names, name_id, start, end, parent):
    """Reduce flat span arrays to calls, self time and total time per name.

    A span's self time is its duration minus the durations of its direct
    children; children nest inside their parent, so no interval is counted
    twice.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    total_s = [0.0] * len(names)
    for i in range(n):
        k = name_id[i]
        dur = end[i] - start[i]
        calls[k] += 1
        total_s[k] += dur
        self_s[k] += dur - child[i]
    return {name: (calls[k], self_s[k], total_s[k]) for k, name in enumerate(names)}
