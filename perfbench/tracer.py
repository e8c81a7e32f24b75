"""In-memory span tracer with removable wrappers.

A span is one call of a wrapped function: its name, start and end (from
``time.perf_counter``), the index of the span that was open when it began,
and an optional dict of attributes taken from the call. Spans stay in memory
and are written out once, after the traced run.

Wrappers are installed at every import site: each module under the given
package prefix whose namespace binds the original function object gets the
wrapper, and ``remove`` puts the original back everywhere, so a run after it
measures the untouched program.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner`` is a module name, ``attr`` a name in
    it, optionally dotted (``"Tensor.backward"`` wraps a method on a class).
    ``annotate(args, kwargs, result)`` may return a dict stored on the span.
    """

    span: str
    owner: str
    attr: str
    annotate: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------

    def wrap(self, name: str, fn, annotate=None):
        tracer = self

        def traced(*args, **kwargs):
            spans, open_ = tracer.spans, tracer._open
            parent = open_[-1] if open_ else -1
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after us
            open_.append(index)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = tracer.clock()
                open_.pop()
                spans[index] = Span(name, start, end, parent,
                                    {"error": type(exc).__name__})
                raise
            end = tracer.clock()
            open_.pop()
            attrs = annotate(args, kwargs, result) if annotate else None
            spans[index] = Span(name, start, end, parent, attrs)
            return result

        return functools.wraps(fn)(traced)

    def reset(self):
        if self._open:
            raise RuntimeError("reset() inside an open span")
        self.spans = []

    # --- installing and removing wrappers ------------------------------

    def install(self, targets, package: str):
        """Wrap every target at each of its import sites under `package`."""
        try:
            for target in targets:
                self._install_one(target, package)
        except BaseException:
            self.remove()
            raise

    def _install_one(self, target: Target, package: str):
        owner = sys.modules[target.owner]
        *path, leaf = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        wrapper = self.wrap(target.span, original, target.annotate)
        if path:
            # a method: the class attribute is its only binding
            self._patch(owner, leaf, original, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package
                                      or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def write_spans(path: str, units: list):
    """Write each unit's spans as gzip JSON lines: [unit, index, name,
    start, end, parent, attrs]."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for unit, spans in enumerate(units):
            for i, s in enumerate(spans):
                fh.write(json.dumps([unit, i, s.name, s.start, s.end,
                                     s.parent, s.attrs],
                                    separators=(",", ":")))
                fh.write("\n")


def children_of(spans) -> list[list[int]]:
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def covered(interval, pieces) -> float:
    """Length of the part of `interval` covered by the union of `pieces`."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in pieces
                     if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    kids = children_of(spans)
    return [s.duration - covered((s.start, s.end),
                                 [(spans[k].start, spans[k].end) for k in ks])
            for s, ks in zip(spans, kids)]
