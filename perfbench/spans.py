"""In-memory span tracer that wraps gch's public functions from outside.

A traced function is replaced, in the module namespace its caller reads it
from (``gch.runner.simulate`` is the name ``run_experiment`` calls), by a
wrapper that records one span per call: name, start, end and the span that
was open when it started.  ``numpy.fft.rfft``/``irfft`` are wrapped as plain
counters; every span records how many FFT calls happened inside it.  Spans
stay in memory until :meth:`Tracer.dump` writes them out.  No file of the
program is touched: the wrappers are undone when the tracer is closed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    ffts: int  # numpy FFT calls made inside the span, children included
    work: float  # caller-defined amount of work (steps, snapshots), 0 if unset


class Tracer:
    """Records spans around wrapped functions; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kept: dict[str, list] = {}
        self.fft_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, work=None, keep: bool = False):
        """Replace ``module.attr`` by a span-recording wrapper named ``module.attr``.

        ``work(args, kwargs, result)`` gives the span's work amount; with
        ``keep`` the return values are kept in ``self.kept[name]``.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.fft_calls, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.ffts = tracer.fft_calls - span.ffts
                tracer._stack.pop()
            if work is not None:
                span.work = float(work(args, kwargs, result))
            if keep:
                tracer.kept.setdefault(name, []).append(result)
            return result

        self._patch(module, attr, traced)

    def count_ffts(self, module, attr: str) -> None:
        """Replace ``module.attr`` by a wrapper that only counts calls."""
        fn = getattr(module, attr)
        tracer = self

        def counted(*args, **kwargs):
            tracer.fft_calls += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, counted)

    def _patch(self, module, attr, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def close(self) -> None:
        """Undo every wrapper, most recent first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- reading the spans ----------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        """Map from span index to the indices of its direct children."""
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            kids.setdefault(s.parent, []).append(i)
        return kids

    def self_time(self, index: int, kids: dict | None = None) -> float:
        """Span duration minus the part of it that its child spans cover."""
        kids = self.children() if kids is None else kids
        span = self.spans[index]
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in (self.spans[i] for i in kids.get(index, ()))
        )
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (span.end - span.start) - covered

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of the outermost spans of this name."""
        return sum(
            self.spans[i].end - self.spans[i].start
            for i in self.named(name)
            if not self._inside(i, name)
        )

    def self_total(self, name: str) -> float:
        kids = self.children()
        return sum(self.self_time(i, kids) for i in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def ffts(self, name: str) -> int:
        return sum(self.spans[i].ffts for i in self.named(name) if not self._inside(i, name))

    def work(self, name: str) -> float:
        return sum(self.spans[i].work for i in self.named(name))

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans]}, fh)
            fh.write("\n")
