"""In-memory spans for the traced run.

A span is ``[id, parent id, name, start, end, attrs]`` with times from
``time.perf_counter``.  The benchmark opens one span around each call it
makes into a public function of ``mrquant``; in the traced run it also wraps
the public names one module of the package calls in another, so calls made
inside the package show up as child spans.  Spans stay in memory and are
written out once, when the run ends.  Untraced runs use :data:`NO_TRACE`,
whose spans do nothing.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional


_NOTHING = nullcontext()


class NullTracer:
    recording = False

    def span(self, name: str, attrs: Optional[dict] = None) -> nullcontext:
        return _NOTHING

    def paused(self) -> nullcontext:
        return _NOTHING


NO_TRACE = NullTracer()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, attrs: Optional[dict]) -> None:
        self.tracer = tracer
        self.record = [len(tracer.spans), tracer.stack[-1], name, 0.0, 0.0, attrs or {}]

    def __enter__(self) -> list:
        t = self.tracer
        t.spans.append(self.record)
        t.stack.append(self.record[0])
        self.record[3] = perf_counter()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record[4] = perf_counter()
        self.tracer.stack.pop()


class Tracer:
    """Collects spans; :meth:`wrap` patches module attributes until
    :meth:`unwrap_all`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[Optional[int]] = [None]
        self.recording = True
        self._patched: list = []

    def span(self, name: str, attrs: Optional[dict] = None):
        if not self.recording:
            return _NOTHING
        return _Span(self, name, attrs)

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        describe: Callable[[tuple, object], dict] = lambda args, out: {},
    ) -> None:
        """Replace ``module.attr`` by a function that records a span named
        ``name`` around each call.  ``describe(args, result)`` gives the
        span's attributes; it runs after the span has closed."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            with _Span(self, name, None) as record:
                out = original(*args, **kwargs)
            record[5] = describe(args, out)
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Context in which nothing is recorded, for the benchmark's own
        checks, which call the program too."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def write(self, path: str) -> None:
        fields = ["id", "parent", "name", "start", "end", "attrs"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, default=str)


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child = {}
    for _id, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {sp[0]: (sp[4] - sp[3]) - child.get(sp[0], 0.0) for sp in spans}
