"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, batch)``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``batch`` the id of
the arrival batch being served.  Spans are recorded by wrapping calls
into each layer's public functions from the benchmark's own files;
nothing inside the program is changed.  The list stays in memory while
the run lasts and is written out once at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.batch = -1  # id of the batch currently being served
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so each call records one span."""
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.batch)

        return traced

    def instrument(self, obj: object, method: str, name: str) -> None:
        """Shadow ``obj.method`` with a traced instance attribute."""
        setattr(obj, method, self.wrap(name, getattr(obj, method)))

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every finished span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s and s[0] == name]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it that its direct children cover."""
        children = defaultdict(float)
        for span in self.spans:
            if span and span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span:
                totals[span[0]] += span[2] - span[1] - children[index]
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                if span:
                    fh.write(json.dumps(span) + "\n")
