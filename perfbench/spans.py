"""In-memory span recorder for the benchmark's calls into the library layers.

A span is one call into a public function of a layer, recorded from the
benchmark side: name, start, end, parent span, request id and whether the
call raised.  Spans stay in memory and are written out once, at the end of a
run.  With tracing off, ``Tracer.call`` is a plain call, so the end-to-end
numbers are measured without recording anything.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    failed: bool = False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        # work counters: name -> [sum of values, number of values]
        self.counts: dict[str, list[float]] = {}

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and, when tracing, record a span named ``name`` around it."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add one observation of a work counter (reported as a mean)."""
        cell = self.counts.setdefault(name, [0.0, 0])
        cell[0] += value
        cell[1] += 1

    def mean(self, name: str) -> float:
        total, n = self.counts.get(name, (0.0, 0))
        return total / n if n else 0.0

    def write(self, path: str, meta: dict) -> None:
        self_times = self_time(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            "failed": s.failed,
                            "self_s": self_times[i],
                        }
                    )
                    + "\n"
                )


def self_time(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def span_metrics(spans: list[Span], names: list[str]) -> dict[str, float]:
    """calls, mean time_s, mean self_s and failed count for each span name."""
    self_times = self_time(spans)
    acc = {n: [0, 0.0, 0.0, 0] for n in names}
    for s, own in zip(spans, self_times):
        cell = acc.get(s.name)
        if cell is None:
            continue
        cell[0] += 1
        cell[1] += s.end - s.start
        cell[2] += own
        cell[3] += s.failed
    out: dict[str, float] = {}
    for n, (calls, total, own, failed) in acc.items():
        out[f"{n}.calls"] = calls
        out[f"{n}.time_s"] = total / calls if calls else 0.0
        out[f"{n}.self_s"] = own / calls if calls else 0.0
        out[f"{n}.failed"] = failed
    return out
