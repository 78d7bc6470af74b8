"""In-memory span tracer for the end-to-end benchmark's traced run.

The tracer records spans from the *outside*: it replaces public names
at the module attribute the caller looks them up through (for example
``repro.exec.sweep.simulate_batch``) with a timing wrapper, and puts
every original back in :meth:`Tracer.restore`.  Nothing under ``src/``
is edited.  A span is ``(id, name, start_ns, end_ns, parent id,
request id, counts)``; spans stay in memory until the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "self_times", "layer_totals", "chrome_trace"]

#: Optional per-call counter extractor: (args, kwargs, result) -> counts.
Counts = Callable[[tuple, dict, Any], dict[str, int]]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "counts", "label")

    def __init__(self, id: int, name: str, start: int, parent: int, request: int):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.counts: dict[str, int] = {}
        #: Free-form tag shown in the Chrome trace (e.g. the exhibit name).
        self.label = ""

    @property
    def dur(self) -> int:
        return self.end - self.start


class Tracer:
    """Span recorder plus the wrap/restore bookkeeping.

    Span ids start at 1; parent 0 means "no parent".  Request ids group
    the spans of one unit of work (one exhibit, one sweep chunk, one
    admitted system); a span opened with ``request=True`` starts a new
    request, every other span inherits its parent's.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._requests = 0

    # -- recording -----------------------------------------------------------
    def new_request(self) -> int:
        """Allocate a request id for a caller that groups sibling spans."""
        self._requests += 1
        return self._requests

    def begin(self, name: str, request: bool | int = False) -> Span:
        """Open a span.  *request* is ``True`` for a new request id, an
        id from :meth:`new_request`, or ``False`` to inherit the
        parent's (a root span always starts a new request)."""
        parent = self._open[-1] if self._open else None
        if request is True or (request is False and parent is None):
            req = self.new_request()
        elif request is False:
            assert parent is not None
            req = parent.request
        else:
            req = request
        span = Span(
            len(self.spans) + 1,
            name,
            time.perf_counter_ns(),  # noqa: RT002 - host-side span timing, not simulated time
            parent.id if parent is not None else 0,
            req,
        )
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()  # noqa: RT002 - host-side span timing, not simulated time
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str, request: bool | int = False) -> Iterator[Span]:
        s = self.begin(name, request)
        try:
            yield s
        finally:
            self.end(s)

    # -- wrapping public names -------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        request: bool = False,
        counts: Counts | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.  A missing
        attribute raises: a renamed or removed name must fail the traced
        run, not read as a layer that costs nothing."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.begin(name, request)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped name back, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time in ns: duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.dur - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Layer name -> ``{"calls", "self_ns", "incl_ns", <summed counts>}``.
    Inclusive time counts only the outermost span of a layer, so a
    layer that calls itself is not counted twice."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict[str, dict[str, int]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "self_ns": 0, "incl_ns": 0})
        row["calls"] += 1
        row["self_ns"] += selfs[s.id]
        parent = by_id.get(s.parent)
        nested = False
        while parent is not None:
            if parent.name == s.name:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            row["incl_ns"] += s.dur
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return out


def chrome_trace(spans: list[Span], path: Path) -> None:
    """Write *spans* as Chrome trace-event JSON (``ph: "X"`` complete
    events, microseconds), loadable in chrome://tracing or Perfetto."""
    origin = min((s.start for s in spans), default=0)
    pid = os.getpid()
    events = [
        {
            "name": s.name,
            "ph": "X",
            "ts": (s.start - origin) / 1000,
            "dur": s.dur / 1000,
            "pid": pid,
            "tid": 0,
            "args": {
                "id": s.id,
                "parent": s.parent,
                "request": s.request,
                **({"label": s.label} if s.label else {}),
                **s.counts,
            },
        }
        for s in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
