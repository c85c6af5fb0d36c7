"""Stage tracing: nested spans with bounded ring-buffer retention.

The crawl driver opens one span per phase (kind ``crawl``), one per
micro-batch round (kind ``micro_batch``), one per stage invocation
(kind ``stage``) and one instant span per classified document (kind
``decision``), giving the nesting::

    crawl -> micro_batch -> stage -> decision

Span timestamps come from the clock callable the tracer was built with
-- the crawl wires the *simulated* clock, so traces are deterministic
and replayable.  Finished spans land in a ring buffer of bounded size
(``maxlen``); a long crawl keeps the most recent spans and never grows
without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One traced interval (or instant, when ``start == end``)."""

    span_id: int
    name: str
    kind: str
    parent_id: int | None
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


class Tracer:
    """Creates spans against a deterministic clock and retains the most
    recent ``maxlen`` finished spans."""

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        maxlen: int = 256,
    ) -> None:
        self.maxlen = max(int(maxlen), 0)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._finished: deque[Span] = deque(maxlen=self.maxlen)
        self._next_id = 1
        self.started = 0
        self.dropped = 0
        """Finished spans evicted from the ring buffer so far."""

    # -- span lifecycle --------------------------------------------------

    def start(
        self,
        name: str,
        kind: str = "span",
        parent: Span | None = None,
        attrs: dict | None = None,
    ) -> Span:
        span = Span(
            span_id=self._next_id,
            name=name,
            kind=kind,
            parent_id=parent.span_id if parent is not None else None,
            start=self._clock(),
            attrs=attrs or {},
        )
        self._next_id += 1
        self.started += 1
        return span

    def finish(self, span: Span) -> Span:
        span.end = self._clock()
        if len(self._finished) == self.maxlen:
            self.dropped += 1
        self._finished.append(span)
        return span

    def event(
        self,
        name: str,
        kind: str = "event",
        parent: Span | None = None,
        attrs: dict | None = None,
    ) -> Span:
        """An instant span (``start == end``)."""
        return self.finish(self.start(name, kind=kind, parent=parent,
                                      attrs=attrs))

    # -- reading ---------------------------------------------------------

    def finished(self, kind: str | None = None) -> list[Span]:
        """Retained finished spans, oldest first (optionally one kind)."""
        spans: Iterable[Span] = self._finished
        if kind is not None:
            spans = (s for s in spans if s.kind == kind)
        return list(spans)

    def children_of(self, span: Span, kind: str | None = None) -> list[Span]:
        return [
            s
            for s in self._finished
            if s.parent_id == span.span_id
            and (kind is None or s.kind == kind)
        ]

    def stats(self) -> dict[str, float]:
        return {
            "spans_started": float(self.started),
            "spans_retained": float(len(self._finished)),
            "spans_dropped": float(self.dropped),
        }

    def clear(self) -> None:
        self._finished.clear()
