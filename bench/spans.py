"""In-memory span recording for the traced run.

A span is ``{"name", "start", "end", "parent", "cycle"}`` (``parent`` is the
index of the enclosing span in the list, or ``None``).  Spans are produced
by pass-through wrappers the benchmark puts on objects it constructs or
passes in; nothing inside ``src/`` knows about them.  Everything stays in
memory until the run ends (see :meth:`Tracer.dump`).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Optional

Span = Dict[str, object]
_ABSENT = object()


class Tracer:
    """Collects spans from the calling thread (one open-span stack)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.cycle = -1
        self._stack: List[int] = []
        self._cycle_span: Optional[int] = None
        self._shadowed: List[tuple] = []

    def open_cycle(self, cycle: int) -> None:
        """Start the root span of traced cycle ``cycle``."""
        self.cycle = cycle
        self._cycle_span = self.begin("cycle")

    def close_cycle(self) -> None:
        if self._cycle_span is not None:
            self.end(self._cycle_span)
            self._cycle_span = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "cycle": self.cycle,
            }
        )
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        # A generator's span may be closed late, by garbage collection: only
        # unwind the stack if the span is still on it.
        if index in self._stack:
            del self._stack[self._stack.index(index) :]

    def wrap(self, func: Callable, name: str) -> Callable:
        """``func`` with a span around every call."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def wrap_iterator(self, func: Callable, name: str) -> Callable:
        """``func`` (returning an iterator) with one span from call to exhaustion.

        The span is open only while the iterator is being advanced, so work
        the consumer does between items is not attributed to it... unless
        the consumer drains it in one go (``list(...)``), which is what the
        round loop does.
        """

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                yield from func(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def shadow(self, target: object, attribute: str, replacement: Callable) -> None:
        """Set ``target.attribute`` on the instance, remembering what to restore."""
        self._shadowed.append((target, attribute, vars(target).get(attribute, _ABSENT)))
        setattr(target, attribute, replacement)

    def patch(self, target: object, attribute: str, name: str, iterator: bool = False) -> None:
        """Shadow ``target.attribute`` with a traced pass-through (instance level)."""
        wrapper = self.wrap_iterator if iterator else self.wrap
        self.shadow(target, attribute, wrapper(getattr(target, attribute), name))

    def restore(self) -> None:
        """Undo every :meth:`shadow`, newest first."""
        while self._shadowed:
            target, attribute, previous = self._shadowed.pop()
            if previous is _ABSENT:
                delattr(target, attribute)
            else:
                setattr(target, attribute, previous)

    def dump(self, path, extra: Optional[Dict[str, object]] = None) -> None:
        payload = {"spans": self.spans}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def durations(spans: Iterable[Span]) -> List[float]:
    return [float(span["end"]) - float(span["start"]) for span in spans]


def own_times(spans: List[Span], values: List[float]) -> List[float]:
    """Per span: its value minus the values of its direct children.

    ``values`` are the spans' durations, or any rescaling of them.
    """
    result = list(values)
    for span, value in zip(spans, values):
        if span["parent"] is not None:
            result[span["parent"]] -= value
    return result
