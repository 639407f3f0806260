"""Spans and counts recorded by the benchmark around calls into the library.

A :class:`Tracer` keeps every span (name, start, end, parent) and every
count in memory; :class:`Ops` wraps each public library call and each
output check so it is counted as an attempted operation and, when tracing
is on, timed as a span.  With tracing off the span context is a shared
no-op, so an untraced job pays one method call per layer call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory span and count recorder; disabled tracers record nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str) -> Any:
        if not self.enabled:
            return _NO_SPAN
        return self._span(name)

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def instrument(self, obj: Any, method: str, name: str) -> Iterator[None]:
        """Time ``obj.method`` as a span while the library calls it itself.

        An instance attribute shadows the method for the ``with`` block
        only, so only this object is affected; a disabled tracer leaves
        ``obj`` untouched.
        """
        if not self.enabled:
            yield
            return
        inner = getattr(obj, method)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, method, traced)
        try:
            yield
        finally:
            delattr(obj, method)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.seconds
        out: dict[str, float] = {}
        for span, covered in zip(self.spans, child_time, strict=True):
            out[span.name] = out.get(span.name, 0.0) + span.seconds - covered
        return out

    def to_jsonable(self) -> dict:
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "spans": [
                {
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                }
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }


@dataclass
class Ops:
    """Attempted/failed operation counter shared by a whole run.

    An operation is a timed layer call or an output check.  A layer call
    that raises counts as failed and re-raises (the job cannot continue);
    a check that raises or returns false counts as failed and the job
    goes on, so every failing check is reported.
    """

    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def call(
        self, span: str, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Any:
        self.attempted += 1
        try:
            with self.tracer.span(span):
                return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{span}: {type(exc).__name__}: {exc}")
            raise

    def check(self, name: str, fn: Callable[[], bool]) -> bool:
        self.attempted += 1
        try:
            ok = bool(fn())
            detail = "check returned false"
        except Exception as exc:  # a check that crashes is a failed check
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name}: {detail}")
        return ok
