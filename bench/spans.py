"""In-memory span recording around excepta's public entry points.

A `SpanRecorder` replaces each traced function in every `excepta` module
namespace that binds it (``from .qep import solve`` copies the function
into four modules, so patching `excepta.qep` alone would miss most calls)
and records one span per call: name, start, end, parent span, the operation
it ran under, the exception type if it raised, and optional per-call counts
taken from the arguments or the result.  Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    parent: int
    op: int
    start: float = 0.0
    end: float = 0.0
    error: type | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One entry point: `module.attr`, recorded under `name`.

    `counts(args, kwargs, result)` returns extra per-call counts; it runs
    after the span closes, so its cost is not charged to the span.
    """

    name: str
    module: str
    attr: str
    counts: Callable[[tuple, dict, Any], dict] | None = None


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, target: Target, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(target.name, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc)
                raise
            finally:
                span.end = clock()
                stack.pop()
            if target.counts is not None:
                span.counts = target.counts(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Patch every binding of each target in loaded `excepta` modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "excepta" or n.startswith("excepta.")]
        try:
            for target in targets:
                original = getattr(sys.modules[target.module], target.attr)
                wrapper = self._wrap(target, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, value))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            while self._patches:
                mod, key, value = self._patches.pop()
                setattr(mod, key, value)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, child)]

    def under(self, inner: str, outer: str) -> int:
        """Number of `inner` spans that have an `outer` span among their ancestors."""
        n = 0
        for s in self.spans:
            if s.name != inner:
                continue
            p = s.parent
            while p >= 0:
                if self.spans[p].name == outer:
                    n += 1
                    break
                p = self.spans[p].parent
        return n

    def summary(self) -> dict[str, dict]:
        """Per name: calls, total and self seconds, failures and summed counts."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_seconds()):
            agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": [], "counts": {}})
            agg["calls"] += 1
            agg["s"] += s.seconds
            agg["self_s"] += own
            if s.error is not None:
                agg["errors"].append(s.error)
            for key, value in s.counts.items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out

    def rows(self):
        """Spans as (id, op, name, start, end, parent, error) rows for writing out."""
        for i, s in enumerate(self.spans):
            yield i, s.op, s.name, s.start, s.end, s.parent, s.error.__name__ if s.error else ""
