"""In-memory span tracing by wrapping the names callers look up.

A traced run replaces, for its duration only, attributes such as
``phasetomo.solver.rotate`` or ``numpy.fft.fft2`` with wrappers that
record a span (name, start, end, parent) and optional counts. Python
resolves a module-level name at call time, so a caller in
``phasetomo.solver`` picks up the wrapper without any change to the
program. A name that no longer exists is reported as missing and skipped,
so refactors of the program never fail the traced run; every wrapped name
is restored when the run ends, whatever happens inside it.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

CountFn = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Wrap:
    """Replace ``target`` (``"package.module.attr"``) by a span named ``span``.

    ``count`` maps (args, kwargs, result) to counter increments that are
    stored on the span.
    """

    target: str
    span: str
    count: CountFn | None = None


class Tracer:
    """Span recorder for one single-threaded caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self.uncounted: set[str] = set()  # spans whose count function failed
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        s = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(s)
        self._stack.append(index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrapper(self, fn: Callable, name: str, count: CountFn | None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if count is not None:
                    try:
                        s.counts = count(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        # the callee's signature changed; keep the span
                        self.uncounted.add(name)
                return result

        traced.__wrapped__ = fn
        return traced


def _resolve(target: str):
    """(owner object, attribute name) for a dotted target, or None."""
    module_name, _, attr = target.rpartition(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextmanager
def installed(tracer: Tracer, wraps: list[Wrap]):
    """Install every wrap for the duration of the block; yields the list of
    targets that could not be found."""
    saved = []
    missing = []
    try:
        for w in wraps:
            found = _resolve(w.target)
            if found is None:
                missing.append(w.target)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrapper(original, w.span, w.count))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children of one caller never overlap, but the union is taken anyway so
    the arithmetic holds for any nesting the recorder produces.
    """
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cursor = s.start
        for k in sorted(kids, key=lambda c: c.start):
            lo, hi = max(k.start, cursor), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.layer] = out.get(s.layer, 0.0) + t
    return out
