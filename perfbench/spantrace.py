"""Outside-in span tracing of a Python package.

A ``Tracer`` swaps chosen public functions for wrappers that record one span
per call: name, start, end, parent span, and facts read from the call's
arguments and return value.  The swap is made in every loaded module of the
package that holds the function object, so names bound by ``from .x import
f`` are traced as well as ``x.f``.  A function missing at the traced commit is
listed in ``missing`` instead of failing, so the trace survives refactors.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

# Reads (bound arguments with defaults applied, return value) -> facts.
FactReader = Callable[[inspect.BoundArguments, Any], dict]


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to trace: ``<package>.<module>.<function>``."""

    module: str
    function: str
    facts: FactReader | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.fact_errors: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func: Callable, name: str,
             facts: FactReader | None = None) -> Callable:
        """Return ``func`` wrapped so that each call records a span."""
        signature = inspect.signature(func) if facts is not None else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if facts is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.facts = facts(bound, result)
                except Exception as exc:  # a refactor changed what we read
                    self.fact_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def install(self, package: str, targets: Sequence[Target]) -> None:
        """Swap every target in each loaded module of ``package``."""
        modules = [module for module_name, module in list(sys.modules.items())
                   if module is not None
                   and (module_name == package or module_name.startswith(package + "."))]
        for target in targets:
            home = sys.modules.get(f"{package}.{target.module}")
            original = getattr(home, target.function, None)
            if not callable(original):
                if target.name not in self.missing:
                    self.missing.append(target.name)
                continue
            wrapper = self.wrap(original, target.name, target.facts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every swapped function back."""
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Overlapping children are counted once, so covered time never exceeds
    the span's own duration.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((c.start, c.end) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result
