"""In-memory span recorder that wraps the program's public functions.

A span is ``(name, start, end, parent)``. Spans are recorded by replacing
a function at the module attribute its callers look up (the harnesses
import functions by name, so ``repro.experiments.global_nrmse`` holds its
own reference to ``rept_global_runs``). ``restore()`` puts every original
back. A target that no longer exists is skipped: it yields no span, never
an error, so the benchmark keeps running while the program is refactored.

Calls are synchronous on the driver thread, so child spans nest inside
their parent and never overlap each other; a span's self time is its
duration minus the summed durations of its direct children. The tracer
times its own bookkeeping (everything a wrapper does besides calling the
original) into ``overhead_s``.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Records spans while ``enabled``; counters accumulate alongside."""

    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    overhead_s: float = 0.0
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t_in = time.perf_counter()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        s = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(s)
        self.overhead_s += s.start - t_in
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += s.duration
            self.overhead_s += time.perf_counter() - s.end

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def wrap(
        self,
        target: str,
        name: str | Callable[..., str] | None,
        on_call: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``module.attr`` (given as ``"module:attr"``).

        ``name`` is the span name, or a function of the call's arguments
        returning it, or ``None`` for no span (lazy builders whose work
        runs later, inside whichever caller collects). ``on_call`` sees
        the arguments of every traced call, to record counters.
        """
        mod_name, attr = target.split(":")
        try:
            mod = importlib.import_module(mod_name)
        except ImportError:
            return
        orig = getattr(mod, attr, None)
        if orig is None:
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            t0 = time.perf_counter()
            if on_call is not None:
                on_call(*args, **kwargs)
            span_name = name(*args, **kwargs) if callable(name) else name
            tracer.overhead_s += time.perf_counter() - t0
            if span_name is None:
                return orig(*args, **kwargs)
            with tracer.span(span_name):
                return orig(*args, **kwargs)

        setattr(mod, attr, wrapper)
        self._patched.append((mod, attr, orig))

    def restore(self) -> None:
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        return sum(s.self_s for s in self.spans if s.name == name)
