"""Flop accounting and kernel-call tracing.

Factorization drivers and kernels are single-threaded Python (any
parallelism is the BLAS's own), so a module-level active counter/trace is enough;
kernels look them up on entry.  Nesting is supported by save/restore.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class FlopCounter:
    """Operation tallies per kernel class.

    ``level2``/``level3`` count floating-point operations of kernels invoked
    on the trailing matrix; the same kernels invoked inside a panel
    factorization accrue to ``panel`` instead.  ``pivot`` counts elements
    moved by pivot application (data movement, not arithmetic).  Counters
    only ever increase during a factorization.
    """

    level2: int = 0
    level3: int = 0
    panel: int = 0
    pivot: int = 0

    @property
    def total(self) -> int:
        return self.level2 + self.level3 + self.panel + self.pivot

    def __add__(self, other: "FlopCounter") -> "FlopCounter":
        return FlopCounter(
            self.level2 + other.level2,
            self.level3 + other.level3,
            self.panel + other.panel,
            self.pivot + other.pivot,
        )


@dataclass
class CallTrace:
    """Chronological (kernel, scope) record of instrumented kernel calls."""

    calls: list = field(default_factory=list)

    def count(self, kernel=None, scope=None):
        return sum(
            1
            for k, s in self.calls
            if (kernel is None or k == kernel) and (scope is None or s == scope)
        )


_counter = None
_trace = None
_scope = "trailing"


@contextmanager
def counting(counter):
    """Route kernel flop counts into ``counter`` for the enclosed calls."""
    global _counter
    saved = _counter
    _counter = counter
    try:
        yield counter
    finally:
        _counter = saved


@contextmanager
def tracing(trace):
    """Record instrumented kernel calls into ``trace``."""
    global _trace
    saved = _trace
    _trace = trace
    try:
        yield trace
    finally:
        _trace = saved


@contextmanager
def scope(name):
    global _scope
    saved = _scope
    _scope = name
    try:
        yield
    finally:
        _scope = saved


def current_scope():
    return _scope


def add_flops(kind, n):
    if _counter is None:
        return
    if _scope == "panel" and kind != "pivot":
        _counter.panel += n
    elif kind == "level2":
        _counter.level2 += n
    elif kind == "level3":
        _counter.level3 += n
    elif kind == "pivot":
        _counter.pivot += n
    else:
        raise ValueError(f"unknown flop class {kind!r}")


def record_call(kernel):
    if _trace is not None:
        _trace.calls.append((kernel, _scope))
