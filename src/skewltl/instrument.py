"""Flop accounting and kernel-call tracing.

The active counter, trace and scope live in context variables, which
kernels look up on entry.  Each thread (and each asyncio task) sees its own
values, so factorizations running concurrently count only their own flops;
nesting restores the outer value on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
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


_counter = ContextVar("skewltl_counter", default=None)
_trace = ContextVar("skewltl_trace", default=None)
_scope = ContextVar("skewltl_scope", default="trailing")


@contextmanager
def _bound(var, value):
    token = var.set(value)
    try:
        yield value
    finally:
        var.reset(token)


def counting(counter):
    """Route kernel flop counts into ``counter`` for the enclosed calls."""
    return _bound(_counter, counter)


def tracing(trace):
    """Record instrumented kernel calls into ``trace``."""
    return _bound(_trace, trace)


def scope(name):
    """Attribute the enclosed kernel calls to scope ``name``."""
    return _bound(_scope, name)


def add_flops(kind, n):
    counter = _counter.get()
    if counter is None:
        return
    if kind != "pivot" and _scope.get() == "panel":
        counter.panel += n
    elif kind == "level2":
        counter.level2 += n
    elif kind == "level3":
        counter.level3 += n
    elif kind == "pivot":
        counter.pivot += n
    else:
        raise ValueError(f"unknown flop class {kind!r}")


def record_call(kernel):
    trace = _trace.get()
    if trace is not None:
        trace.calls.append((kernel, _scope.get()))
