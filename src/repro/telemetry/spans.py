"""Span tracing over the campaign's virtual clock.

A *span* is a named region of the fuzzing hot path (``run_one``,
``mutate``, ``execute``, ``classify_compare``, ``sync``, ...). The
tracer accumulates, per span name, how many times the region ran and
how many **virtual cycles** elapsed inside it — virtual because the
campaign's notion of time is the modeled :class:`VirtualClock`, not the
host's wall clock (which statlint TEL001 bans from this package).

Two cost sources feed the same profile:

* **clock deltas** — :meth:`SpanTracer.span` reads the bound cycle
  counter on entry and exit, so a span around ``run_one`` captures
  everything charged while the seed was being fuzzed;
* **explicit attribution** — :meth:`SpanTracer.add` lets the cost model
  deposit already-priced cycles (per-op breakdowns from
  ``BitmapCostModel.exec_cycles``) without re-measuring them, and
  :meth:`SpanTracer.add_many` deposits a whole run of executions into
  several spans at once, bit-identical to one ``add`` per execution.

The disabled path matters more than the enabled one: a campaign built
without telemetry uses :data:`NULL_TRACER`, whose ``span`` handles are
one shared no-op object — entering a disabled span is two trivial
method calls with no allocation, keeping the hot loop's overhead within
the benchmark guard in ``benchmarks/test_bench_telemetry.py``.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

from .metrics import sequential_sum

__all__ = [
    "Span", "SpanTracer", "NullSpan", "NullTracer", "NULL_TRACER",
    "SPAN_TAXONOMY",
]

#: Canonical span names used by the integrated stack, for docs and the
#: status view. Instrumentation may add more; these are the contract.
SPAN_TAXONOMY: Dict[str, str] = {
    "run_one": "one seed's full fuzzing round (energy loop included)",
    "mutate": "havoc mutation of a single input",
    "execute": "synthetic target execution producing an edge trace",
    "classify_compare": "bitmap classify + compare against virgin map",
    "cost_eval": "memsim cost-model evaluation of an execution shape",
    "sync": "parallel-session corpus synchronisation",
}


class Span:
    """Accumulated profile of one named region."""

    __slots__ = ("name", "calls", "cycles", "_tracer", "_entry")

    def __init__(self, name: str, tracer: "SpanTracer") -> None:
        self.name = name
        self.calls = 0
        self.cycles = 0.0
        self._tracer = tracer
        self._entry = 0.0

    def __enter__(self) -> "Span":
        self._entry = self._tracer._now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.calls += 1
        self.cycles += self._tracer._now() - self._entry

    def as_dict(self) -> dict:
        return {"calls": self.calls, "cycles": self.cycles}


class SpanTracer:
    """Registry of spans keyed by name, measuring a bound cycle counter."""

    enabled = True

    def __init__(self, cycles_fn: Optional[Callable[[], float]] = None
                 ) -> None:
        self._cycles_fn = cycles_fn
        self._spans: Dict[str, Span] = {}

    def bind(self, cycles_fn: Callable[[], float]) -> None:
        """Attach the virtual-cycle counter spans measure against."""
        self._cycles_fn = cycles_fn

    def _now(self) -> float:
        return self._cycles_fn() if self._cycles_fn is not None else 0.0

    def span(self, name: str) -> Span:
        """Get-or-create the span handle for ``name``.

        Handles are stable: call sites fetch them once and reuse them,
        so the steady-state cost of an instrumented region is two
        attribute reads and an addition, not a dict lookup.
        """
        span = self._spans.get(name)
        if span is None:
            span = Span(name, self)
            self._spans[name] = span
        return span

    def add(self, name: str, cycles: float, calls: int = 1) -> None:
        """Deposit externally priced cycles into a span."""
        span = self.span(name)
        span.calls += calls
        span.cycles += cycles

    def add_many(self, names, cycles) -> None:
        """Deposit row ``k`` of the 2-D ``cycles`` into span
        ``names[k]``: one call per column, folded in column order."""
        spans = [self.span(name) for name in names]
        totals = sequential_sum([span.cycles for span in spans], cycles)
        for span, total in zip(spans, totals):
            span.calls += cycles.shape[1]
            span.cycles = total

    def trace(self, name: str) -> Callable:
        """Decorator form of :meth:`span`."""
        def decorate(fn: Callable) -> Callable:
            span = self.span(name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with span:
                    return fn(*args, **kwargs)
            return wrapper
        return decorate

    def profile(self) -> Dict[str, dict]:
        """Name-sorted {span: {calls, cycles}} view."""
        return {name: self._spans[name].as_dict()
                for name in sorted(self._spans)}

    # -- checkpoint support -------------------------------------------

    def dump_state(self) -> Dict[str, List[float]]:
        return {name: [span.calls, span.cycles]
                for name, span in sorted(self._spans.items())}

    def load_state(self, state: Dict[str, List[float]]) -> None:
        for name, span in self._spans.items():
            if name in state:
                span.calls, span.cycles = int(state[name][0]), state[name][1]
            else:
                span.calls, span.cycles = 0, 0.0


class NullSpan:
    """Shared no-op span handle for disabled telemetry."""

    __slots__ = ()
    calls = 0
    cycles = 0.0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = NullSpan()


class NullTracer:
    """Tracer that records nothing; every span is the same no-op handle."""

    __slots__ = ()
    enabled = False

    def bind(self, cycles_fn: Callable[[], float]) -> None:
        return None

    def span(self, name: str) -> NullSpan:
        return _NULL_SPAN

    def add(self, name: str, cycles: float, calls: int = 1) -> None:
        return None

    def trace(self, name: str) -> Callable:
        def decorate(fn: Callable) -> Callable:
            return fn
        return decorate

    def profile(self) -> Dict[str, dict]:
        return {}

    def dump_state(self) -> Dict[str, List[float]]:
        return {}

    def load_state(self, state: Dict[str, List[float]]) -> None:
        return None


#: Process-wide disabled tracer; safe to share because it holds no state.
NULL_TRACER = NullTracer()
