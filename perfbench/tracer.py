"""Span tracing of cakecut from outside the package.

The tracer rebinds public functions of ``cakecut`` to timing wrappers for the
length of a ``with`` block and restores every binding afterwards.  Modules
import functions by name (``from .hatvalue import hat_cut, hat_eval``), so a
wrapper must replace the name in every module that holds it, not only in the
module that defines it; ``Valuation`` methods are replaced on the class.

Spans are aggregated per name in memory: call count, total time and self
time (a span's time minus the time of the spans it encloses).  A few
counters depend on the enclosing span -- ``next_mass`` calls under
``phase_one`` are the growth loop's structural peeks, ``hat_eval`` calls
under an audit check are audit work -- so the tracer also counts calls per
enclosing *scope*.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# (module, attribute, span name).  Methods of Valuation are patched on the
# class; every other entry is rebound in every cakecut module holding it.
TARGETS = (
    ("cakecut.cake", "Valuation.prefix", "cake.prefix"),
    ("cakecut.cake", "Valuation.leftmost_reach", "cake.leftmost_reach"),
    ("cakecut.cake", "Valuation.next_mass", "cake.next_mass"),
    ("cakecut.cake", "Valuation.value", "cake.value"),
    ("cakecut.cake", "eval_query", "cake.eval_query"),
    ("cakecut.cake", "cut_query", "cake.cut_query"),
    ("cakecut.hatvalue", "hat_eval", "hatvalue.hat_eval"),
    ("cakecut.hatvalue", "hat_cut", "hatvalue.hat_cut"),
    ("cakecut.hatvalue", "is_bifurcating", "hatvalue.is_bifurcating"),
    ("cakecut.allocation", "hat_matrix", "allocation.hat_matrix"),
    ("cakecut.allocation", "envy_edges", "allocation.envy_edges"),
    ("cakecut.allocation", "resolve_cycles", "allocation.resolve_cycles"),
    ("cakecut.allocation", "unassigned_gaps", "allocation.unassigned_gaps"),
    ("cakecut.solver", "phase_one", "solver.phase_one"),
    ("cakecut.solver", "phase_two", "solver.phase_two"),
    ("cakecut.solver", "merge_final", "solver.merge_final"),
    ("cakecut.solver", "solve", "solver.solve"),
    ("cakecut.solver", "solve_mult", "solver.solve_mult"),
    ("cakecut.audit", "check_phase_invariants", "audit.check_phase_invariants"),
    ("cakecut.audit", "check_theorem_bounds", "audit.check_theorem_bounds"),
    ("cakecut.audit", "check_mult_bounds", "audit.check_mult_bounds"),
    ("cakecut.audit", "build_report", "audit.build_report"),
    ("cakecut.bounded", "solve_bounded", "bounded.solve_bounded"),
    ("cakecut.bounded", "cut_point_grid", "bounded.cut_point_grid"),
    ("cakecut.serialize", "write_json", "serialize.write"),
    ("cakecut.serialize", "instance_from_obj", "serialize.instance_from_obj"),
    ("cakecut.serialize", "allocation_from_obj", "serialize.allocation_from_obj"),
    ("cakecut.serialize", "parse_fraction", "serialize.parse_fraction"),
    ("cakecut.generate", "generate", "generate"),
    ("cakecut.cli", "main", "cli.audit"),
)

# Spans that open a scope, and the scope they open.
SCOPES = {
    "solver.phase_one": "phase_one",
    "solver.phase_two": "phase_two",
    "audit.check_phase_invariants": "audit",
    "audit.check_theorem_bounds": "audit",
    "audit.check_mult_bounds": "audit",
    "audit.build_report": "audit",
}


def _counter_arg(args, kwargs, position: int):
    return args[position] if len(args) > position else kwargs.get("counter")


class Span:
    """Aggregate of every span with one name."""

    __slots__ = ("calls", "total", "self_time", "counted", "scoped")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counted = 0          # oracle queries issued with a QueryCounter
        self.scoped: dict[str, int] = {}  # calls made inside each open scope


class Tracer:
    """Context manager that wraps the ``TARGETS`` and aggregates their spans.

    ``hooks`` maps a span name to ``before(args, kwargs)``, called before
    the wrapped function runs; it returns ``after(result)`` or None, called
    once the function has returned.  The benchmark uses hooks to read the
    query counters around each solver phase and the size of written files.
    """

    def __init__(self, hooks: dict[str, Callable] | None = None):
        self.spans: dict[str, Span] = {}
        self.hooks = dict(hooks or {})
        self._children = [0.0]   # time of closed child spans, per open span
        self._scopes: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        span = self.spans.setdefault(name, Span())
        children, scopes, clock = self._children, self._scopes, time.perf_counter
        hook = self.hooks.get(name)
        opens = SCOPES.get(name)
        counter_pos = {"cake.eval_query": 3, "cake.cut_query": 3}.get(name)

        def traced(*args, **kwargs):
            span.calls += 1
            if counter_pos is not None and _counter_arg(args, kwargs, counter_pos) is not None:
                span.counted += 1
            for scope in scopes:
                span.scoped[scope] = span.scoped.get(scope, 0) + 1
            if opens is not None:
                scopes.append(opens)
            after = hook(args, kwargs) if hook is not None else None
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                span.total += elapsed
                span.self_time += elapsed - inner
                if opens is not None:
                    scopes.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cakecut" or name.startswith("cakecut."))]
        try:
            for module_name, attr, span_name in TARGETS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._saved.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(span_name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(span_name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __exit__(self, *exc) -> None:
        self.restore()
