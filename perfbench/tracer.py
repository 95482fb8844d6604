"""Span tracer installed from outside the library for the traced benchmark run.

Every wrapped callable records one span: its name, start, end, the span that
was open when it was called (its parent), and the id of the benchmark op it
ran under.  Spans stay in memory; :meth:`Tracer.write_spans` writes them out
when the run ends.  A span's self time is its duration minus the part of it
covered by its child spans.

Counters of work done (calls, term pairs, node evaluations, path steps) are
computed from each call's inputs at the same boundary, before the call.

Patching rules:

- methods are patched on their class, so ``a * b`` dispatches to the wrapper;
- a function is replaced in every ``complexou`` module that binds the same
  object, because ``from .poly import compose`` copies the reference into
  the importing module (``operator.compose``, ``checks.semigroup_mehler``,
  ``quadrature.complex_hermite``, ``cli.parse_poly``, ...).
"""

from __future__ import annotations

import csv
import math
import sys
from collections import defaultdict
from time import perf_counter

# Floor for log10(max_residual / tol): an exact-zero residual, or a suite
# that did not run, reports this value.
HEADROOM_FLOOR = -20.0


def log10_headroom(residual, tol) -> float:
    """log10(residual / tol), floored at HEADROOM_FLOOR (None when not reported)."""
    if residual is None or tol is None or residual <= 0:
        return HEADROOM_FLOOR
    return max(math.log10(residual / tol), HEADROOM_FLOOR)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.headroom: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, calls=None, work=None, on_result=None):
        """Return fn wrapped in a span called ``name``.

        ``calls`` names a counter bumped once per call; ``work(*args, **kw)``
        returns a dict of further counter increments computed from the inputs;
        ``on_result(result)`` sees the return value.
        """
        name_id = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if calls is not None:
                counts[calls] += 1
            if work is not None:
                for key, value in work(*args, **kwargs).items():
                    counts[key] += value
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (name_id, start, end, parent, self.op_id)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch_method(self, cls, attr, name, **kw):
        """Wrap ``cls.attr`` and every alias of it (``__rmul__ = __mul__``)."""
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            traced = type(original)(self.wrap(original.__func__, name, **kw))
        else:
            traced = self.wrap(original, name, **kw)
        for alias, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, alias, traced)
                self._patches.append((cls, alias, original))

    def patch_function(self, fn, name, **kw):
        """Replace ``fn`` wherever a complexou module binds it."""
        traced = self.wrap(fn, name, **kw)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "complexou" and not mod_name.startswith("complexou."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, fn))
        return traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def self_and_total(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed self time and summed duration."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        total_s: defaultdict[str, float] = defaultdict(float)
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            self_s[name] += (end - start) - covered[i]
            total_s[name] += end - start
        return dict(self_s), dict(total_s)

    def note_headroom(self, suite: str, residual, tol) -> None:
        value = log10_headroom(residual, tol)
        self.headroom[suite] = max(self.headroom.get(suite, HEADROOM_FLOOR), value)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "op"])
            for i, (name_id, start, end, parent, op) in enumerate(self.spans):
                out.writerow([i, self.names[name_id], repr(start), repr(end), parent, op])
