"""In-memory span tracer that wraps ionsim functions from outside the package.

A span is one call of a wrapped function: ``[name, start, end, parent]``,
where ``parent`` is the index of the enclosing span or -1. Calls run on
one thread and nest strictly, so a span's self time is its duration minus
the durations of its direct children. Scalar functions called tens of
thousands of times per pass are counted instead of spanned; their time
stays in the caller's self time.

Wrapping replaces every ``ionsim.*`` module attribute that is the original
function object, so both the defining module and every module that did
``from .x import f`` call the wrapper. ``uninstall`` puts the originals
back, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = clock()

        return traced

    def count(self, fn, name: str):
        """Return ``fn`` wrapped so that each call bumps a counter."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self, spanned, counted, handlers: dict | None = None) -> None:
        """Wrap functions at every ionsim module attribute bound to them.

        ``spanned`` and ``counted`` are lists of (span or counter name,
        function) pairs; several functions may share one name.
        ``handlers`` is a dict of ``(schema, fn)`` pairs (the CLI's dispatch
        table) whose functions become ``cli.handler`` spans.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "ionsim" or n.startswith("ionsim.")) and m is not None]
        plan = [(fn, self.wrap(fn, name)) for name, fn in spanned]
        plan += [(fn, self.count(fn, name)) for name, fn in counted]
        for orig, wrapper in plan:
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    self._patched.append((setattr, mod, attr, orig))
                    setattr(mod, attr, wrapper)
        for key, (schema, fn) in list((handlers or {}).items()):
            self._patched.append((dict.__setitem__, handlers, key, (schema, fn)))
            handlers[key] = (schema, self.wrap(fn, "cli.handler"))

    def uninstall(self) -> None:
        while self._patched:
            setter, container, key, old = self._patched.pop()
            setter(container, key, old)

    def take_spans(self) -> list:
        """The spans recorded so far; later wrappers record into a new list."""
        out, self.spans = self.spans, []
        return out

    def take_counts(self) -> dict:
        out = dict(self.counts)
        self.counts.clear()  # cleared in place: the counting wrappers hold it
        return out


def self_times(spans) -> list[float]:
    """Duration minus the summed durations of direct children, per span."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] for i, (_, t0, t1, _) in enumerate(spans)]


def layer_totals(spans, pass_wall_s: float) -> dict:
    """Per-pass layer figures in ms from the spans of one pass.

    ``scenario.<name>`` spans (one per ``cli.main`` call) give the
    scenario's whole wall time, and their self time is ``cli.io``. Every
    other span name ``<layer>`` adds its self time to ``<layer>_ms``.
    ``bench.unaccounted_ms`` is the pass wall time not covered by any
    top-level span.
    """
    out: dict[str, float] = {}
    covered = 0.0
    for (name, t0, t1, parent), own in zip(spans, self_times(spans)):
        if parent < 0:
            covered += t1 - t0
        if name.startswith("scenario."):
            out[f"{name}_ms"] = out.get(f"{name}_ms", 0.0) + (t1 - t0) * 1e3
            name = "cli.io"
        out[f"{name}_ms"] = out.get(f"{name}_ms", 0.0) + own * 1e3
    out["bench.unaccounted_ms"] = (pass_wall_s - covered) * 1e3
    return out


def span_calls(spans) -> dict:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


def write_spans(path: str, meta: dict, passes: list) -> None:
    """Write the kept passes and their spans as one JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**meta, "passes": passes}, fh, separators=(",", ":"))
