"""In-memory tracer that wraps the program's functions from outside.

The tracer never edits the program.  It replaces a function at every
name a caller resolves it by: the class or module attribute that
defines it, and every module global or class attribute elsewhere in
the package that holds the same function object (``from x import f``
copies a reference, so patching ``x.f`` alone would miss those
callers).  Wrappers are installed before the workload builds any
object, so bound methods cached on instances resolve to the wrappers
too.

Three wrapper kinds:

- ``count``: counts calls only.  For per-instruction and per-spend
  functions where a clock read would swamp the callee.
- ``time``: counts calls and measures inclusive and self time.  Self
  time is the call's duration minus the time its wrapped callees took.
- ``span``: ``time`` plus one recorded span per call, written out at
  the end as Chrome trace-event JSON (opens in Perfetto).

Spans are capped (``SPAN_LIMIT``) so a long traced run cannot exhaust
memory; the number dropped is reported in the trace metadata.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field

#: Most spans one process records; later ones are only counted.
SPAN_LIMIT = 200_000


@dataclass
class Stat:
    """Aggregates of one probe."""

    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    #: Probe-specific tallies (dispatched instructions, memo hits, ...).
    extra: dict = field(default_factory=dict)

    def bump(self, key: str, by: int = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + by


def resolve(target: str) -> tuple[object, str, object]:
    """``"pkg.mod:Class.attr"`` -> (owner, attribute name, raw value).

    The raw value is read from the owner's ``__dict__`` so that static
    and class methods keep their descriptor type.
    """
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    raw = vars(owner).get(attr)
    if raw is None:
        raise LookupError(f"{target}: not defined on {owner!r}")
    return owner, attr, raw


class Tracer:
    """Probes, their statistics and the recorded spans of one process."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.spans_dropped = 0
        self.origin = time.perf_counter()
        # Child-time accumulators of the open timed calls; the bottom
        # entry collects time spent in top-level probes.
        self._stack = [0.0]
        self._wrapped: dict[int, tuple[object, object]] = {}

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrapper factories ---------------------------------------------
    def count(self, name: str, fn):
        stat = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn, span: bool = False, before=None, after=None):
        """Time ``fn``; ``before(args)`` -> token, ``after(token, args, took)``."""
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stat.calls += 1
                stat.incl_s += took
                stat.self_s += took - stack.pop()
                stack[-1] += took
                if after is not None:
                    after(token, args, took)
                if span:
                    if len(spans) < SPAN_LIMIT:
                        spans.append((name, start, took, len(stack) - 1))
                    else:
                        tracer.spans_dropped += 1

        return wrapper

    # -- installation ----------------------------------------------------
    def patch(self, target: str, make) -> None:
        """Replace ``target`` with ``make(function)`` wherever it is named."""
        owner, attr, raw = resolve(target)
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
            wrapper = type(raw)(make(fn))
            self._wrapped[id(fn)] = (fn, wrapper.__func__)
        else:
            fn = raw
            wrapper = make(fn)
            self._wrapped[id(fn)] = (fn, wrapper)
        setattr(owner, attr, wrapper)

    def rebind_aliases(self, prefixes: tuple[str, ...]) -> int:
        """Point every other reference to a patched function at its wrapper.

        Scans the globals of every loaded module whose name starts with
        one of ``prefixes``, and the attributes of the classes those
        modules define.  Returns the number of aliases rebound.
        """
        rebound = 0
        wrapped = self._wrapped
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(prefixes):
                continue
            namespaces = [module]
            namespaces += [
                value for value in vars(module).values()
                if inspect.isclass(value) and value.__module__ == name
            ]
            for space in namespaces:
                for key, value in list(vars(space).items()):
                    hit = wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(space, key, hit[1])
                        rebound += 1
        return rebound

    # -- output ----------------------------------------------------------
    def export(self) -> dict:
        """Statistics and spans as plain JSON data (crosses processes)."""
        return {
            "stats": {
                name: {
                    "calls": s.calls, "incl_s": s.incl_s,
                    "self_s": s.self_s, "extra": s.extra,
                }
                for name, s in self.stats.items()
            },
            "spans": [
                [name, start - self.origin, took, depth]
                for name, start, took, depth in self.spans
            ],
            "spans_dropped": self.spans_dropped,
        }

    @staticmethod
    def merge_stats(into: dict[str, Stat], exported: dict) -> None:
        for name, data in exported["stats"].items():
            stat = into.setdefault(name, Stat())
            stat.calls += data["calls"]
            stat.incl_s += data["incl_s"]
            stat.self_s += data["self_s"]
            for key, value in data["extra"].items():
                stat.bump(key, value)


def chrome_trace(processes: list[tuple[str, dict]], metadata: dict) -> dict:
    """Chrome trace-event JSON for exported tracers, one track each."""
    events: list[dict] = []
    for pid, (label, exported) in enumerate(processes, start=1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": label},
        })
        for name, start, took, depth in exported["spans"]:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": round(start * 1e6, 3), "dur": round(took * 1e6, 3),
                "pid": pid, "tid": 1, "args": {"depth": depth},
            })
    dropped = sum(exported["spans_dropped"] for _, exported in processes)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {**metadata, "spans_dropped": dropped},
    }


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle)
