"""In-memory span recorder for the benchmark's traced runs.

A span covers one call from the benchmark into a layer's public function:
its name (`<layer>.<function>`), start, end, parent span and the id of the
operation it belongs to.  Counts ride on the span as attributes, so they are
recorded at the same boundary as the time.  Spans stay in memory until
`dump` writes them out at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "attrs")

    def __init__(self, id, name, op, parent, start, end=None, attrs=None):
        self.id = id
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    def to_dict(self):
        return {"id": self.id, "name": self.name, "op": self.op,
                "parent": self.parent, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Tracer:
    """Span and count recorder; with `enabled=False` every call is a no-op."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self.absent = []
        self._stack = []

    def span(self, name, op=None):
        """Context manager yielding the open `Span` (or None when disabled).

        `op` defaults to the enclosing span's operation id.
        """
        if not self.enabled:
            return nullcontext()
        return self._open(name, op)

    @contextmanager
    def _open(self, name, op):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent.op
        sp = Span(len(self.spans), name, op, parent.id if parent else None,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def merge(self, dumped):
        """Adopt spans and counts dumped by a child process (`dump` format);
        its root spans become children of the span open here."""
        base = len(self.spans)
        here = self._stack[-1].id if self._stack else None
        for d in dumped["spans"]:
            parent = here if d["parent"] is None else d["parent"] + base
            self.spans.append(Span(d["id"] + base, d["name"], d["op"], parent,
                                   d["start"], d["end"], d["attrs"]))
        for name, value in dumped["counts"].items():
            self.count(name, value)
        self.absent.extend(dumped["absent"])

    def self_times(self):
        """Per-layer self time: each span's duration minus the part of it
        that its child spans cover."""
        children = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = {}
        for sp in self.spans:
            covered = 0.0
            reach = sp.start
            for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
                lo, hi = max(ch.start, reach), min(ch.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[sp.layer] = out.get(sp.layer, 0.0) + sp.duration - covered
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [sp.to_dict() for sp in self.spans],
                       "counts": self.counts, "absent": self.absent}, fh)
