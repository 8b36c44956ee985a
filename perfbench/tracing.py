"""Spans around public calls into the indecision modules.

The package is not edited: `Tracer.patched` swaps a module or class attribute
(the name a caller looks up at call time) for a wrapper and puts every
original back on exit.  With tracing on, the wrapper records a span; with it
off, it only passes the call through.  Either way it can keep the call's
arguments and result for the correctness gate, which costs one list append
per call.  Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Spans with name, parent span, start, end, the operation they belong
    to (spans of one operation share its id) and a tag (the shape a catalog
    span works on)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.kept: dict[str, list] = {}
        self.op = None
        self.tag = None
        self._stack: list[int] = []

    def wrap(self, name, fn, keep=False):
        def traced(*args, **kwargs):
            if not self.enabled:
                result = fn(*args, **kwargs)
            else:
                span = {"id": len(self.spans), "name": name,
                        "parent": self._stack[-1] if self._stack else None,
                        "op": self.op, "tag": self.tag,
                        "start": time.perf_counter(), "end": None}
                self.spans.append(span)
                self._stack.append(span["id"])
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    span["end"] = time.perf_counter()
            if keep:
                self.kept.setdefault(name, []).append((args, result))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """targets: (owner, attribute, span name, keep) tuples; the owner is
        a module or a class whose attribute is replaced for the duration."""
        saved = []
        try:
            for owner, attr, name, keep in targets:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.wrap(name, saved[-1][2], keep))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def select(self, name, op=None, tag=None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and (op is None or s["op"] == op)
                and (tag is None or s["tag"] == tag)]

    def self_time(self, span) -> float:
        """Span duration minus the time its direct children cover."""
        children = duration(s for s in self.spans if s["parent"] == span["id"])
        return span["end"] - span["start"] - children

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")


def duration(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)
