"""In-memory spans around the calls into pqsing's layers.

A Tracer replaces a function at the name its caller looks it up under (a
module attribute) with a wrapper that records a span: name, start, end,
parent span and the operation it belongs to.  Nothing is written while a
run is traced; spans are aggregated, and optionally written out, only after
the traced operations have finished.
"""

from __future__ import annotations

import collections
import json
import time


class Tracer:
    """Span recorder; use as a context manager so every wrapper is removed.

    It can be entered again after it exits; spans and counts accumulate.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.counts = collections.Counter()
        self.op = None           # spans of one operation share this id
        self._stack = []
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.op])

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def active(self, name):
        """True while a span called `name` is open."""
        return any(self.spans[i][0] == name for i in self._stack)

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span called `name`."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            self._close()

    def wrap(self, module, attr, name, hook=None):
        """Trace module.attr until the tracer exits.

        `name` is a string or a function of (args, kwargs) giving one;
        `hook(args, kwargs, result)` runs after each call that returns.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            result = self.call(span, original, *args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def calls(self):
        """Number of spans per name."""
        return collections.Counter(span[0] for span in self.spans)

    def self_times(self):
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = collections.defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def total_times(self):
        out = collections.defaultdict(float)
        for name, start, end, _parent, _op in self.spans:
            out[name] += end - start
        return out

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
