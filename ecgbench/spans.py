"""In-memory spans around the program's public functions.

A span is (id, name, start, end, parent id); a span the benchmark times
itself also carries the speed scale of that timing (see workloads.Timed). Spans are kept in memory and
written as JSON when the run ends. Wrapping replaces a module or class
attribute as the calling module sees it, so no file of the program changes;
`restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent]
        self._stack = []
        self._patched = []

    def span(self, name):
        return _Span(self, name)

    def wrap(self, owner, attr, name):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as f:
            json.dump(
                [dict(zip(("id", "name", "start", "end", "parent", "scale"), s)) for s in self.spans], f
            )

    # ---- analysis ----------------------------------------------------

    def roots(self, name):
        """Spans called `name`, in order."""
        return [s for s in self.spans if s[1] == name]

    def self_times(self, root):
        """Self time summed by span name over the subtree under `root`
        (the root included). Children run one at a time, so a span's self
        time is its duration minus the sum of its children's durations."""
        children = {}
        for s in self.spans:
            children.setdefault(s[4], []).append(s)
        out = {}
        todo = [root]
        while todo:
            s = todo.pop()
            kids = children.get(s[0], [])
            own = (s[3] - s[2]) - sum(k[3] - k[2] for k in kids)
            out[s[1]] = out.get(s[1], 0.0) + own
            todo.extend(kids)
        return out

    def total(self, root, name):
        """Summed duration of spans called `name` under `root`."""
        children = {}
        for s in self.spans:
            children.setdefault(s[4], []).append(s)
        total = 0.0
        todo = list(children.get(root[0], []))
        while todo:
            s = todo.pop()
            if s[1] == name:
                total += s[3] - s[2]
            else:
                todo.extend(children.get(s[0], []))
        return total


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        parent = tracer._stack[-1][0] if tracer._stack else None
        self.record = [len(tracer.spans), name, 0.0, 0.0, parent]

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._stack.append(self.record)
        self.record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False
