"""In-memory span recording around calls into the gcfmesh library.

Spans are taken from outside the program: each public function the
benchmark (or the `gcfmesh` CLI) calls is replaced by a wrapper that notes
name, start, end, parent span and operation id. Nothing inside `src/` is
instrumented, so a span's self time is the time spent in that call minus the
time spent in wrapped calls it made.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time


class Tracer:
    """Collects spans in memory; `op` is the id stamped on new spans."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = "setup"

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
        return traced

    @contextlib.contextmanager
    def patched(self, module, calls):
        """Route `module`'s references to the wrapped library functions
        through `calls` for the duration of the block."""
        saved = {}
        for name, fn in vars(calls).items():
            if name != "main" and hasattr(module, name):
                saved[name] = getattr(module, name)
                setattr(module, name, fn)
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def names(self):
        return {span["name"] for span in self.spans}

    def median_self(self, *names):
        values = [t for s, t in zip(self.spans, self.self_times())
                  if s["name"] in names]
        return statistics.median(values)

    def layer_self_per_op(self, ops):
        """Median over `ops` of each layer's summed self time in one op; the
        layer is the module part of the span name."""
        per_op = {op: {} for op in ops}
        for span, t in zip(self.spans, self.self_times()):
            if span["op"] in per_op:
                layer = span["name"].split(".")[0]
                per_op[span["op"]][layer] = per_op[span["op"]].get(layer, 0.0) + t
        layers = sorted({layer for d in per_op.values() for layer in d})
        return {layer: statistics.median(d.get(layer, 0.0) for d in per_op.values())
                for layer in layers}

    def write(self, path):
        with open(path, "w", newline="\n") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")
