"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over tens of seconds. The kernel below uses nothing from
gcfmesh. It mixes the kinds of work the library does, in roughly equal
parts: text formatting, a file round trip and parsing in the interpreter
(like OBJ io), many numpy calls on small arrays (like the filter on small
blocks), and dense (rows x 6 x 3) block arithmetic over a 50k-row working
set (like the filter on large blocks, split across `threads`). Timing it
next to every operation turns the operation's wall time into a cost in
reference passes, which a change to gcfmesh moves and host drift mostly
does not.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LINES = 6_000    # vertex lines formatted, written and parsed per pass
SMALL = 2_000    # rows of the small-array calls
SMALL_CALLS = 250
ROWS = 50_000    # rows of the dense-block working set
BLOCK = 12_500   # rows of one dense block


class Reference:
    """Inputs made once from a fixed seed; `seconds()` times one pass."""

    def __init__(self, workdir, threads=1):
        rng = np.random.default_rng(20_200_320)
        self.path = os.path.join(workdir, "reference.txt")
        self.threads = threads
        self.lines = rng.standard_normal((LINES, 3)).tolist()
        self.points = rng.standard_normal((ROWS, 3))
        self.index = rng.integers(0, ROWS, size=(ROWS, 6))
        self.small = rng.standard_normal((SMALL, 3))
        self.small_index = rng.integers(0, SMALL, size=SMALL)
        self.pool = ThreadPoolExecutor(threads) if threads > 1 else None

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def _text(self):
        with open(self.path, "w") as fh:
            fh.write("".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in self.lines))
        rows = []
        with open(self.path) as fh:
            for line in fh:
                tokens = line.split()
                if tokens[0] == "v":
                    rows.append([float(t) for t in tokens[1:4]])
        return rows

    def _small_numpy(self):
        acc = self.small
        for _ in range(SMALL_CALLS):
            cross = np.cross(acc, acc[self.small_index])
            norm = np.sqrt((cross * cross).sum(axis=1))
            acc = acc + 1e-9 * cross / (norm[:, None] + 1.0)
        return acc

    def _blocks(self, part):
        rows = slice(part * ROWS // self.threads, (part + 1) * ROWS // self.threads)
        index = self.index[rows]
        for start in range(0, len(index), BLOCK):
            ring = self.points[index[start:start + BLOCK]]
            edges = ring - ring[:, :1, :]
            nxt = np.roll(edges, -1, axis=1)
            cross = np.empty_like(edges)
            cross[..., 0] = edges[..., 1] * nxt[..., 2] - edges[..., 2] * nxt[..., 1]
            cross[..., 1] = edges[..., 2] * nxt[..., 0] - edges[..., 0] * nxt[..., 2]
            cross[..., 2] = edges[..., 0] * nxt[..., 1] - edges[..., 1] * nxt[..., 0]
            norm = np.sqrt((cross * cross).sum(axis=2))
            proj = np.abs(np.einsum("mkc,mdc->mkd", cross, edges))
            proj.min(axis=(1, 2)) / (norm.max(axis=1) + 1.0)

    def seconds(self):
        """Wall time of one pass of the kernel."""
        start = time.perf_counter()
        self._text()
        self._small_numpy()
        if self.pool is None:
            self._blocks(0)
        else:
            list(self.pool.map(self._blocks, range(self.threads)))
        return time.perf_counter() - start
