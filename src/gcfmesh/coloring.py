"""Greedy domain decomposition: vertex coloring into independent sets.

Vertices are visited in ascending index order and each takes the smallest
color absent from its already-colored neighbors, so the result is
deterministic and uses at most max_degree + 1 colors. Vertices sharing a
color are never adjacent, which is what allows the filter to update a whole
color class simultaneously. A vertex hands its color on only to its
neighbors above it, its edge-list row: those below are colored already.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .mesh import MeshTopology

_CHUNK = 4096  # vertices whose rings are converted to Python ints at once


@dataclass(eq=False)
class DomainColoring:
    """color_of maps each vertex to a 0-based label; domains groups the
    vertex indices by label, each ascending."""

    color_of: np.ndarray
    domains: list

    @property
    def domain_count(self) -> int:
        return len(self.domains)


def greedy_domain_decomposition(topology: MeshTopology) -> DomainColoring:
    """Color vertices greedily so no edge joins two same-colored vertices."""
    n = topology.vertex_count
    # bit c of used[i] is set once a neighbor below i takes color c, so at
    # its turn used[i] holds its colored neighbors' colors
    used = [0] * n
    color = array("i", [0]) * n  # int32, 4 bytes a vertex
    upper, at = topology.upper_flat, 0
    for lo in range(0, n, _CHUNK):  # the edge-list rows of one chunk as Python ints
        ends = [0, *np.cumsum(topology.upper_sizes[lo:lo + _CHUNK]).tolist()]
        flat = upper[at:at + ends[-1]].tolist()
        at += ends[-1]
        for i, a, b in zip(range(lo, n), ends, ends[1:]):
            m = used[i]
            bit = ~m & (m + 1)  # the lowest clear bit
            color[i] = bit.bit_length() - 1
            for j in flat[a:b]:
                used[j] |= bit
    color_of = np.frombuffer(color, dtype=np.int32)
    k = int(color_of.max()) + 1 if n else 0
    domains = [np.flatnonzero(color_of == c).astype(np.int32) for c in range(k)]
    return DomainColoring(color_of=color_of, domains=domains)


def single_domain_coloring(vertex_count: int) -> DomainColoring:
    """All vertices in one domain: the no-decomposition (Jacobi) execution
    mode used to measure the convergence benefit of the greedy coloring.
    Not a proper coloring."""
    color_of = np.zeros(vertex_count, dtype=np.int32)
    return DomainColoring(
        color_of=color_of,
        domains=[np.arange(vertex_count, dtype=np.int32)],
    )
