"""Triangle mesh container, topology construction, and basic statistics.

The mesh is stored as a flat (n, 3) float64 vertex array plus an (f, 3)
int32 face-index array; the winding of each face is kept exactly as given.

Topology comes from one table of the 3f corner half-edges (center, start,
end) sorted by the int64 key center*n + start; each half-edge's
successor around its center starts where it ends and is found with
searchsorted. Fans in which every ring vertex starts and ends at most one
half-edge, with at most one open head, are walked in lockstep: closed fans
from their smallest start, open fans (boundary vertices) from their head.
The rest (inconsistent winding, three faces on one edge, several sheets at
one vertex, chains or cycles that stop short) go to a winding-agnostic
walk, and fans it cannot order are flagged non-manifold with a sorted ring.

The row helpers at the end (`_cross3`, `_dot`, `_norm`, `_unit`, `_angle`,
`_scatter`) are the one copy of each vector operation that the curvature,
metrics, filter and baseline modules share.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cached_property, partial, wraps

import numpy as np

from .errors import EmptyMeshError, FaceIndexError, NonFiniteError

try:  # glibc only: malloc_trim hands freed heap pages back to the OS
    _trim_heap = partial(ctypes.CDLL(None).malloc_trim, 0)
except (AttributeError, OSError, TypeError):
    _trim_heap = int  # no-op


def _releases_memory(fn):
    """Trim the heap before and after `fn`: a large call then neither stacks
    its peak on memory freed earlier nor leaves its temporaries resident."""
    @wraps(fn)
    def call(*args, **kwargs):
        _trim_heap()
        try:
            return fn(*args, **kwargs)
        finally:
            _trim_heap()

    return call


@dataclass(eq=False)
class TriangleMesh:
    """Vertex positions and triangle connectivity.

    vertices : (n, 3) float64 positions in model units.
    faces    : (f, 3) int32 vertex indices, 0-based, winding preserved.

    Construction validates that every coordinate is finite, that every face
    index is in range and that no face repeats a vertex.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(
            np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        )
        self.faces = np.ascontiguousarray(
            np.asarray(self.faces, dtype=np.int32).reshape(-1, 3)
        )
        if not np.isfinite(self.vertices).all():
            bad = int(np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))[0])
            raise NonFiniteError(f"vertex {bad} has a non-finite coordinate")
        if self.faces.size:
            lo = int(self.faces.min())
            hi = int(self.faces.max())
            if lo < 0 or hi >= len(self.vertices):
                bad = lo if lo < 0 else hi
                raise FaceIndexError(
                    f"face index {bad} outside valid range 0..{len(self.vertices) - 1}"
                )
            f = self.faces
            dup = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
            if dup.any():
                raise FaceIndexError(
                    f"face {int(np.flatnonzero(dup)[0])} repeats a vertex index"
                )

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def copy(self) -> "TriangleMesh":
        return TriangleMesh(self.vertices.copy(), self.faces.copy())


@dataclass
class MeshStats:
    """Global mesh statistics; mean_edge_length averages each undirected edge once."""

    mean_edge_length: float
    vertex_count: int
    face_count: int
    boundary_vertex_count: int


class MeshTopology:
    """Per-vertex ordered 1-rings and manifold flags.

    neighbors[i]    : ring of vertex i in fan order; a closed cycle for
                      interior manifold vertices, an open chain for boundary
                      vertices, sorted ascending where the fan is broken.
    is_boundary     : True iff the fan is a single open chain.
    is_manifold_fan : True iff the incident faces form a single open or
                      closed fan.

    `neighbors` is built on first access. The structure is immutable after
    construction and safe to share across threads. `faces` keeps a
    reference to the defining face array for the filter's energy trace (and
    `gcf_step`'s default edge scale), so the filter needs only positions
    plus a topology.
    """

    def __init__(self, faces, ring_flat, ring_indptr, is_boundary,
                 is_manifold_fan):
        self.faces = faces
        self.ring_flat = ring_flat
        self.ring_indptr = ring_indptr
        self.is_boundary = is_boundary
        self.is_manifold_fan = is_manifold_fan
        self.ring_sizes = np.diff(ring_indptr)

    @cached_property
    def neighbors(self):
        rp = self.ring_indptr.tolist()
        return [self.ring_flat[rp[i]:rp[i + 1]] for i in range(len(rp) - 1)]

    @property
    def vertex_count(self) -> int:
        return len(self.is_boundary)


def _try_undirected_walk(starts, ends):
    """Winding-agnostic fan walk; None unless the fan is a single chain or cycle."""
    m = len(starts)
    adj = {}
    unwalked = set()
    for u, w in zip(starts, ends):
        key = (u, w) if u < w else (w, u)
        if key in unwalked:
            return None  # two faces over the same ring edge
        unwalked.add(key)
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    if any(len(nbrs) > 2 for nbrs in adj.values()):
        return None
    loose = sorted(node for node, nbrs in adj.items() if len(nbrs) == 1)
    if len(loose) not in (0, 2):
        return None
    boundary = bool(loose)
    start = loose[0] if boundary else min(adj)
    ring = [start]
    prev = None
    node = start
    for _ in range(m):
        nbrs = adj[node]
        if prev is None and not boundary:
            nxt = min(nbrs)
        else:
            cand = [x for x in nbrs if x != prev]
            if not cand:
                return None
            nxt = cand[0]
        key = (node, nxt) if node < nxt else (nxt, node)
        unwalked.remove(key)
        prev, node = node, nxt
        if not boundary and node == start:
            break
        ring.append(node)
    if unwalked:
        return None
    return ring, boundary


@_releases_memory
def build_topology(mesh: TriangleMesh) -> MeshTopology:
    """Build ordered 1-rings from the sorted corner half-edge table.

    Non-manifold configurations are flagged, never rejected: their neighbor
    list falls back to the sorted adjacent-vertex set so that adjacency
    (and hence coloring) stays complete.
    """
    n = mesh.vertex_count
    faces = mesh.faces
    center = faces.ravel().astype(np.int64)
    start = faces[:, [1, 2, 0]].ravel()
    end = faces[:, [2, 0, 1]].ravel()
    order = np.argsort(center * n + start, kind="stable")
    center, start, end = center[order], start[order], end[order]
    key = center * n + start
    counts = np.bincount(center, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    # next half-edge around the same center: the one starting where this ends
    want = center * n + end
    nxt = np.minimum(np.searchsorted(key, want), len(key) - 1)
    nxt[key[nxt] != want] = -1
    incoming = np.bincount(nxt[nxt >= 0], minlength=len(key))
    tails = np.bincount(center[nxt < 0], minlength=n)
    simple = counts > 0
    simple[center[1:][key[1:] == key[:-1]]] = False  # a ring vertex starts twice
    simple[center[incoming > 1]] = False             # ... or ends twice
    first = indptr[:-1].copy()
    heads = np.flatnonzero(incoming == 0)
    first[center[heads]] = heads

    # walk every simple fan in lockstep; walk[indptr[i] + k] is the k-th
    # half-edge of fan i, and fans whose chain or cycle is short drop out
    walk = np.empty(len(key), dtype=np.int64)
    fans = np.flatnonzero(simple)
    cur = first[fans]
    k = 0
    while len(fans):
        walk[indptr[fans] + k] = cur
        k += 1
        more = counts[fans] > k
        fans = fans[more]
        cur = nxt[cur[more]]
        ok = (cur >= 0) & (cur != first[fans])
        simple[fans[~ok]] = False
        fans = fans[ok]
        cur = cur[ok]

    is_boundary = simple & (tails == 1)
    is_manifold = simple.copy()
    ring_sizes = np.where(simple, counts + is_boundary, 0)
    fallback = {}
    for i in np.flatnonzero((counts > 0) & ~simple).tolist():
        lo, hi = indptr[i], indptr[i + 1]
        su = start[lo:hi].tolist()
        sw = end[lo:hi].tolist()
        res = _try_undirected_walk(su, sw)
        is_manifold[i] = res is not None
        fallback[i], is_boundary[i] = res or (sorted(set(su) | set(sw)), False)
        ring_sizes[i] = len(fallback[i])

    ring_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ring_sizes, out=ring_indptr[1:])
    ring_flat = np.empty(ring_indptr[-1], dtype=np.int32)
    slots = np.flatnonzero(simple[center])
    ring_flat[slots + (ring_indptr - indptr)[center[slots]]] = start[walk[slots]]
    tail_of = np.flatnonzero(is_boundary & simple)
    ring_flat[ring_indptr[tail_of + 1] - 1] = end[walk[indptr[tail_of + 1] - 1]]
    for i, ring in fallback.items():
        ring_flat[ring_indptr[i]:ring_indptr[i + 1]] = ring
    return MeshTopology(
        faces=faces,
        ring_flat=ring_flat,
        ring_indptr=ring_indptr,
        is_boundary=is_boundary,
        is_manifold_fan=is_manifold,
    )


def _movable(topology: MeshTopology) -> np.ndarray:
    """The freeze policy of the filter and the baselines: only interior
    vertices of a single fan move; boundary and non-manifold vertices never
    do. A vertex without faces is never flagged manifold, so it stays too."""
    return ~topology.is_boundary & topology.is_manifold_fan


def unique_edges(faces: np.ndarray, return_counts: bool = False):
    """Undirected edge set of a face array, each edge once (sorted index pairs).

    Each edge is keyed as min*n + max in int64, so a 1-D unique yields the
    same lexicographic order as a row-wise unique of the index pairs.
    """
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    n = int(faces.max()) + 1 if faces.size else 1
    keys = e.min(axis=1).astype(np.int64) * n + e.max(axis=1)
    keys, counts = np.unique(keys, return_counts=True)
    edges = np.column_stack([keys // n, keys % n]).astype(faces.dtype)
    return (edges, counts) if return_counts else edges


def _mean_length(positions, edges):
    if len(edges) == 0:
        raise EmptyMeshError("mesh has no faces")
    return float(_norm(positions[edges[:, 0]] - positions[edges[:, 1]]).mean())


def mean_edge_length(positions: np.ndarray, faces: np.ndarray) -> float:
    """Mean length over unique undirected edges; EmptyMeshError without faces."""
    return _mean_length(positions, unique_edges(faces))


def mesh_stats(mesh: TriangleMesh) -> MeshStats:
    """Vertex/face/boundary counts plus the mean edge length."""
    edges, counts = unique_edges(mesh.faces, return_counts=True)
    boundary_vertices = np.unique(edges[counts == 1])
    return MeshStats(
        mean_edge_length=_mean_length(mesh.vertices, edges),
        vertex_count=mesh.vertex_count,
        face_count=mesh.face_count,
        boundary_vertex_count=int(len(boundary_vertices)),
    )


def _cross3(a, b):
    """Component-wise cross product along the last axis (length 3).

    Equivalent to np.cross but without its dtype/axis plumbing, which
    dominates kernel time on large blocks.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _dot(a, b):
    """Dot product along the last axis (length 3), bitwise equal to
    (a * b).sum(axis=-1) without ufunc.reduce's per-row inner loop.

    The terms are added left to right from +0.0, as numpy's reduce does, so
    a zero dot is +0.0 and never -0.0 (arctan2(0, -0.0) is pi, not 0).
    """
    out = a[..., 0] * b[..., 0]
    out += 0.0
    out += a[..., 1] * b[..., 1]
    out += a[..., 2] * b[..., 2]
    return out


def _norm(v):
    """Euclidean length along the last axis."""
    return np.sqrt(_dot(v, v))


def _unit(v, tol):
    """(v / |v|, |v| >= tol) along the last axis; vectors below tol are zero."""
    mag = _norm(v)
    ok = mag >= tol
    unit = np.zeros_like(v)
    np.divide(v, mag[..., None], out=unit, where=ok[..., None])
    return unit, ok


def _angle(a, b):
    """(angle between a and b, |a x b|) along the last axis; the angle is
    atan2(|a x b|, a . b), which stays accurate near 0 and pi."""
    sine = _norm(_cross3(a, b))
    return np.arctan2(sine, _dot(a, b)), sine


def _scatter(index, source, rows, n):
    """(n, 3) sums: row i adds up source[rows[k]] over every k with
    index[k] == i, in order of k. One column is gathered at a time."""
    out = np.empty((n, 3))
    for c in range(3):
        out[:, c] = np.bincount(index, weights=source[rows, c], minlength=n)
    return out
