"""Triangle mesh container, topology construction, and basic statistics.

The mesh is stored as a flat (n, 3) float64 vertex array plus an (f, 3)
int32 face-index array; the winding of each face is kept exactly as given.

Topology comes from the 3f corner half-edges (center, start, end), sorted
by the int64 key center*n + start, and one lockstep fan walk, `_walk`, in
two passes. Pass 1 is directed: a half-edge's successor starts where it
ends; closed fans start at their smallest start, open fans (boundary
vertices) at their head. Pass 2 is winding-agnostic: the fans pass 1 left
enter a second table with each ring edge in both directions, and a
successor leaves the vertex where its half-edge ends without turning
straight back. A fan that neither pass orders (a ring edge twice, a ring
vertex on three ring edges, several sheets) is flagged non-manifold, with
its sorted neighbor set as the ring. `MeshTopology` takes the edge list,
each vertex's neighbors above it, from those rings.

The elementwise face, edge and half-edge passes here and in the curvature
and metrics modules run one block of `_FACE_BLOCK` faces at a time
(`_blocks`) and write into full-length arrays, so their temporaries stay a
few MB however large the mesh. Every reduction adds in the order it would
over one whole-mesh block, so no result depends on the block size.

Layout rule: every face and edge pass reads positions through `_gather`,
which copies them once into contiguous x, y and z columns (a view when the
positions are column-major) and takes each block's positions from those
columns with `np.take`. So each component of a gathered block is one
contiguous run, whatever the layout of the caller's array; rows gathered by
fancy indexing such as `positions[edges[:, 0]]` go through numpy's general
index iterator, two to five times slower.

The row helpers at the end (`_cross3`, `_dot`, `_norm`, `_unit`, `_angle`,
`_scatter`) are the one copy of each vector operation that the curvature,
metrics, filter and baseline modules share.
"""

from __future__ import annotations

import ctypes
import numbers
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (ConnectivityMismatch, CountMismatch, DegenerateMeshError,
                     EmptyMeshError, FaceIndexError, NonFiniteError)

# glibc only: malloc_trim hands freed heap pages back to the OS. Only the
# command line (after each phase) and the filter (after its worker pool)
# trim; a one-thread library call leaves its freed pages for the next.
try:
    _libc = ctypes.CDLL(None)
    _trim_heap = partial(_libc.malloc_trim, 0)
    _mallopt = _libc.mallopt
except (AttributeError, OSError, TypeError):
    _trim_heap = int  # no-op
    _mallopt = None


def _pin_heap_thresholds():
    """Pin glibc's mmap and trim thresholds at their 32 MiB ceiling. glibc
    raises both whenever it frees an mmapped block, so a call's peak RSS
    would hang on what the process freed before it; pinned, blocks below
    32 MiB come from the heap and stay there until a trim. Process-wide, so
    only the command line calls it."""
    if _mallopt is not None:
        for param in (-3, -1):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
            _mallopt(param, 32 << 20)


_FACE_BLOCK = 4096  # faces per block of the elementwise face, edge and half-edge passes


def _blocks(count, per_face=1):
    """Slices that cut `count` rows, `per_face` rows a face, into blocks of
    _FACE_BLOCK faces."""
    step = per_face * _FACE_BLOCK
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _gather(positions, *index):
    """(rows, points) for each block of _FACE_BLOCK entries of the index
    arrays: `rows` slices them and points[k] holds the (rows, 3) positions
    at index[k][rows], gathered from one contiguous copy of the x, y and z
    columns."""
    columns = np.ascontiguousarray(positions.T)
    for rows in _blocks(len(index[0])):
        yield rows, [np.take(columns, at[rows], axis=1).T for at in index]


def _check_finite(vertices):
    """NonFiniteError naming the first vertex with a NaN or inf coordinate."""
    if not np.isfinite(vertices).all():
        bad = int(np.flatnonzero(~np.isfinite(vertices).all(axis=1))[0])
        raise NonFiniteError(f"vertex {bad} has a non-finite coordinate")


def _check_overflow(values, what):
    """DegenerateMeshError naming `what` unless every value is finite."""
    if not np.isfinite(values).all():
        raise DegenerateMeshError(f"{what} overflows to inf "
                                  "(are the coordinates too large to square?)")


@dataclass(eq=False)
class TriangleMesh:
    """Vertex positions and triangle connectivity.

    vertices : (n, 3) float64 positions in model units.
    faces    : (f, 3) int32 vertex indices, 0-based, winding preserved.

    Construction validates that both arrays are (n, 3), that every
    coordinate is finite, that every face index is in range and that no
    face repeats a vertex.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(_n_by_3("vertices", self.vertices),
                                             dtype=np.float64)
        _check_finite(self.vertices)
        self.faces = f = np.ascontiguousarray(_face_indices(self.faces, len(self.vertices)),
                                              dtype=np.int32)
        dup = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        if dup.any():
            raise FaceIndexError(f"face {int(np.flatnonzero(dup)[0])} repeats a vertex index")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def face_count(self) -> int:
        return len(self.faces)


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
    upper_flat      : the int32 edge list: vertex i's neighbors above it,
                      ascending, in upper_sizes[i] entries; unique_edges' rows,
                      derived from the rings on construction.

    `neighbors` is built on first access. The structure is immutable after
    construction and safe to share across threads. `faces` keeps a
    reference to the defining face array for the filter's energy trace,
    and the edge list gives the filter and the noise their edge scale, so
    the filter needs only positions plus a topology.
    """

    def __init__(self, faces, ring_flat, ring_indptr, is_boundary, is_manifold_fan):
        self.faces = faces
        self.ring_flat = ring_flat
        self.ring_indptr = ring_indptr
        self.is_boundary = is_boundary
        self.is_manifold_fan = is_manifold_fan
        self.ring_sizes = np.diff(ring_indptr)
        # the edge list: the ring entries above their center, each row
        # sorted by one sort of the int64 keys center * n + neighbor; the
        # rows stay where they were, so taking center * n off leaves them
        n = len(is_boundary)
        center = np.repeat(np.arange(n, dtype=np.int32), self.ring_sizes)
        above = np.flatnonzero(ring_flat > center)
        center = np.take(center, above)
        offset = np.multiply(center, n, dtype=np.int64)
        key = offset + np.take(ring_flat, above)
        key.sort(kind="stable")
        key -= offset
        self.upper_flat = key.astype(np.int32)
        self.upper_sizes = np.bincount(center, minlength=n).astype(np.int32)

    @cached_property
    def neighbors(self):
        rp = self.ring_indptr.tolist()
        return [self.ring_flat[rp[i]:rp[i + 1]] for i in range(len(rp) - 1)]

    @property
    def vertex_count(self) -> int:
        return len(self.is_boundary)

    @property
    def edges(self):
        """(lower, upper): the int32 ends of the edge list's edges."""
        return np.repeat(np.arange(len(self.upper_sizes), dtype=np.int32),
                         self.upper_sizes), self.upper_flat


def _walk(done, first, nxt, counts, indptr, walk):
    """Follow `nxt` from first[i] for counts[i] half-edges around every fan i
    flagged in `done`, in lockstep, writing the k-th to walk[indptr[i] + k];
    a fan whose chain stops short or whose cycle closes early is unflagged."""
    fans = np.flatnonzero(done)
    cur = first[fans]
    k = 0
    while len(fans):
        walk[indptr[fans] + k] = cur
        k += 1
        more = counts[fans] > k
        fans = fans[more]
        cur = nxt[cur[more]]
        ok = (cur >= 0) & (cur != first[fans])
        done[fans[~ok]] = False
        fans = fans[ok]
        cur = cur[ok]
    return done


def build_topology(mesh: TriangleMesh) -> MeshTopology:
    """Build ordered 1-rings from the sorted corner half-edge table.

    Non-manifold configurations are flagged, never rejected: their neighbor
    list falls back to the sorted adjacent-vertex set so that adjacency
    (and hence coloring) stays complete.
    """
    n = mesh.vertex_count
    faces = mesh.faces
    m = faces.size
    # vertex ids and half-edge indices (pass 2 adds up to 2m rows) are
    # int32 while they fit; only the sort keys are int64
    index = np.int32 if 3 * m < 2**31 else np.int64
    counts = np.bincount(faces.ravel(), minlength=n)
    key = faces.ravel().astype(np.int64)
    key *= n
    key += faces[:, [1, 2, 0]].ravel()
    order = np.argsort(key, kind="stable").astype(index)
    del key
    start = faces[:, [1, 2, 0]].ravel()[order]
    end = faces[:, [2, 0, 1]].ravel()[order]
    del order
    center = np.repeat(np.arange(n, dtype=np.int32), counts)
    key = center.astype(np.int64)
    key *= n
    key += start
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    # pass 1, directed: a half-edge's successor starts where it ends; the
    # half-edges of one face block at a time look theirs up and count it in
    nxt = np.empty(m, dtype=index)
    incoming = np.zeros(m, dtype=index)
    for rows in _blocks(m, 3):
        want = center[rows].astype(np.int64) * n + end[rows]
        j = np.minimum(np.searchsorted(key, want), m - 1).astype(index)
        found = key[j] == want
        nxt[rows] = np.where(found, j, -1)
        j = j[found]
        np.add.at(incoming, j, np.ones(len(j), dtype=index))
    again = key[1:] == key[:-1]
    simple = counts > 0
    simple[center[1:][again]] = False  # a ring vertex starts twice
    simple[center[incoming > 1]] = False             # ... or ends twice
    del key, again
    first = indptr[:-1].astype(index)
    heads = np.flatnonzero(incoming == 0)
    first[center[heads]] = heads
    del incoming, heads
    walk = np.empty(m, dtype=index)
    manifold = _walk(simple, first, nxt, counts, indptr, walk)

    # pass 2, winding-agnostic: each ring edge of the fans pass 1 left, in
    # both directions, sorted by (center, start, end) as rows h, h + 1, ...
    h = m
    rows = np.flatnonzero(~manifold[center])
    c2 = center[rows].astype(np.int64) * n
    key2 = np.concatenate([c2 + start[rows], c2 + end[rows]])  # center * n + start
    del c2
    s2 = np.concatenate([start[rows], end[rows]])
    e2 = np.concatenate([end[rows], start[rows]])
    del rows
    order = np.lexsort((e2, key2))
    key2, s2, e2 = key2[order], s2[order], e2[order]
    del order
    same = np.diff(key2, prepend=-1, append=-1) == 0  # rows i - 1, i share a start
    todo = (counts > 0) & ~manifold
    todo[key2[1:][same[1:-1] & (e2[1:] == e2[:-1])] // n] = False  # edge twice
    todo[key2[same[:-1] & same[1:]] // n] = False  # a vertex on three edges
    # a successor leaves the vertex where its half-edge ends: by that
    # vertex's first row p, or by row p + 1 if p turns straight back
    p = np.searchsorted(key2, key2 - s2 + e2)
    nxt = np.concatenate([nxt, np.where(same[1:][p], p + (e2[p] == s2) + h, -1)],
                         dtype=index)
    # a cycle starts at its smallest vertex toward that vertex's smallest
    # neighbor, a chain at its smallest loose end
    left = np.flatnonzero(todo)
    first[left] = np.searchsorted(key2, left * n) + h
    loose = np.flatnonzero(~(same[:-1] | same[1:]))
    loose = loose[np.diff(key2[loose] // n, prepend=-1) != 0]
    first[key2[loose] // n] = loose + h
    del p
    start = np.concatenate([start, s2])  # one grown copy alive at a time
    end = np.concatenate([end, e2])
    del s2, e2
    manifold |= _walk(todo, first, nxt, counts, indptr, walk)

    # the fans left take their sorted neighbor set: each run's first key
    rest = key2[~same[:-1] & ~manifold[key2 // n]]
    del key2, same, first
    fans = np.flatnonzero(manifold)
    last = walk[indptr[fans + 1] - 1]
    chain = nxt[last] < 0
    del indptr, nxt
    is_boundary = np.zeros(n, dtype=bool)
    is_boundary[fans[chain]] = True
    ring_sizes = np.where(manifold, counts + is_boundary,
                          np.bincount(rest // n, minlength=n))
    del counts
    ring_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ring_sizes, out=ring_indptr[1:])
    ring_flat = np.empty(ring_indptr[-1], dtype=np.int32)
    walked = np.repeat(manifold, ring_sizes)
    ring_flat[~walked] = rest % n
    tails = ring_indptr[fans[chain] + 1] - 1
    ring_flat[tails] = end[last[chain]]
    del end, fans, last, chain
    walked[tails] = False
    walk = walk[manifold[center]]  # the walked half-edges, fan by fan
    del center
    ring_flat[walked] = np.take(start, walk)
    del start, walk, walked, rest  # before the edge list is sorted out of the rings
    return MeshTopology(faces, ring_flat, ring_indptr, is_boundary, manifold)


def _check_count(name, value, least, error=ValueError):
    """The one rule for a public count: an integer, not a bool, of at least
    `least`, else `error`: ValueError, or in the generators BadResolution."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}")


def _check_match(positions, topology, faces=None):
    """CountMismatch unless `positions` (or a coloring's color_of) has a row
    per topology vertex; ConnectivityMismatch unless `faces`, if given, match.
    Only `topology.vertex_count` and `topology.faces` are read, so a mesh
    can stand in for its topology: the messages then name "the reference"."""
    what = "topology" if isinstance(topology, MeshTopology) else "reference"
    if len(positions) != topology.vertex_count:
        raise CountMismatch(f"{len(positions)} vertices, {topology.vertex_count} in the {what}")
    if not (faces is None or faces is topology.faces or np.array_equal(faces, topology.faces)):
        raise ConnectivityMismatch(f"the mesh's faces are not the {what}'s")


def _n_by_3(name, values):
    """The one (n, 3) rule for a raw vertex or face array: `values` as an
    array of rows of three, an empty one as (0, 3); else ValueError naming
    `name` and its shape."""
    values = np.asarray(values)
    if values.size == 0:
        return values.reshape(0, 3)
    if values.ndim != 2 or values.shape[1] != 3:
        raise ValueError(f"{name} must be (n, 3), not {values.shape}")
    return values


def _face_indices(faces, n=None):
    """The one index rule for raw faces: (f, 3) by `_n_by_3`, and every index
    an integer of at least 0 and, when `n` is given, below n, else
    FaceIndexError. Checked as given, so 2**32 + 2 or 2.7 is never wrapped
    or truncated; integral floats come back as int64."""
    faces = _n_by_3("faces", faces)
    if faces.size:
        lo, hi = faces.min(), faces.max()
        if not (lo >= 0 and hi < (np.inf if n is None else n)):  # NaN fails here too
            bad = hi if lo >= 0 else lo
            valid = ">= 0" if n is None else f"0..{n - 1}"
            raise FaceIndexError(f"face index {bad} outside valid range {valid}")
    if faces.dtype.kind not in "iu":
        whole = faces.astype(np.int64)
        fractional = faces[whole != faces]
        if len(fractional):
            raise FaceIndexError(f"face index {fractional[0]} is not an integer")
        faces = whole
    return faces


def _movable(topology: MeshTopology) -> np.ndarray:
    """The freeze policy of the filter and the baselines: only interior
    vertices of a single fan move; boundary and non-manifold vertices never
    do. A vertex without faces is never flagged manifold, so it stays too."""
    return ~topology.is_boundary & topology.is_manifold_fan


_KEYED = 3037000499  # isqrt(2**63): n up to this keeps every key min*n + max < n*n in int64


def unique_edges(faces: np.ndarray, return_counts: bool = False):
    """Undirected edge set of a face array, each edge once (sorted index pairs).

    Each edge is keyed as min*n + max in int64, so sorted keys give the
    lexicographic order of a row-wise unique of the index pairs. The keys
    are sorted in place and each run of equal keys is one edge and its
    count, which is what np.unique returns. FaceIndexError for an index
    above 3037000498, whose keys would overflow.
    """
    faces = _face_indices(faces)
    f = len(faces)
    n = int(faces.max()) + 1 if faces.size else 1
    if n > _KEYED:
        raise FaceIndexError(
            f"face index {n - 1} above {_KEYED - 1}, the largest an int64 edge key holds")
    keys = np.empty(3 * f, dtype=np.int64)
    for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        side = keys[k * f:(k + 1) * f]
        np.minimum(faces[:, a], faces[:, b], out=side)
        side *= n
        side += np.maximum(faces[:, a], faces[:, b])
    del side  # a view that would keep all of `keys` alive
    keys.sort()
    bounds = np.ones(len(keys) + 1, dtype=bool)  # a run starts at i, or i is the end
    np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
    keys = keys[bounds[:-1]]
    edges = np.empty((len(keys), 2), dtype=faces.dtype)
    np.floor_divide(keys, n, out=edges[:, 0])
    np.remainder(keys, n, out=edges[:, 1])
    del keys
    return (edges, np.diff(np.flatnonzero(bounds))) if return_counts else edges


def _mean_length(positions, lower, upper):
    """Mean length of the edges (lower[k], upper[k]), one block of edges at
    a time, then averaged over all edges at once; DegenerateMeshError on overflow."""
    if len(upper) == 0:
        raise EmptyMeshError("mesh has no faces")
    lengths = np.empty(len(upper))
    with np.errstate(over="ignore"):  # reported below, not as a warning
        for rows, (a, b) in _gather(positions, lower, upper):
            lengths[rows] = _norm(a - b)
        mean = float(lengths.mean())
    _check_overflow(mean, "mean edge length")
    return mean


def mean_edge_length(positions: np.ndarray, faces: np.ndarray) -> float:
    """Mean length over unique undirected edges. Positions and faces follow
    TriangleMesh's rules (ValueError, NonFiniteError, FaceIndexError), but a
    face may repeat a vertex; EmptyMeshError without faces,
    DegenerateMeshError if the mean overflows."""
    positions = _n_by_3("positions", positions)
    _check_finite(positions)
    return _mean_length(positions, *unique_edges(_face_indices(faces, len(positions))).T)


def mesh_stats(mesh: TriangleMesh) -> MeshStats:
    """Vertex/face/boundary counts plus the mean edge length."""
    edges, counts = unique_edges(mesh.faces, return_counts=True)
    boundary = np.count_nonzero(np.bincount(edges[counts == 1].ravel()))
    return MeshStats(
        mean_edge_length=_mean_length(mesh.vertices, *edges.T),
        vertex_count=mesh.vertex_count,
        face_count=mesh.face_count,
        boundary_vertex_count=int(boundary),
    )


def _cross3(a, b, out=None):
    """Component-wise cross product along the last axis (length 3).

    Bitwise np.cross but without its dtype/axis plumbing, which dominates
    kernel time on large blocks. The result goes to `out` if given, else to
    a new array laid out like `a` (a and b have one shape): each component's
    first product is written into `out` and the second, its one temporary,
    subtracted in place. `out` must not overlap a or b.
    """
    if out is None:
        out = np.empty_like(a, dtype=np.float64)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    x, y, z = out[..., 0], out[..., 1], out[..., 2]
    np.multiply(a1, b2, out=x)
    x -= a2 * b1
    np.multiply(a2, b0, out=y)
    y -= a0 * b2
    np.multiply(a0, b1, out=z)
    z -= a1 * b0
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
        out[:, c] = np.bincount(index, weights=np.take(source[:, c], rows),
                                minlength=n)
    return out
