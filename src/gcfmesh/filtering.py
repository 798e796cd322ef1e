"""The Gaussian curvature filter (GCF): an implicit, single-parameter,
iterative vertex filter.

Each vertex moves along the reversed differential coordinate (its position
minus the 1-ring centroid, negated and normalized) by the smallest absolute
projection of any ring edge onto any candidate normal. The candidates form
one block: candidate 0 is the area-weighted vertex normal, summed in ring
order so that stored face winding does not change it, and candidates 1..d
are one cross-product normal per ring neighbor. Whenever some candidate
normal is perpendicular to a ring edge the projection minimum is zero and
the vertex stays put, which is what preserves creases, corners, and
developable regions.

Vertices are swept domain by domain in ascending color order, in place on
one column-major working copy of the positions. Positions change between
domains (Gauss-Seidel across domains), while every vertex of a domain reads
them as they stood when the domain's pass began (Jacobi within a domain):
a pass runs the kernel on all of the domain's blocks, which are cut once
before the first sweep, and writes their rows back only after the last
block has returned, so no snapshot is taken. Boundary and non-manifold
vertices are never moved.

Degeneracy cutoffs are relative to the input mesh's mean edge length e:
a differential coordinate shorter than 1e-14*e yields no direction, and
normal candidates with magnitude below 1e-14*e^2 are dropped.

A block holds rows of one ring size d, at most _BLOCK and fewer above
degree 6: its (rows, d+1, d) projection holds no more entries than a
_BLOCK-row degree-6 block's, or one row's if that is more. Per-row
arithmetic has a fixed internal order, so the output is bitwise
independent of the worker count and of the cut. The kernel gathers a block
into component-major (3, d+2, rows) storage whose first column repeats the
ring's last neighbor and whose last column repeats its first, so every x,
y or z slice is contiguous and the edges, the chords between neighbors and
their successors are slices of two subtractions. Only the batched
projection copies its operands to C order, to stay on one BLAS path. The
minimum projection is taken per normal over the edges first, so the
degenerate normals are masked in a (rows, d+1) array instead of the full
projection. Each temporary is freed after its last use, the candidates
are scaled in place, and the projection is taken in row slices of at most
_PROJ // 2 entries, as many as a full degree-6 block's edge arrays hold.

Ring sums and minima run one numpy call per ring slice while the ring
axis has at most _LONG_RING entries, which beats a reduction's short inner
loop per row on the big blocks of low-degree vertices. A longer ring axis
is reduced in one call, so the reductions of a degree-320 cap centre take
six numpy calls instead of about 1,300. Both forms add in ring order and
take exact minima, so they agree bit for bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coloring import DomainColoring
from .curvature import curvature_field, gaussian_curvature_energy
from .errors import DegenerateMeshError
from .mesh import (MeshTopology, TriangleMesh, _check_count, _check_finite, _check_match,
                   _check_overflow, _cross3, _mean_length, _movable, _norm, _trim_heap, _unit)

DIRECTION_TOL = 1e-14  # times mean edge length
NORMAL_TOL = 1e-14     # times mean edge length squared

_BLOCK = 4096          # rows per degree-6 kernel call; blocks are what threads share
_PROJ = _BLOCK * 42    # projection entries of a full degree-6 block
_LONG_RING = 40        # a ring axis longer than this is reduced in one numpy call


@dataclass
class FilterConfig:
    """iterations (an integer >= 1) is the filter's only shape parameter;
    threads (an integer >= 0) sets the worker count, and 0 picks
    os.cpu_count(); capture_trace records the interior curvature energy
    before the first and after every iteration."""

    iterations: int
    threads: int = 0
    capture_trace: bool = False

    def __post_init__(self):
        _check_count("iterations", self.iterations, 1)
        _check_count("threads", self.threads, 0)


@dataclass(eq=False)
class FilterTrace:
    """Interior curvature energy per iteration; entry 0 is the input mesh."""

    gce_per_iteration: list


def _build_plan(topology: MeshTopology, coloring: DomainColoring):
    """Cut each domain's movable vertices into the dense ring index blocks
    the kernel consumes: per domain, a list of (rows, rings) pairs, each of
    one ring size."""
    movable = _movable(topology)
    plan = []
    for domain in coloring.domains:
        domain = np.asarray(domain)
        rows_all = domain[movable[domain]]
        blocks = []
        sizes = topology.ring_sizes[rows_all]
        for d in np.flatnonzero(np.bincount(sizes)):
            rows = rows_all[sizes == d]
            cols = np.arange(d, dtype=np.int64)
            rings = topology.ring_flat[
                topology.ring_indptr[rows][:, None] + cols[None, :]
            ]
            block = min(_BLOCK, max(1, _PROJ // ((d + 1) * d)))
            blocks += [(rows[lo:lo + block], rings[lo:lo + block])
                       for lo in range(0, len(rows), block)]
        plan.append(blocks)
    return plan


def _ring_sum(v):
    """v.sum(axis=1) of a (rows, degree, ...) block, bitwise: numpy adds the
    ring axis in order from +0.0 and so does this loop, one whole slice per
    step instead of ufunc.reduce's short inner loop per row. A long ring is
    one in-order accumulate from its first term instead; adding +0.0 turns
    a sum of -0.0 terms into the +0.0 that a sum from +0.0 gives."""
    if v.shape[1] > _LONG_RING:
        out = np.add.accumulate(v, axis=1)[:, -1]
        out += 0.0
        return out
    out = np.zeros_like(v[:, 0])
    for k in range(v.shape[1]):
        out += v[:, k]
    return out


def _ring_min(v):
    """v.min(axis=-1): one call along a long last axis, one np.minimum per
    slice along a short one, where the slices are faster than a
    reduction's short inner loop per row. Both are exact, so they agree
    bitwise."""
    if v.shape[-1] > _LONG_RING:
        return v.min(axis=-1)
    out = np.minimum(v[..., 0], v[..., -1])
    for k in range(1, v.shape[-1] - 1):
        np.minimum(out, v[..., k], out=out)
    return out


def _kernel(snapshot, rows, rings, dir_tol, normal_tol):
    """New positions for one block of same-degree vertices.

    The k-th incident face of an interior manifold vertex is (vertex,
    ring[k], ring[k+1]), so candidate 0, the area-weighted vertex normal,
    is half the sum of cross products of consecutive ring edges. Candidates
    1..d cross consecutive ring differences; their sign is irrelevant
    because only absolute projections are used. Every reduction runs along
    a fixed-length axis, so a row's result does not depend on which other
    rows share the block. An overflowing candidate magnitude raises
    DegenerateMeshError ("face area").
    """
    d = rings.shape[1]
    wrapped = np.empty((d + 2, len(rows)), dtype=rings.dtype)
    wrapped[0], wrapped[1:-1], wrapped[-1] = rings[:, -1], rings.T, rings[:, 0]
    vi = np.take(snapshot.T, rows, axis=1)
    ring = np.take(snapshot.T, wrapped, axis=1)
    spokes = (ring[:, 1:] - vi[:, None]).T      # edges 0..d-1, then edge 0
    chords = (ring[:, 1:] - ring[:, :-1]).T     # ring[k] - ring[k-1], k = 0..d
    del wrapped, ring
    edges = spokes[:, :-1]

    direction, has_dir = _unit(_ring_sum(edges) / d, dir_tol)

    candidates = np.empty((3, d + 1, len(rows))).T
    with np.errstate(over="ignore", invalid="ignore"):
        _cross3(chords[:, :-1], chords[:, 1:], out=candidates[:, 1:])
        del chords
        candidates[:, 0] = 0.5 * _ring_sum(_cross3(edges, spokes[:, 1:]))
        mag = _norm(candidates)
    _check_overflow(mag, "face area")
    ok = mag >= normal_tol  # the rest stay unscaled: their minima become inf
    np.divide(candidates, mag[..., None], out=candidates, where=ok[..., None])
    normals = np.ascontiguousarray(candidates)
    del candidates, mag, spokes  # edges, a view, holds spokes until its copy
    edges = np.ascontiguousarray(edges.transpose(0, 2, 1))

    least = np.empty((len(rows), d + 1))
    step = max(1, _PROJ // 2 // ((d + 1) * d))
    for lo in range(0, len(rows), step):
        proj = normals[lo:lo + step] @ edges[lo:lo + step]
        np.abs(proj, out=proj)
        least[lo:lo + step] = _ring_min(proj)  # per normal, over edges
        del proj
    least[~ok] = np.inf
    dist = _ring_min(least)

    amplitude = np.where(has_dir & np.isfinite(dist), dist, 0.0)
    return vi.T + amplitude[:, None] * direction


def _drive(positions, topology, coloring, edge_scale, threads, iterations,
           capture_trace):
    """Sweep the column-major `positions` in place `iterations` times; each
    sweep visits every domain in ascending label order. A domain's blocks
    are all computed, on the pool if there is one, before any of their rows
    is written back, so each reads the positions as the pass found them.
    A pool is shut down and the heap trimmed once after the last sweep.
    Checks the coloring first; edge_scale None is the mean edge length.

    Returns a FilterTrace of the interior curvature energy before the first
    and after every sweep when capture_trace is set, else None.
    """
    _check_match(coloring.color_of, topology)
    if edge_scale is None:
        edge_scale = _mean_length(positions, *topology.edges)
    if not (np.isfinite(edge_scale) and edge_scale > 0):
        cause = ("do all vertices coincide, or are the coordinates too small "
                 "to square?" if np.isfinite(edge_scale)
                 else "are the coordinates too large to square?")
        raise DegenerateMeshError(
            f"edge scale {edge_scale} is not finite and positive ({cause})")
    tols = (DIRECTION_TOL * edge_scale, NORMAL_TOL * edge_scale * edge_scale)
    plan = _build_plan(topology, coloring)
    trace = [_interior_energy(positions, topology)] if capture_trace else None
    workers = threads if threads > 0 else (os.cpu_count() or 1)
    pool = ThreadPoolExecutor(workers) if workers > 1 else None

    def work(block):
        return _kernel(positions, *block, *tols)

    try:
        for _ in range(iterations):
            for blocks in plan:
                moved = list((pool.map if pool else map)(work, blocks))
                for (rows, _), new in zip(blocks, moved):
                    positions[rows] = new
            if trace is not None:
                trace.append(_interior_energy(positions, topology))
    finally:
        if pool is not None:
            pool.shutdown()
            _trim_heap()  # the exited workers' arenas keep their freed pages
    return FilterTrace(trace) if trace is not None else None


def _interior_energy(positions, topology):
    return gaussian_curvature_energy(
        curvature_field(positions, topology.faces, topology.is_boundary)
    )


def gcf_step(positions: np.ndarray, topology: MeshTopology,
             coloring: DomainColoring, *, edge_scale: float | None = None,
             threads: int = 1) -> np.ndarray:
    """One filter sweep over all domains; returns new positions.

    edge_scale defaults to the mean edge length of the given positions and
    anchors the degeneracy cutoffs; threads follows FilterConfig's rule. A
    NaN or infinite coordinate raises NonFiniteError naming its vertex, and
    positions or a coloring not of the topology's vertex count CountMismatch.
    """
    _check_count("threads", threads, 0)
    positions = np.array(positions, dtype=np.float64, order="F")
    _check_match(positions, topology)
    _check_finite(positions)
    _drive(positions, topology, coloring, edge_scale, threads, 1, False)
    return np.ascontiguousarray(positions)


def gcf_filter(mesh: TriangleMesh, topology: MeshTopology,
               coloring: DomainColoring, config: FilterConfig):
    """Apply the filter config.iterations times.

    Returns (filtered mesh, trace). The trace is None unless
    config.capture_trace is set; connectivity is shared unchanged and
    boundary/non-manifold vertices keep their exact input positions.
    Output positions are identical for any worker count. A mesh or coloring
    vertex count or faces not the topology's raise CountMismatch or
    ConnectivityMismatch.
    """
    _check_match(mesh.vertices, topology, mesh.faces)
    positions = np.array(mesh.vertices, order="F")
    trace = _drive(positions, topology, coloring, None, config.threads,
                   config.iterations, config.capture_trace)
    return TriangleMesh(positions, mesh.faces.copy()), trace
