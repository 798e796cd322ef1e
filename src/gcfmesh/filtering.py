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

Vertices are swept domain by domain in ascending color order: positions
are updated in place between domains (Gauss-Seidel across domains) while
all vertices of one domain read the positions as they stood when that
domain's pass began (Jacobi within a domain). Boundary and non-manifold
vertices are never moved.

Degeneracy cutoffs are relative to the input mesh's mean edge length e:
a differential coordinate shorter than 1e-14*e yields no direction, and
normal candidates with magnitude below 1e-14*e^2 are dropped.

The sweep runs one dense (rows x degree) kernel per block of at most
_BLOCK rows of a (domain, degree) group, so per-row arithmetic has a fixed
internal order and the output is bitwise independent of the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coloring import DomainColoring
from .curvature import curvature_field, gaussian_curvature_energy
from .errors import DegenerateMeshError
from .mesh import (MeshTopology, TriangleMesh, _cross3, _movable,
                   _releases_memory, _unit, mean_edge_length)

DIRECTION_TOL = 1e-14  # times mean edge length
NORMAL_TOL = 1e-14     # times mean edge length squared

_BLOCK = 4096          # rows per kernel call; blocks are what threads share


@dataclass
class FilterConfig:
    """iterations is the filter's only shape parameter; threads=0 picks
    os.cpu_count(); capture_trace records the interior curvature energy
    before the first and after every iteration."""

    iterations: int
    threads: int = 0
    capture_trace: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.threads < 0:
            raise ValueError("threads must be >= 0")


@dataclass(eq=False)
class FilterTrace:
    """Interior curvature energy per iteration; entry 0 is the input mesh."""

    gce_per_iteration: list


def _build_plan(topology: MeshTopology, coloring: DomainColoring):
    """Group each domain's movable vertices by ring size and pre-gather the
    dense ring index blocks the kernel consumes: one (rows, rings) pair per
    (domain, degree) group."""
    movable = _movable(topology)
    plan = []
    for domain in coloring.domains:
        domain = np.asarray(domain)
        rows_all = domain[movable[domain]]
        groups = []
        sizes = topology.ring_sizes[rows_all]
        for d in np.unique(sizes):
            rows = rows_all[sizes == d]
            cols = np.arange(d, dtype=np.int64)
            rings = topology.ring_flat[
                topology.ring_indptr[rows][:, None] + cols[None, :]
            ]
            groups.append((rows, rings))
        plan.append(groups)
    return plan


def _ring_sum(v):
    """v.sum(axis=1) of a (rows, degree, ...) block, bitwise: numpy adds the
    ring axis in order from +0.0 and so does this loop, one whole slice per
    step instead of ufunc.reduce's short inner loop per row."""
    out = np.zeros(v.shape[:1] + v.shape[2:])
    for k in range(v.shape[1]):
        out += v[:, k]
    return out


def _kernel(snapshot, rows, rings, dir_tol, normal_tol):
    """New positions for one block of same-degree vertices.

    The k-th incident face of an interior manifold vertex is (vertex,
    ring[k], ring[k+1]), so candidate 0, the area-weighted vertex normal,
    is half the sum of cross products of consecutive ring edges. Candidates
    1..d cross consecutive ring differences; their sign is irrelevant
    because only absolute projections are used. Every reduction runs along
    a fixed-length axis, so a row's result does not depend on which other
    rows share the block.
    """
    vi = snapshot[rows]
    ring_pos = snapshot[rings]
    edges = ring_pos - vi[:, None, :]

    direction, has_dir = _unit(_ring_sum(edges) / rings.shape[1], dir_tol)

    vnormal = 0.5 * _ring_sum(_cross3(edges, np.roll(edges, -1, axis=1)))
    chain = ring_pos - np.roll(ring_pos, 1, axis=1)
    candidates = np.concatenate(
        [vnormal[:, None], _cross3(chain, np.roll(chain, -1, axis=1))], axis=1)
    normals, ok = _unit(candidates, normal_tol)

    proj = np.abs(normals @ edges.transpose(0, 2, 1))
    proj[~ok] = np.inf
    dist = proj.min(axis=(1, 2))

    amplitude = np.where(has_dir & np.isfinite(dist), dist, 0.0)
    return vi + amplitude[:, None] * direction


def _run_group(positions, snapshot, group, dir_tol, normal_tol, pool):
    rows, rings = group
    out = np.empty((len(rows), 3))

    def work(lo):
        hi = lo + _BLOCK
        out[lo:hi] = _kernel(snapshot, rows[lo:hi], rings[lo:hi],
                             dir_tol, normal_tol)

    starts = range(0, len(rows), _BLOCK)
    list(pool.map(work, starts) if pool and len(starts) > 1 else map(work, starts))
    positions[rows] = out


def resolve_threads(threads: int) -> int:
    return threads if threads > 0 else (os.cpu_count() or 1)


@_releases_memory
def _drive(positions, topology, coloring, edge_scale, threads, iterations,
           capture_trace):
    """Sweep `positions` in place `iterations` times; each sweep visits
    every domain in ascending label order.

    Returns a FilterTrace of the interior curvature energy before the first
    and after every sweep when capture_trace is set, else None.
    """
    if not (np.isfinite(edge_scale) and edge_scale > 0):
        raise DegenerateMeshError(
            f"edge scale {edge_scale} is not finite and positive "
            "(do all vertices coincide?)")
    dir_tol = DIRECTION_TOL * edge_scale
    normal_tol = NORMAL_TOL * edge_scale * edge_scale
    plan = _build_plan(topology, coloring)
    workers = resolve_threads(threads)
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    trace = [_interior_energy(positions, topology)] if capture_trace else None
    try:
        for _ in range(iterations):
            for groups in plan:
                if not groups:
                    continue
                snapshot = positions.copy()
                for group in groups:
                    _run_group(positions, snapshot, group, dir_tol, normal_tol, pool)
            if trace is not None:
                trace.append(_interior_energy(positions, topology))
    finally:
        if pool is not None:
            pool.shutdown()
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
    anchors the degeneracy cutoffs.
    """
    positions = np.array(positions, dtype=np.float64)
    if edge_scale is None:
        edge_scale = mean_edge_length(positions, topology.faces)
    _drive(positions, topology, coloring, edge_scale, threads, 1, False)
    return positions


def gcf_filter(mesh: TriangleMesh, topology: MeshTopology,
               coloring: DomainColoring, config: FilterConfig):
    """Apply the filter config.iterations times.

    Returns (filtered mesh, trace). The trace is None unless
    config.capture_trace is set; connectivity is shared unchanged and
    boundary/non-manifold vertices keep their exact input positions.
    Output positions are identical for any worker count.
    """
    positions = mesh.vertices.copy()
    trace = _drive(positions, topology, coloring,
                   mean_edge_length(mesh.vertices, mesh.faces),
                   config.threads, config.iterations, config.capture_trace)
    return TriangleMesh(positions, mesh.faces.copy()), trace
