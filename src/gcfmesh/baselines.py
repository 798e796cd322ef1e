"""Umbrella-Laplacian and Taubin smoothing baselines for comparisons.

Both are synchronous per-iteration updates toward (or away from) the 1-ring
centroid; boundary and non-manifold vertices stay fixed, matching the
freeze policy of the curvature filter.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshTopology, TriangleMesh, _check_count, _check_match, _movable, _scatter


def _smooth(mesh, topology, iterations, factors):
    """Run one umbrella pass per factor in `factors`, `iterations` times:
    every movable vertex moves by factor * (ring centroid - vertex)."""
    _check_count("iterations", iterations, 0)
    _check_match(mesh.vertices, topology, mesh.faces)
    n = mesh.vertex_count
    deg = topology.ring_sizes
    center = np.repeat(np.arange(n), deg)
    has_ring = (deg > 0)[:, None]
    movable = _movable(topology)[:, None]
    positions = mesh.vertices.copy()
    for _ in range(iterations):
        for factor in factors:
            centroids = _scatter(center, positions, topology.ring_flat, n)
            np.divide(centroids, deg[:, None], out=centroids, where=has_ring)
            np.add(positions, factor * (centroids - positions), out=positions,
                   where=movable)
    return TriangleMesh(positions, mesh.faces.copy())


def laplacian_smooth(mesh: TriangleMesh, topology: MeshTopology,
                     iterations: int, lam: float = 0.5) -> TriangleMesh:
    """Umbrella operator: v <- v + lam * (centroid(ring) - v), repeated."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    return _smooth(mesh, topology, iterations, (lam,))


def taubin_smooth(mesh: TriangleMesh, topology: MeshTopology,
                  iterations: int, lam: float = 0.5,
                  mu: float = -0.53) -> TriangleMesh:
    """Alternating lam/mu umbrella passes; mu < -lam gives the classic
    anti-shrinkage behavior, mu = 0 degenerates to plain umbrella smoothing."""
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be finite and > 0")
    if not (np.isfinite(mu) and mu <= 0.0):
        raise ValueError("mu must be finite and <= 0")
    return _smooth(mesh, topology, iterations, (lam, mu))
