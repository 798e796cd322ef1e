"""Discrete Gaussian curvature via angular deficit, plus face/vertex normals.

Per vertex, the deficit is 2*pi minus the sum of the incident triangle
angles at that vertex; dividing by the summed incident triangle areas gives
the discrete Gaussian curvature. The summed |K| over vertices is the
curvature energy used as the smoothing objective and convergence trace.

Lengths, normals, angles and per-vertex sums come from the row helpers in
`mesh`, shared with the filter, the metrics and the baselines. Angles are
atan2(|a x b|, a . b), stable near 0 and pi. |a x b| is twice the face
area at every corner of a face, so the curvature field takes one cross
product per face and uses its norm as the sine of all three corners; each
corner's dot comes from the two face edges that meet there. A face normal
divides the cross product by the same norm that gives the face area, and
the face is degenerate exactly when that norm is zero. `_unit` keeps
vectors whose length is >= its cutoff, so the strict vertex-normal cutoff
(degenerate at or below 1e-14 times the largest face area) passes it the
next float above that threshold.

Face and ring areas square a product of two edge lengths, which overflows
above about 1e77, and a vertex normal squares a sum of face areas: each is
computed without numpy warnings and then raises DegenerateMeshError through
`mesh._check_overflow` unless finite.

Corners are gathered with `np.take`, because fancy indexing is numpy's slow
path for rows, and one corner at a time, so no temporary is larger than the
mesh's (3f,) index arrays. The curvature field stores each corner
component-major, (3, faces), so each x, y or z slice it reads is
contiguous; `face_normals` keeps its corners C-ordered, like the arrays it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (MeshTopology, TriangleMesh, _check_overflow, _cross3, _dot,
                   _norm, _releases_memory, _scatter, _unit)


@dataclass(eq=False)
class CurvatureField:
    """Per-vertex curvature data.

    curvature : deficit / ring_area where ring_area > 0, else 0 (1/length^2).
    ring_area : sum of incident triangle areas (length^2).
    deficit   : angular deficit in radians.
    is_boundary : flags vertices whose deficit covers an incomplete fan;
                  these are excluded from the energy by default.
    """

    curvature: np.ndarray
    ring_area: np.ndarray
    deficit: np.ndarray
    is_boundary: np.ndarray


def face_normals(mesh: TriangleMesh):
    """Unit face normals, areas, and a degeneracy flag for zero-area faces.

    Returns (normals (f,3), areas (f,), degenerate (f,) bool). Degenerate
    faces keep a zero normal.
    """
    v = mesh.vertices
    f = mesh.faces
    p0, p1, p2 = (np.take(v, f[:, c], axis=0) for c in range(3))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        cross = _cross3(p1 - p0, p2 - p0)
        double_area = _norm(cross)
    _check_overflow(double_area, "face area")
    ok = double_area > 0
    normals = np.zeros_like(cross)
    np.divide(cross, double_area[:, None], out=normals, where=ok[:, None])
    return normals, 0.5 * double_area, ~ok


def vertex_normals(mesh: TriangleMesh, topology: MeshTopology):
    """Area-weighted average of incident face normals, normalized per vertex.

    Returns (normals (n,3), degenerate (n,) bool); vertices whose weighted
    sum nearly cancels (magnitude <= 1e-14 * max face area) get a zero
    normal and the flag. DegenerateMeshError if a magnitude overflows.
    """
    weighted, areas, _ = face_normals(mesh)
    weighted *= areas[:, None]
    acc = _scatter(mesh.faces.ravel(), weighted, np.arange(len(areas)).repeat(3),
                   mesh.vertex_count)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        magnitude = _norm(acc)
    _check_overflow(magnitude, "vertex normal")
    max_area = float(areas.max()) if len(areas) else 0.0
    normals, ok = _unit(acc, np.nextafter(1e-14 * max_area, np.inf))
    return normals, ~ok


def curvature_field(positions: np.ndarray, faces: np.ndarray,
                    is_boundary: np.ndarray) -> CurvatureField:
    """Curvature field of the given positions; is_boundary is stored as is.

    Shared by the public curvature field and the filter's energy trace.
    Vertices without incident faces keep the full 2*pi deficit, zero area
    and zero curvature.
    """
    n = len(positions)
    deficit = np.full(n, 2.0 * np.pi)
    ring_area = np.zeros(n)
    # corner c as an (f, 3) view of component-major (3, f) storage
    p = [np.take(positions.T, faces[:, c], axis=1).T for c in range(3)]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        # edge c runs from corner c to c + 1; corner c spans edges c, c - 1
        e = [p[(c + 1) % 3] - p[c] for c in range(3)]
        sines = _norm(_cross3(e[0], e[2]))
        areas = 0.5 * sines
        for c in range(3):
            # a . b with b the reversed edge c - 1; 0.0 - x negates exactly
            # and keeps a zero dot +0.0, so a collapsed corner's angle stays 0
            angles = np.arctan2(sines, 0.0 - _dot(e[c], e[c - 1]))
            deficit -= np.bincount(faces[:, c], weights=angles, minlength=n)
            ring_area += np.bincount(faces[:, c], weights=areas, minlength=n)
    _check_overflow(ring_area, "ring area")
    curvature = np.zeros(n)
    np.divide(deficit, ring_area, out=curvature, where=ring_area > 0)
    return CurvatureField(curvature, ring_area, deficit, is_boundary)


@_releases_memory
def gaussian_curvature(mesh: TriangleMesh, topology: MeshTopology) -> CurvatureField:
    """Discrete Gaussian curvature of every vertex (boundary vertices flagged)."""
    return curvature_field(mesh.vertices, mesh.faces, topology.is_boundary.copy())


def gaussian_curvature_energy(field: CurvatureField, include_boundary: bool = False) -> float:
    """Sum of |curvature| over vertices (interior only by default)."""
    if include_boundary:
        return float(np.abs(field.curvature).sum())
    return float(np.abs(field.curvature[~field.is_boundary]).sum())
