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

Corners are read one block of faces at a time through `mesh._gather`, by
the layout rule in `mesh`. A block writes its elementwise results into
full-length arrays, and the curvature's bincounts then run over those
whole arrays. The vertex-normal sums add one block after another with
`np.add.at`, in face order from +0.0, which is the order and the bits of
one `np.bincount`. So no result depends on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (MeshTopology, TriangleMesh, _check_match, _check_overflow, _cross3,
                   _dot, _gather, _norm, _unit)


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


def _block_normals(corners):
    """(unit normals, twice the areas) of one block of faces from its corner
    positions; a face of zero area keeps a zero normal. DegenerateMeshError
    if an area overflows."""
    p0, p1, p2 = corners
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        cross = _cross3(p1 - p0, p2 - p0)
        double_area = _norm(cross)
    _check_overflow(double_area, "face area")
    normals = np.zeros_like(cross)
    np.divide(cross, double_area[:, None], out=normals,
              where=(double_area > 0)[:, None])
    return normals, double_area


def face_normals(mesh: TriangleMesh):
    """Unit face normals, areas, and a degeneracy flag for zero-area faces.

    Returns (normals (f,3), areas (f,), degenerate (f,) bool). Degenerate
    faces keep a zero normal.
    """
    normals = np.empty((mesh.face_count, 3))
    areas = np.empty(mesh.face_count)
    for rows, corners in _gather(mesh.vertices, *mesh.faces.T):
        normals[rows], areas[rows] = _block_normals(corners)
    degenerate = areas == 0
    areas *= 0.5
    return normals, areas, degenerate


def vertex_normals(mesh: TriangleMesh, topology: MeshTopology):
    """Area-weighted average of incident face normals, normalized per vertex.

    Returns (normals (n,3), degenerate (n,) bool); vertices whose weighted
    sum nearly cancels (magnitude <= 1e-14 * max face area) get a zero
    normal and the flag. DegenerateMeshError if a magnitude overflows;
    CountMismatch or ConnectivityMismatch if topology is another mesh's.
    """
    _check_match(mesh.vertices, topology, mesh.faces)
    max_area = 0.0
    # each block of faces adds its weighted normal to its three corners, in
    # face order and from +0.0, which is the order and the bits of np.bincount
    acc = np.zeros((mesh.vertex_count, 3))
    for rows, corners in _gather(mesh.vertices, *mesh.faces.T):
        weighted, areas = _block_normals(corners)
        areas *= 0.5
        weighted *= areas[:, None]
        max_area = max(max_area, float(areas.max()))
        at = mesh.faces[rows].ravel()
        for c in range(3):
            np.add.at(acc[:, c], at, weighted[:, c].repeat(3))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        magnitude = _norm(acc)
    _check_overflow(magnitude, "vertex normal")
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
    angles = np.empty((3, len(faces)))
    areas = np.empty(len(faces))
    deficit = np.full(n, 2.0 * np.pi)
    ring_area = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for rows, p in _gather(positions, *faces.T):
            # edge c runs from corner c to c + 1; corner c spans edges c, c - 1
            e = [p[(c + 1) % 3] - p[c] for c in range(3)]
            sines = _norm(_cross3(e[0], e[2]))
            np.multiply(0.5, sines, out=areas[rows])
            for c in range(3):
                # a . b with b the reversed edge c - 1; 0.0 - x negates exactly
                # and keeps a zero dot +0.0, so a collapsed corner's angle stays 0
                np.arctan2(sines, 0.0 - _dot(e[c], e[c - 1]), out=angles[c, rows])
        for c in range(3):
            deficit -= np.bincount(faces[:, c], weights=angles[c], minlength=n)
            ring_area += np.bincount(faces[:, c], weights=areas, minlength=n)
    _check_overflow(ring_area, "ring area")
    curvature = np.zeros(n)
    np.divide(deficit, ring_area, out=curvature, where=ring_area > 0)
    return CurvatureField(curvature, ring_area, deficit, is_boundary)


def gaussian_curvature(mesh: TriangleMesh, topology: MeshTopology) -> CurvatureField:
    """Discrete Gaussian curvature of every vertex (boundary vertices flagged)."""
    _check_match(mesh.vertices, topology, mesh.faces)
    return curvature_field(mesh.vertices, mesh.faces, topology.is_boundary.copy())


def gaussian_curvature_energy(field: CurvatureField, include_boundary: bool = False) -> float:
    """Sum of |curvature| over vertices (interior only by default)."""
    if include_boundary:
        return float(np.abs(field.curvature).sum())
    return float(np.abs(field.curvature[~field.is_boundary]).sum())
