"""Discrete Gaussian curvature via angular deficit, plus face/vertex normals.

Per vertex, the deficit is 2*pi minus the sum of the incident triangle
angles at that vertex; dividing by the summed incident triangle areas gives
the discrete Gaussian curvature. Angles use atan2 of cross/dot for
stability near 0 and pi. The summed |K| over vertices is the curvature
energy used as the smoothing objective and convergence trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshTopology, TriangleMesh, _cross3, _releases_memory


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
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    cross = _cross3(p1 - p0, p2 - p0)
    mag = np.sqrt((cross * cross).sum(axis=1))
    areas = 0.5 * mag
    degenerate = mag == 0.0
    normals = np.zeros_like(cross)
    np.divide(cross, mag[:, None], out=normals, where=~degenerate[:, None])
    return normals, areas, degenerate


def vertex_normals(mesh: TriangleMesh, topology: MeshTopology):
    """Area-weighted average of incident face normals, normalized per vertex.

    Returns (normals (n,3), degenerate (n,) bool); vertices whose weighted
    sum nearly cancels (magnitude <= 1e-14 * max face area) get a zero
    normal and the flag.
    """
    n = mesh.vertex_count
    fnormals, areas, _ = face_normals(mesh)
    weighted = fnormals * areas[:, None]
    idx = mesh.faces.ravel()
    acc = np.zeros((n, 3))
    for c in range(3):
        acc[:, c] = np.bincount(idx, weights=np.repeat(weighted[:, c], 3), minlength=n)
    mag = np.sqrt((acc * acc).sum(axis=1))
    max_area = float(areas.max()) if len(areas) else 0.0
    degenerate = mag <= 1e-14 * max_area
    normals = np.zeros_like(acc)
    np.divide(acc, mag[:, None], out=normals, where=~degenerate[:, None])
    return normals, degenerate


def deficit_and_ring_area(positions: np.ndarray, faces: np.ndarray, vertex_count: int):
    """Angular deficit and summed incident-triangle area per vertex.

    Vertices without incident faces keep the full 2*pi deficit and zero
    area; callers decide how to interpret them.
    """
    deficit = np.full(vertex_count, 2.0 * np.pi)
    ring_area = np.zeros(vertex_count)
    p = [positions[faces[:, c]] for c in range(3)]
    for c in range(3):
        e1 = p[(c + 1) % 3] - p[c]
        e2 = p[(c + 2) % 3] - p[c]
        cr = _cross3(e1, e2)
        sin_term = np.sqrt((cr * cr).sum(axis=1))
        if c == 0:
            areas = 0.5 * sin_term  # corner 0 spans the face's own edges
        cos_term = (e1 * e2).sum(axis=1)
        angles = np.arctan2(sin_term, cos_term)
        deficit -= np.bincount(faces[:, c], weights=angles, minlength=vertex_count)
        ring_area += np.bincount(faces[:, c], weights=areas, minlength=vertex_count)
    return deficit, ring_area


def curvature_field(positions: np.ndarray, faces: np.ndarray,
                    is_boundary: np.ndarray) -> CurvatureField:
    """Curvature field of the given positions; is_boundary is stored as is.

    Shared by the public curvature field and the filter's energy trace.
    """
    deficit, ring_area = deficit_and_ring_area(positions, faces, len(positions))
    curvature = np.zeros_like(deficit)
    np.divide(deficit, ring_area, out=curvature, where=ring_area > 0)
    return CurvatureField(
        curvature=curvature,
        ring_area=ring_area,
        deficit=deficit,
        is_boundary=is_boundary,
    )


@_releases_memory
def gaussian_curvature(mesh: TriangleMesh, topology: MeshTopology) -> CurvatureField:
    """Discrete Gaussian curvature of every vertex (boundary vertices flagged)."""
    return curvature_field(mesh.vertices, mesh.faces, topology.is_boundary.copy())


def gaussian_curvature_energy(field: CurvatureField, include_boundary: bool = False) -> float:
    """Sum of |curvature| over vertices (interior only by default)."""
    if include_boundary:
        return float(np.abs(field.curvature).sum())
    return float(np.abs(field.curvature[~field.is_boundary]).sum())
