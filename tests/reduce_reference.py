"""Reduce-based references for the filter kernel and the curvature field.

These are the formulations that `gcfmesh` used before its row helpers
replaced `ufunc.reduce` with explicit sums: row dots and norms through
`(a * b).sum(axis=-1)`, ring sums through `.sum(axis=1)` and `.mean(axis=1)`,
and one cross product per triangle corner in the curvature field. The
kernel must stay bitwise equal to `kernel`; the curvature field must keep
`ring_area` bitwise and the deficit within a stated bound of
`curvature_field`.
"""

import numpy as np

from gcfmesh.mesh import _cross3


def _norm(v):
    return np.sqrt((v * v).sum(axis=-1))


def _unit(v, tol):
    mag = _norm(v)
    ok = mag >= tol
    unit = np.zeros_like(v)
    np.divide(v, mag[..., None], out=unit, where=ok[..., None])
    return unit, ok


def _angle(a, b):
    sine = _norm(_cross3(a, b))
    return np.arctan2(sine, (a * b).sum(axis=-1)), sine


def kernel(snapshot, rows, rings, dir_tol, normal_tol):
    """New positions for one block of same-degree vertices."""
    vi = snapshot[rows]
    ring_pos = snapshot[rings]
    edges = ring_pos - vi[:, None, :]

    direction, has_dir = _unit(edges.mean(axis=1), dir_tol)

    vnormal = 0.5 * _cross3(edges, np.roll(edges, -1, axis=1)).sum(axis=1)
    chain = ring_pos - np.roll(ring_pos, 1, axis=1)
    candidates = np.concatenate(
        [vnormal[:, None], _cross3(chain, np.roll(chain, -1, axis=1))], axis=1)
    normals, ok = _unit(candidates, normal_tol)

    proj = np.abs(normals @ edges.transpose(0, 2, 1))
    proj[~ok] = np.inf
    dist = proj.min(axis=(1, 2))

    amplitude = np.where(has_dir & np.isfinite(dist), dist, 0.0)
    return vi + amplitude[:, None] * direction


def curvature_field(positions, faces):
    """(deficit, ring_area) with one cross product per triangle corner."""
    n = len(positions)
    deficit = np.full(n, 2.0 * np.pi)
    ring_area = np.zeros(n)
    p = [positions[faces[:, c]] for c in range(3)]
    for c in range(3):
        angles, sines = _angle(p[(c + 1) % 3] - p[c], p[(c + 2) % 3] - p[c])
        if c == 0:
            areas = 0.5 * sines  # corner 0 spans the face's own edges
        deficit -= np.bincount(faces[:, c], weights=angles, minlength=n)
        ring_area += np.bincount(faces[:, c], weights=areas, minlength=n)
    return deficit, ring_area
