"""Procedural ground-truth meshes: icosphere, capped cylinder, capped cone,
cube, and planar grid.

All closed generators emit consistent outward winding. The cylinder and the
cone add only their axis vertices and cap fans to the vertex circles and
bands of `_revolution`. The circles share one cos/sin table, so vertices on
a cylinder generatrix share bit-identical x/y and axial edges stay axial.

No generator loops over vertices, faces or rings in Python. `grid` and
`cube` split index lattices into triangle pairs cell by cell with `_quads`;
`icosphere` (edge midpoints) and `cube` (points shared by sides) number
shared vertices in order of first use with `_weld`, so both keep the vertex
and face order of a per-element walk.
"""

from __future__ import annotations

import numpy as np

from .errors import BadResolution
from .mesh import TriangleMesh, _check_count

_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=np.float64)
_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def _on_sphere(v, radius):
    """Rows of v scaled to length radius. The batched row product rounds each
    squared length as np.linalg.norm of the single row does."""
    return v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0] * radius


def _weld(keys):
    """Number the distinct values of the int64 `keys` in order of first use;
    returns (the index of each value's first use, each key's number)."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return first[order], number[inverse]


def _quads(lattice):
    """Two triangles (a, b, c), (a, c, d) per cell of a vertex-index lattice
    (..., u, v), cell by cell in row-major order, where a = [u, v],
    b = [u+1, v], c = [u+1, v+1] and d = [u, v+1]."""
    a, b = lattice[..., :-1, :-1], lattice[..., 1:, :-1]
    c, d = lattice[..., 1:, 1:], lattice[..., :-1, 1:]
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def icosphere(subdivisions: int = 2, radius: float = 1.0) -> TriangleMesh:
    """Subdivided icosahedron projected onto a sphere.

    Vertex count is 10 * 4**subdivisions + 2. Each level splits every face
    into four; edge midpoints are numbered in order of first use, face by
    face and edge (a, b), (b, c), (c, a) within a face.
    """
    _check_count("subdivisions", subdivisions, 0, BadResolution)
    verts = _on_sphere(_ICO_VERTS, radius)
    faces = np.array(_ICO_FACES)
    for _ in range(subdivisions):
        a, b, c = faces.T
        edges = np.stack([a, b, b, c, c, a], axis=1).reshape(-1, 2)
        edges.sort(axis=1)
        first, number = _weld(edges[:, 0] * len(verts) + edges[:, 1])
        ab, bc, ca = (len(verts) + number).reshape(-1, 3).T
        mids = edges[first]
        verts = np.concatenate(
            [verts, _on_sphere(verts[mids[:, 0]] + verts[mids[:, 1]], radius)])
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    return TriangleMesh(verts, faces)


def _revolution(segments, radii, heights):
    """(circles, bands, i, i1): a circle of `segments` vertices about the z
    axis per radius and height, bottom up, and the bands between them, each
    band's (a, b, c) triangles before its (a, c, d) ones; i1 follows i."""
    i = np.arange(segments)
    i1 = (i + 1) % segments
    theta = i * (2.0 * np.pi / segments)
    circles = np.column_stack([(radii[:, None] * np.cos(theta)).ravel(),
                               (radii[:, None] * np.sin(theta)).ravel(),
                               heights.repeat(segments)])
    lower = segments * np.arange(len(heights) - 1)[:, None]
    a, b = lower + i, lower + i1
    c, d = b + segments, a + segments
    bands = np.stack([np.stack([a, b, c], axis=-1), np.stack([a, c, d], axis=-1)],
                     axis=1).reshape(-1, 3)
    return circles, bands, i, i1


def cylinder(segments: int = 32, rings: int = 16, radius: float = 1.0,
             height: float = 2.0) -> TriangleMesh:
    """Capped right circular cylinder; closed, outward winding."""
    _check_count("segments", segments, 3, BadResolution)
    _check_count("rings", rings, 1, BadResolution)
    zs = np.linspace(-height / 2.0, height / 2.0, rings + 1)
    circles, bands, i, i1 = _revolution(segments, np.full(len(zs), radius), zs)
    n = len(circles)  # the bottom centre; the top centre is n + 1
    top_row = n - segments
    verts = np.concatenate([circles, [(0.0, 0.0, zs[0]), (0.0, 0.0, zs[-1])]])
    bottom = np.stack([np.full(segments, n), i1, i], axis=1)
    top = np.stack([np.full(segments, n + 1), top_row + i, top_row + i1], axis=1)
    return TriangleMesh(verts, np.concatenate([bands, bottom, top]))


def cone(segments: int = 32, rings: int = 8, radius: float = 1.0,
         height: float = 2.0) -> TriangleMesh:
    """Capped cone with the apex on the +z axis; closed, outward winding.

    rings is the number of vertex circles between base rim and apex
    (inclusive of the rim).
    """
    _check_count("segments", segments, 3, BadResolution)
    _check_count("rings", rings, 1, BadResolution)
    j = np.arange(rings)
    circles, bands, i, i1 = _revolution(segments, radius * (rings - j) / rings,
                                        -height / 2.0 + j * height / rings)
    apex = len(circles)  # the base centre is apex + 1
    top_row = apex - segments
    verts = np.concatenate([circles, [[0.0, 0.0, height / 2.0], [0.0, 0.0, -height / 2.0]]])
    tip = np.stack([top_row + i, top_row + i1, np.full(segments, apex)], axis=1)
    base = np.stack([np.full(segments, apex + 1), i1, i], axis=1)
    return TriangleMesh(verts, np.concatenate([bands, tip, base]))


# (u axis, v axis, fixed axis, fixed at high end) per face, right-handed so
# that u x v points outward.
_CUBE_SIDES = [
    (1, 2, 0, True), (2, 1, 0, False),
    (2, 0, 1, True), (0, 2, 1, False),
    (0, 1, 2, True), (1, 0, 2, False),
]


def cube(resolution: int = 4, size: float = 2.0) -> TriangleMesh:
    """Axis-aligned cube with a resolution x resolution grid per side,
    welded along edges and corners; closed, outward winding."""
    _check_count("resolution", resolution, 1, BadResolution)
    r = resolution + 1
    ticks = np.linspace(-size / 2.0, size / 2.0, r)
    uu, vv = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    lattice = np.empty((len(_CUBE_SIDES), r, r, 3), dtype=np.int64)
    for side, (u_ax, v_ax, f_ax, high) in zip(lattice, _CUBE_SIDES):
        side[..., u_ax] = uu
        side[..., v_ax] = vv
        side[..., f_ax] = resolution if high else 0
    points = lattice.reshape(-1, 3)
    first, number = _weld(points @ np.array([r * r, r, 1]))
    return TriangleMesh(ticks[points[first]], _quads(number.reshape(-1, r, r)))


def grid(resolution: int = 8, spacing: float = 1.0) -> TriangleMesh:
    """Planar z=0 grid of resolution x resolution unit cells (open boundary)."""
    _check_count("resolution", resolution, 1, BadResolution)
    n = resolution
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    verts = np.stack([
        ii.ravel() * spacing, jj.ravel() * spacing, np.zeros((n + 1) ** 2),
    ], axis=1)
    return TriangleMesh(verts, _quads(np.arange(len(verts)).reshape(n + 1, n + 1)))


_GENERATORS = {
    "icosphere": icosphere,
    "cylinder": cylinder,
    "cone": cone,
    "cube": cube,
    "grid": grid,
}


def generate_mesh(kind: str, **params) -> TriangleMesh:
    """Dispatch to a generator by kind name; see the individual functions."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown mesh kind {kind!r}; choose from {sorted(_GENERATORS)}")
    return _GENERATORS[kind](**params)
