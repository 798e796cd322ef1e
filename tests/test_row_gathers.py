"""The library gathers rows of (n, 3) arrays with np.take. These are the
fancy-indexing formulations it replaced (`positions[faces[:, c]]`,
`source[rows, c]`, boolean-mask updates); every output must stay equal to
them bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gcfmesh as g
from gcfmesh import build_topology
from gcfmesh.curvature import curvature_field
from gcfmesh.mesh import _cross3, _dot, _norm, _unit, unique_edges

from conftest import random_meshes


def _scatter(index, source, rows, n):
    out = np.empty((n, 3))
    for c in range(3):
        out[:, c] = np.bincount(index, weights=source[rows, c], minlength=n)
    return out


def _face_normals(v, f):
    p0 = v[f[:, 0]]
    cross = _cross3(v[f[:, 1]] - p0, v[f[:, 2]] - p0)
    double_area = _norm(cross)
    ok = double_area > 0
    normals = np.zeros_like(cross)
    np.divide(cross, double_area[:, None], out=normals, where=ok[:, None])
    return normals, 0.5 * double_area, ~ok


def _vertex_normals(mesh):
    weighted, areas, _ = _face_normals(mesh.vertices, mesh.faces)
    weighted *= areas[:, None]
    acc = _scatter(mesh.faces.ravel(), weighted,
                   np.arange(len(areas)).repeat(3), mesh.vertex_count)
    normals, ok = _unit(acc, np.nextafter(1e-14 * float(areas.max()), np.inf))
    return normals, ~ok


def _curvature_field(positions, faces):
    n = len(positions)
    deficit = np.full(n, 2.0 * np.pi)
    ring_area = np.zeros(n)
    p = [positions[faces[:, c]] for c in range(3)]
    e = [p[(c + 1) % 3] - p[c] for c in range(3)]
    sines = _norm(_cross3(e[0], e[2]))
    areas = 0.5 * sines
    for c in range(3):
        angles = np.arctan2(sines, 0.0 - _dot(e[c], e[c - 1]))
        deficit -= np.bincount(faces[:, c], weights=angles, minlength=n)
        ring_area += np.bincount(faces[:, c], weights=areas, minlength=n)
    curvature = np.zeros(n)
    np.divide(deficit, ring_area, out=curvature, where=ring_area > 0)
    return curvature, ring_area, deficit


def _mean_edge_length(positions, faces):
    edges = unique_edges(faces)
    return float(_norm(positions[edges[:, 0]] - positions[edges[:, 1]]).mean())


def _smooth(mesh, topo, iterations, factors):
    n = mesh.vertex_count
    deg = topo.ring_sizes
    movable = ~topo.is_boundary & topo.is_manifold_fan
    positions = mesh.vertices.copy()
    for _ in range(iterations):
        for factor in factors:
            sums = _scatter(np.repeat(np.arange(n), deg), positions,
                            topo.ring_flat, n)
            centroids = positions.copy()
            ok = deg > 0
            centroids[ok] = sums[ok] / deg[ok, None]
            positions[movable] += factor * (centroids[movable] - positions[movable])
    return positions


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


_MESHES = random_meshes() + [g.grid(6)]


@settings(max_examples=60, deadline=None)
@given(mesh=st.sampled_from(_MESHES), seed=st.integers(0, 2**32 - 1),
       fortran=st.booleans())
def test_take_gathers_equal_fancy_indexing_bitwise(mesh, seed, fortran):
    topo = build_topology(mesh)
    noisy = g.add_noise(mesh, topo, g.NoiseConfig(0.3, seed=seed))
    v, f = noisy.vertices, noisy.faces
    positions = np.asfortranarray(v) if fortran else v

    field = curvature_field(positions, f, topo.is_boundary)
    assert (_bits(field.curvature, field.ring_area, field.deficit)
            == _bits(*_curvature_field(v, f)))

    normals = g.face_normals(noisy)
    assert _bits(*normals) == _bits(*_face_normals(v, f))
    assert all(a.flags.c_contiguous for a in normals)
    assert _bits(*g.vertex_normals(noisy, topo)) == _bits(*_vertex_normals(noisy))

    assert (_bits(g.mean_edge_length(positions, f))
            == _bits(_mean_edge_length(v, f)))

    frozen = topo.is_boundary | ~topo.is_manifold_fan
    for smoothed, want in (
        (g.taubin_smooth(noisy, topo, 3), _smooth(noisy, topo, 3, (0.5, -0.53))),
        (g.laplacian_smooth(noisy, topo, 3, lam=0.7), _smooth(noisy, topo, 3, (0.7,))),
    ):
        assert _bits(smoothed.vertices) == _bits(want)
        assert _bits(smoothed.vertices[frozen]) == _bits(v[frozen])


def test_grid_has_frozen_boundary_rows():
    # the property above checks frozen rows on grid(6); make sure it has some
    assert build_topology(g.grid(6)).is_boundary.sum() == 24


@pytest.mark.parametrize("k", range(len(_MESHES)))
def test_gathers_of_a_strided_view_equal_fancy_indexing_bitwise(k):
    """Positions that are neither C- nor column-major (three columns of a
    wider array) give the fancy-indexing results bit for bit."""
    mesh = _MESHES[k]
    topo = build_topology(mesh)
    v = g.add_noise(mesh, topo, g.NoiseConfig(0.3, seed=k)).vertices
    big = np.random.default_rng(k).standard_normal((len(v), 5))
    big[:, 1:4] = v
    view = big[:, 1:4]
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    field = curvature_field(view, mesh.faces, topo.is_boundary)
    assert (_bits(field.curvature, field.ring_area, field.deficit)
            == _bits(*_curvature_field(v, mesh.faces)))
    assert (_bits(g.mean_edge_length(view, mesh.faces))
            == _bits(_mean_edge_length(v, mesh.faces)))
