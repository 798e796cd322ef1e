import numpy as np
import pytest

import gcfmesh as g
from gcfmesh import (
    TriangleMesh,
    build_topology,
    face_normals,
    gaussian_curvature,
    gaussian_curvature_energy,
    vertex_normals,
)

import reduce_reference
from conftest import random_meshes

# regular tetrahedron, edge 1: deficit = 2*pi - 3*(pi/3) = pi per vertex,
# ring area = 3 * sqrt(3)/4, К = 4*pi / (3*sqrt(3))
TET_DEFICIT = np.pi
TET_RING_AREA = 3.0 * np.sqrt(3.0) / 4.0
TET_K = 2.4183991523122903
TET_GCE = 9.673596609249161


def _euler_characteristic(mesh):
    # independent edge count by brute force over sorted index pairs
    edges = set()
    for f in mesh.faces.tolist():
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edges.add((min(a, b), max(a, b)))
    return mesh.vertex_count - len(edges) + mesh.face_count


def test_face_normals_basic():
    m = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    normals, areas, degenerate = face_normals(m)
    assert np.allclose(normals[0], (0, 0, 1))
    assert areas[0] == pytest.approx(0.5)
    assert not degenerate[0]


def test_face_normals_collinear_flagged():
    m = TriangleMesh([(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(0, 1, 2)])
    normals, areas, degenerate = face_normals(m)
    assert degenerate[0]
    assert areas[0] == 0.0
    assert np.all(normals[0] == 0.0)


def test_face_normals_match_separate_norms():
    """One norm per face gives the normals, areas and flags bitwise equal
    to normalizing the cross product and measuring it apart."""
    from gcfmesh.mesh import _cross3, _norm, _unit

    collinear = TriangleMesh([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)],
                             [(0, 1, 2), (0, 1, 3)])
    for mesh in random_meshes() + [collinear]:
        v, f = mesh.vertices, mesh.faces
        cross = _cross3(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        want, ok = _unit(cross, np.nextafter(0.0, np.inf))
        normals, areas, degenerate = face_normals(mesh)
        assert np.array_equal(normals, want)
        assert np.array_equal(areas, 0.5 * _norm(cross))
        assert np.array_equal(degenerate, ~ok)
    assert degenerate[0] and not degenerate[1]


def test_face_scaling_property():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(50):
        verts = rng.standard_normal((3, 3))
        m = TriangleMesh(verts, [(0, 1, 2)])
        s = float(rng.uniform(0.1, 10.0))
        ms = TriangleMesh(verts * s, [(0, 1, 2)])
        n1, a1, _ = face_normals(m)
        n2, a2, _ = face_normals(ms)
        assert a2[0] == pytest.approx(a1[0] * s * s, rel=1e-12)
        assert np.allclose(n1, n2, atol=1e-12)


def test_vertex_normal_pyramid_apex(square_pyramid):
    topo = build_topology(square_pyramid)
    normals, degenerate = vertex_normals(square_pyramid, topo)
    assert not degenerate[4]
    assert np.allclose(normals[4], (0, 0, 1), atol=1e-14)
    # brute-force oracle: sum area-weighted face normals directly
    acc = np.zeros(3)
    for f in square_pyramid.faces:
        p0, p1, p2 = square_pyramid.vertices[f]
        cr = np.cross(p1 - p0, p2 - p0)
        acc += 0.5 * cr
    assert np.allclose(normals[4], acc / np.linalg.norm(acc), atol=1e-14)


def test_vertex_normal_planar_grid():
    mesh = g.grid(4)
    topo = build_topology(mesh)
    normals, degenerate = vertex_normals(mesh, topo)
    assert not degenerate.any()
    assert np.allclose(normals, [0, 0, 1], atol=0)


def test_vertex_normal_tetrahedron_symmetry(tetrahedron):
    topo = build_topology(tetrahedron)
    normals, _ = vertex_normals(tetrahedron, topo)
    for i in range(4):
        others = [j for j in range(4) if j != i]
        opposite_centroid = tetrahedron.vertices[others].mean(axis=0)
        axis = tetrahedron.vertices[i] - opposite_centroid
        axis /= np.linalg.norm(axis)
        assert np.allclose(normals[i], axis, atol=1e-12)


def test_tetrahedron_curvature(tetrahedron):
    topo = build_topology(tetrahedron)
    field = gaussian_curvature(tetrahedron, topo)
    assert np.allclose(field.deficit, TET_DEFICIT, rtol=1e-12)
    assert np.allclose(field.ring_area, TET_RING_AREA, rtol=1e-12)
    assert np.allclose(field.curvature, TET_K, rtol=1e-12)
    assert gaussian_curvature_energy(field) == pytest.approx(TET_GCE, rel=1e-12)


def test_planar_grid_interior_curvature_zero():
    mesh = g.grid(5)
    topo = build_topology(mesh)
    field = gaussian_curvature(mesh, topo)
    interior = ~topo.is_boundary
    assert interior.sum() == 16
    assert np.allclose(field.deficit[interior], 0.0, atol=1e-12)
    assert np.allclose(field.curvature[interior], 0.0, atol=1e-12)
    assert gaussian_curvature_energy(field) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("subdiv", [0, 1, 2, 3])
def test_gauss_bonnet_icosphere(subdiv):
    mesh = g.icosphere(subdiv)
    topo = build_topology(mesh)
    field = gaussian_curvature(mesh, topo)
    assert _euler_characteristic(mesh) == 2
    assert field.deficit.sum() == pytest.approx(4.0 * np.pi, rel=1e-9)


def test_gauss_bonnet_other_closed_meshes():
    for mesh in (g.cube(3), g.cylinder(12, 5), g.cone(9, 4), ):
        topo = build_topology(mesh)
        field = gaussian_curvature(mesh, topo)
        chi = _euler_characteristic(mesh)
        assert chi == 2
        assert field.deficit.sum() == pytest.approx(2.0 * np.pi * chi, rel=1e-9)


def test_energy_nonnegative_on_random_meshes():
    for mesh in random_meshes():
        topo = build_topology(mesh)
        field = gaussian_curvature(mesh, topo)
        assert gaussian_curvature_energy(field) >= 0.0
        assert gaussian_curvature_energy(field, include_boundary=True) >= \
            gaussian_curvature_energy(field)


def test_scale_covariance():
    mesh = g.icosphere(2)
    topo = build_topology(mesh)
    field = gaussian_curvature(mesh, topo)
    for s in (0.25, 3.0):
        scaled = TriangleMesh(mesh.vertices * s, mesh.faces)
        fs = gaussian_curvature(scaled, topo)
        assert np.allclose(fs.deficit, field.deficit, rtol=1e-9)
        assert np.allclose(fs.curvature, field.curvature / (s * s), rtol=1e-9)
        e0 = gaussian_curvature_energy(field)
        es = gaussian_curvature_energy(fs)
        assert es * s * s == pytest.approx(e0, rel=1e-9)


def test_rigid_motion_invariance():
    mesh = g.icosphere(2)
    topo = build_topology(mesh)
    field = gaussian_curvature(mesh, topo)
    theta = 0.7
    rot = np.array([
        [np.cos(theta), -np.sin(theta), 0.0],
        [np.sin(theta), np.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    moved = TriangleMesh(mesh.vertices @ rot.T + np.array([3.0, -2.0, 0.5]),
                         mesh.faces)
    fm = gaussian_curvature(moved, topo)
    assert np.allclose(fm.deficit, field.deficit, rtol=1e-12, atol=1e-12)
    assert np.allclose(fm.ring_area, field.ring_area, rtol=1e-12)
    assert np.allclose(fm.curvature, field.curvature, rtol=1e-11, atol=1e-12)
    assert gaussian_curvature_energy(fm) == pytest.approx(
        gaussian_curvature_energy(field), rel=1e-12
    )


# one cross product per face gives every corner the same sine, so the
# deficit may move in its last bits; the corner-0 area term is unchanged
DEFICIT_TOL = 1e-12  # rad


def _collapsed_edge():
    # two coincident vertices: the faces on that edge have a zero sine and
    # a zero dot at both ends, where the sign of the zero dot picks 0 or pi
    mesh = g.icosphere(1)
    a, b = mesh.faces[0, :2]
    mesh.vertices[b] = mesh.vertices[a]
    return mesh


@pytest.mark.parametrize("make", [
    lambda: g.icosphere(3), lambda: g.cube(8), lambda: g.cylinder(24, 22),
    _collapsed_edge,
], ids=["icosphere", "cube", "cylinder", "collapsed"])
@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
def test_curvature_field_matches_per_corner_oracle(make, noisy):
    mesh = make()
    topo = build_topology(mesh)
    if noisy:
        mesh = g.add_noise(mesh, topo, g.NoiseConfig(0.3, seed=6))
    field = gaussian_curvature(mesh, topo)
    deficit, ring_area = reduce_reference.curvature_field(mesh.vertices,
                                                          mesh.faces)
    assert np.array_equal(field.ring_area, ring_area)
    assert np.abs(field.deficit - deficit).max() <= DEFICIT_TOL
