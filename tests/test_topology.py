"""The half-edge fan table against the per-vertex fan walker in fanwalk.py."""

import numpy as np
from hypothesis import given, settings, strategies as st

import gcfmesh as g
from gcfmesh import (
    FilterConfig,
    TriangleMesh,
    build_topology,
    gcf_filter,
    greedy_domain_decomposition,
)

from conftest import random_meshes
from fanwalk import reference_topology

# topology field -> its entry in the walker's tuple
FIELDS = {"ring_flat": 0, "ring_indptr": 1, "is_boundary": 4,
          "is_manifold_fan": 5}


def assert_matches_walker(mesh):
    topo = build_topology(mesh)
    ref = reference_topology(mesh)
    for name, k in FIELDS.items():
        got, want = getattr(topo, name), ref[k]
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _flipped(mesh, every):
    faces = mesh.faces.copy()
    faces[::every] = faces[::every, ::-1]
    return TriangleMesh(mesh.vertices, faces)


def test_random_meshes_match_walker():
    for mesh in random_meshes():
        assert_matches_walker(mesh)


def test_generators_match_walker():
    for mesh in (g.icosphere(2), g.cylinder(8, 4), g.cone(7, 3), g.cube(3),
                 g.grid(5), g.cylinder(72, 69)):
        assert_matches_walker(mesh)


def test_flipped_icosphere_matches_walker():
    mesh = _flipped(g.icosphere(2), 7)
    assert_matches_walker(mesh)
    topo = build_topology(mesh)
    assert topo.is_manifold_fan.all()
    assert not topo.is_boundary.any()


def test_small_fixtures_match_walker(bowtie, square_pyramid, single_triangle,
                                     tetrahedron):
    for mesh in (bowtie, square_pyramid, single_triangle, tetrahedron):
        assert_matches_walker(mesh)


def test_two_sheets_at_one_vertex_match_walker():
    # vertex 0 is the apex of two cones: two closed fans, or two open ones
    verts = np.random.Generator(np.random.PCG64(1)).random((7, 3))
    closed = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (0, 4, 5), (0, 5, 6), (0, 6, 4)]
    for faces in (closed, closed[:2] + closed[3:5]):
        mesh = TriangleMesh(verts, faces)
        assert_matches_walker(mesh)
        topo = build_topology(mesh)
        assert topo.neighbors[0].tolist() == [1, 2, 3, 4, 5, 6]
        assert not topo.is_manifold_fan[0]


def test_ring_vertex_starting_twice_matches_walker():
    # at vertex 0, ring vertex 1 starts two half-edges (1->4 and 1->2), and
    # the chain from the head 1->2 runs through all five faces
    verts = np.random.Generator(np.random.PCG64(2)).random((6, 3))
    faces = [(0, 1, 4), (0, 1, 2), (0, 2, 3), (0, 3, 1), (0, 4, 5)]
    mesh = TriangleMesh(verts, faces)
    assert_matches_walker(mesh)
    topo = build_topology(mesh)
    assert topo.neighbors[0].tolist() == [1, 2, 3, 4, 5]
    assert not topo.is_manifold_fan[0]


def test_no_faces_matches_walker():
    assert_matches_walker(TriangleMesh(np.zeros((4, 3)), np.zeros((0, 3))))


def test_neighbors_are_ring_slices():
    mesh = random_meshes()[1]
    topo = build_topology(mesh)
    for i in range(mesh.vertex_count):
        lo, hi = topo.ring_indptr[i], topo.ring_indptr[i + 1]
        assert np.array_equal(topo.neighbors[i], topo.ring_flat[lo:hi])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60),
       flip=st.floats(0.0, 1.0), delete=st.floats(0.0, 0.5))
def test_delaunay_patches_match_walker(seed, n, flip, delete):
    from scipy.spatial import Delaunay

    rng = np.random.Generator(np.random.PCG64(seed))
    pts = rng.random((n, 2))
    faces = Delaunay(pts).simplices
    flips = rng.random(len(faces)) < flip
    faces[flips] = faces[flips, ::-1]
    faces = faces[rng.random(len(faces)) >= delete]
    verts = np.column_stack([pts, 0.1 * rng.standard_normal(n)])
    assert_matches_walker(TriangleMesh(verts, faces))


# Fans whose ring repeats a vertex: an edge at the center has three faces.
# The directed walker accepted them as open manifold fans; the table flags
# them non-manifold with a sorted ring. The center is frozen either way.
FAN_VERTICES = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.2), (0.0, 1.0, -0.1),
                (-1.0, 0.0, 0.3), (0.0, -1.0, 0.1)]


def _assert_three_face_fan(faces, old_ring, ring):
    mesh = TriangleMesh(FAN_VERTICES[:max(map(max, faces)) + 1], faces)
    old = reference_topology(mesh)
    assert old[0][:old[1][1]].tolist() == old_ring
    assert old[4][0] and old[5][0]
    topo = build_topology(mesh)
    assert topo.neighbors[0].tolist() == ring
    assert not topo.is_boundary[0]
    assert not topo.is_manifold_fan[0]
    out, _ = gcf_filter(mesh, topo, greedy_domain_decomposition(topo),
                        FilterConfig(iterations=3))
    assert np.array_equal(out.vertices[0], mesh.vertices[0])


def test_reversed_duplicate_face_fan_is_non_manifold():
    _assert_three_face_fan([(0, 1, 2), (0, 2, 3), (0, 3, 2)],
                           [1, 2, 3, 2], [1, 2, 3])


def test_three_faces_on_one_edge_fan_is_non_manifold():
    _assert_three_face_fan([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 2)],
                           [1, 2, 3, 4, 2], [1, 2, 3, 4])


def test_manifold_vertices_have_faces():
    """The freeze policy needs no ring-size term: a vertex flagged manifold
    always has incident faces, so a vertex no face uses stays frozen."""
    from gcfmesh.mesh import _movable

    for mesh in random_meshes():
        mesh = TriangleMesh(np.vstack([mesh.vertices, [(9.0, 9.0, 9.0)]]),
                            mesh.faces)
        topo = build_topology(mesh)
        has_faces = np.bincount(mesh.faces.ravel(), minlength=mesh.vertex_count) > 0
        assert not (topo.is_manifold_fan & ~has_faces).any()
        assert np.array_equal(
            _movable(topo),
            ~topo.is_boundary & topo.is_manifold_fan & (topo.ring_sizes > 0))
        assert not _movable(topo)[-1]
