import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import gcfmesh as g
from gcfmesh import TriangleMesh, build_topology, mesh_stats, unique_edges
from gcfmesh.filtering import _ring_sum
from gcfmesh.mesh import _angle, _dot, _norm
from gcfmesh.errors import EmptyMeshError, FaceIndexError, MeshError, \
    NonFiniteError

from conftest import random_meshes


def test_face_index_out_of_range():
    with pytest.raises(FaceIndexError):
        TriangleMesh([(0, 0, 0), (1, 0, 0)], [(0, 1, 2)])
    with pytest.raises(FaceIndexError):
        TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, -1)])


def test_repeated_index_rejected():
    with pytest.raises(FaceIndexError):
        TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 1)])


@pytest.mark.parametrize("faces", [[[0, 1, 2**32 + 2]], np.array([[0, 1, 2**32 + 2]])])
def test_face_index_past_int32_is_not_wrapped(faces):
    with pytest.raises(FaceIndexError, match="4294967298"):
        TriangleMesh(np.eye(3), faces)


def test_fractional_face_index_rejected():
    with pytest.raises(FaceIndexError, match="2.7 is not an integer"):
        TriangleMesh(np.eye(3), [[0, 1, 2.7]])
    assert TriangleMesh(np.eye(3), [[0.0, 1.0, 2.0]]).faces.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_rejected(value):
    verts = np.array([(0.0, 0, 0), (1.0, 0, 0), (0.0, 1, 0), (1.0, 1, 0)])
    verts[2, 1] = value
    with pytest.raises(NonFiniteError, match="vertex 2"):
        TriangleMesh(verts, [(0, 1, 2), (1, 3, 2)])
    assert issubclass(NonFiniteError, MeshError)


def test_mean_edge_length_empty():
    with pytest.raises(EmptyMeshError):
        g.mean_edge_length(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int32))


def test_unique_edges_match_row_unique():
    for mesh in random_meshes():
        e = np.concatenate([mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]],
                            mesh.faces[:, [2, 0]]])
        want, want_counts = np.unique(np.sort(e, axis=1), axis=0,
                                      return_counts=True)
        got, counts = unique_edges(mesh.faces, return_counts=True)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(unique_edges(mesh.faces), want)


def test_tetrahedron_topology(tetrahedron):
    topo = build_topology(tetrahedron)
    for i in range(4):
        assert len(topo.neighbors[i]) == 3
        assert set(topo.neighbors[i].tolist()) == set(range(4)) - {i}
        assert not topo.is_boundary[i]
        assert topo.is_manifold_fan[i]


def test_single_triangle_topology(single_triangle):
    topo = build_topology(single_triangle)
    for i in range(3):
        assert len(topo.neighbors[i]) == 2
        assert topo.is_boundary[i]
        assert topo.is_manifold_fan[i]


def test_bowtie_flagged(bowtie):
    topo = build_topology(bowtie)
    assert not topo.is_manifold_fan[0]
    assert set(topo.neighbors[0].tolist()) == {1, 2, 3, 4}
    # the wing tips are ordinary boundary vertices
    for i in (1, 2, 3, 4):
        assert topo.is_boundary[i]
        assert topo.is_manifold_fan[i]


def test_pyramid_apex_interior(square_pyramid):
    topo = build_topology(square_pyramid)
    assert not topo.is_boundary[4]
    assert topo.is_manifold_fan[4]
    assert sorted(topo.neighbors[4].tolist()) == [0, 1, 2, 3]
    assert all(topo.is_boundary[i] for i in range(4))


def test_ring_order_follows_fan(tetrahedron):
    # consecutive ring entries (with wrap) must share exactly one incident
    # face with the center vertex
    for mesh in [tetrahedron, g.icosphere(1), g.grid(4)]:
        topo = build_topology(mesh)
        faces = [set(map(int, f)) for f in mesh.faces]
        for i in range(mesh.vertex_count):
            if not topo.is_manifold_fan[i]:
                continue
            ring = topo.neighbors[i].tolist()
            m = len(ring)
            pairs = zip(ring, ring[1:] + [ring[0]]) if not topo.is_boundary[i] \
                else zip(ring, ring[1:])
            for a, b in pairs:
                shared = [f for f in faces if {i, a, b} <= f]
                assert len(shared) == 1


def test_inconsistent_winding_still_walks():
    # both faces traverse the shared edge 1->2 in the same direction, so the
    # directed fan walk breaks; the undirected walk must still order the ring
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)]
    mesh = TriangleMesh(verts, [(0, 1, 2), (1, 2, 3)])
    topo = build_topology(mesh)
    assert topo.is_manifold_fan.all()
    assert topo.is_boundary.all()
    assert topo.neighbors[1].tolist() in ([0, 2, 3], [3, 2, 0])


def test_adjacency_symmetric_on_random_meshes():
    for mesh in random_meshes():
        topo = build_topology(mesh)
        neighbor_sets = [set(r.tolist()) for r in topo.neighbors]
        for i, ring in enumerate(neighbor_sets):
            for j in ring:
                assert i in neighbor_sets[j]


def test_neighbors_cover_all_edges():
    for mesh in random_meshes():
        topo = build_topology(mesh)
        edges = unique_edges(mesh.faces)
        for a, b in edges.tolist():
            assert b in topo.neighbors[a]
            assert a in topo.neighbors[b]


def test_mesh_stats_unit_triangle():
    m = TriangleMesh(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, np.sqrt(3) / 2, 0.0)],
        [(0, 1, 2)],
    )
    stats = mesh_stats(m)
    assert stats.mean_edge_length == pytest.approx(1.0)
    assert stats.boundary_vertex_count == 3


def test_mesh_stats_grid_edge_mean():
    mesh = g.grid(3)
    # oracle: enumerate unique undirected edges by brute force
    seen = set()
    for f in mesh.faces.tolist():
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            seen.add((min(a, b), max(a, b)))
    lengths = [
        float(np.linalg.norm(mesh.vertices[a] - mesh.vertices[b]))
        for a, b in seen
    ]
    expected = sum(lengths) / len(lengths)
    assert mesh_stats(mesh).mean_edge_length == pytest.approx(expected, rel=1e-12)


def test_mesh_stats_tetrahedron_scaled(tetrahedron):
    big = TriangleMesh(tetrahedron.vertices * 2.0, tetrahedron.faces)
    assert mesh_stats(big).mean_edge_length == pytest.approx(2.0)
    assert mesh_stats(big).boundary_vertex_count == 0


def test_mesh_stats_empty():
    with pytest.raises(EmptyMeshError):
        mesh_stats(TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3))))


OVERFLOW = ("mean edge length overflows to inf "
            "(are the coordinates too large to square?)")


def test_overflowing_edge_length_raises_without_warning():
    """Every caller of the mean edge length names the overflow as a
    DegenerateMeshError; a RuntimeWarning would fail this test."""
    from gcfmesh.errors import DegenerateMeshError

    mesh = TriangleMesh([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1e300, 0.0)],
                        [(0, 1, 2)])
    topo = build_topology(mesh)
    calls = (lambda: g.mean_edge_length(mesh.vertices, mesh.faces),
             lambda: mesh_stats(mesh),
             lambda: g.add_noise(mesh, topo, g.NoiseConfig(0.1)),
             lambda: g.gcf_filter(mesh, topo, g.greedy_domain_decomposition(topo),
                                  g.FilterConfig(iterations=1)))
    for call in calls:
        with pytest.raises(DegenerateMeshError) as info:
            call()
        assert str(info.value) == OVERFLOW


# finite doubles with signed zeros, subnormals, and magnitudes near 1e+-150
# whose squares sit next to the overflow and underflow limits
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-150, -1e-150, 1e150, -1e150]),
    st.floats(1e-160, 1e-140).map(lambda x: -x) | st.floats(1e-160, 1e-140),
    st.floats(1e140, 1e160).map(lambda x: -x) | st.floats(1e140, 1e160),
    st.floats(allow_nan=False, allow_infinity=False),
)
# arrays of signed zeros and units make all-zero sums whose sign shows
_ELEMENTS = st.sampled_from([_VALUES, st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                             st.just(-0.0)])
# (k, 3) rows and (k, d, 3) ring blocks
_SHAPES = st.tuples(st.integers(1, 5), st.integers(3, 16)).flatmap(
    lambda kd: st.sampled_from([(kd[0], 3), (kd[0], kd[1], 3)]))


def _bitwise(x, y):
    """Equal bit patterns, so the sign of zero (and any NaN) must match."""
    return x.shape == y.shape and np.array_equal(x.view(np.uint64),
                                                 y.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_helpers_equal_reduce_bitwise(data):
    shape = data.draw(_SHAPES)
    a, b = (data.draw(hnp.arrays(np.float64, shape, elements=data.draw(_ELEMENTS)))
            for _ in range(2))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bitwise(_dot(a, b), (a * b).sum(axis=-1))
        assert _bitwise(_norm(a), np.sqrt((a * a).sum(axis=-1)))
        assert _bitwise(_ring_sum(a), a.sum(axis=1))


def test_angle_of_zero_against_negative_vector_is_zero():
    # every product is -0.0; a sum that did not start from +0.0 would give
    # a -0.0 dot, and arctan2(0, -0.0) is pi
    angle, sine = _angle(np.zeros((1, 3)), -np.ones((1, 3)))
    assert _bitwise(angle, np.array([0.0]))
    assert _bitwise(sine, np.array([0.0]))


def test_mesh_stats_boundary_count_is_a_python_int_and_ignores_winding():
    # the count goes into the `stats` JSON, which refuses numpy integers
    grid = g.grid(40)
    faces = grid.faces.copy()
    faces[::2] = faces[::2, ::-1]
    flipped = mesh_stats(TriangleMesh(grid.vertices, faces))
    assert type(flipped.boundary_vertex_count) is int
    assert flipped == mesh_stats(grid)
    assert flipped.boundary_vertex_count == 160


@pytest.mark.parametrize("vertices, faces, message", [
    (np.arange(12.0).reshape(6, 2), [[0, 1, 2]], "vertices must be (n, 3), not (6, 2)"),
    (np.eye(3), np.zeros((2, 6), dtype=np.int32), "faces must be (n, 3), not (2, 6)"),
    (np.eye(3), [0, 1, 2], "faces must be (n, 3), not (3,)"),
    (np.zeros((2, 2, 3)), [[0, 1, 0]], "vertices must be (n, 3), not (2, 2, 3)"),
])
def test_mesh_arrays_must_be_n_by_3(vertices, faces, message):
    """A raw array is never reshaped into rows of three: six 2-D points are
    not a 4-vertex mesh, and a (2, 6) face array is not four triangles."""
    with pytest.raises(ValueError) as info:
        TriangleMesh(vertices, faces)
    assert str(info.value) == message


@pytest.mark.parametrize("empty", [[], np.zeros(0), np.zeros((0, 3))])
def test_empty_mesh_arrays_stay_0_by_3(empty):
    mesh = TriangleMesh(empty, empty)
    assert mesh.vertices.shape == mesh.faces.shape == (0, 3)
    assert mesh.vertices.dtype == np.float64 and mesh.faces.dtype == np.int32


def test_mean_edge_length_positions_must_be_n_by_3():
    mesh = g.icosphere(1)
    with pytest.raises(ValueError) as info:
        g.mean_edge_length(mesh.vertices[:, :2], mesh.faces)
    assert str(info.value) == "positions must be (n, 3), not (42, 2)"
    with pytest.raises(ValueError) as info:
        g.mean_edge_length(mesh.vertices, mesh.faces.ravel())
    assert str(info.value) == "faces must be (n, 3), not (240,)"


@pytest.mark.parametrize("faces, message", [
    ([[0, 1, -2]], "face index -2 outside valid range 0..41"),
    ([[0, 1, 99]], "face index 99 outside valid range 0..41"),
    ([[0, 1, 2.5]], "face index 2.5 is not an integer"),
    ([[0, 1, np.nan]], "face index nan outside valid range 0..41"),
])
def test_mean_edge_length_checks_raw_faces(faces, message):
    positions = g.icosphere(1).vertices
    with pytest.raises(FaceIndexError) as info:
        g.mean_edge_length(positions, faces)
    assert str(info.value) == message


@pytest.mark.parametrize("faces, message", [
    ([[0, 1, -2]], "face index -2 outside valid range >= 0"),
    ([[0, 1, 2.5]], "face index 2.5 is not an integer"),
    ([[0, 1, np.inf]], "face index inf outside valid range >= 0"),
    # an edge key min * n + max, n the largest index + 1, overflows int64 above 3037000498
    ([[3037000499] * 3], "face index 3037000499 above 3037000498, "
     "the largest an int64 edge key holds"),
    ([[3037000498, 3037000499, 3037000500]], "face index 3037000500 above 3037000498, "
     "the largest an int64 edge key holds"),
])
def test_unique_edges_checks_raw_faces(faces, message):
    with pytest.raises(FaceIndexError) as info:
        unique_edges(np.array(faces))
    assert str(info.value) == message


@pytest.mark.parametrize("face, edges", [
    ([3037000496, 3037000497, 3037000498], [[3037000496, 3037000497],
                                            [3037000496, 3037000498],
                                            [3037000497, 3037000498]]),
    ([3037000498] * 3, [[3037000498, 3037000498]]),
    ([0, 3037000498, 3037000498], [[0, 3037000498], [3037000498, 3037000498]]),
])
def test_unique_edges_keys_the_largest_index_that_fits(face, edges):
    assert unique_edges(np.array([face])).tolist() == edges


def test_raw_faces_may_repeat_a_vertex():
    positions = g.icosphere(1).vertices
    faces = np.array([[0, 1, 1]])
    assert unique_edges(faces).tolist() == [[0, 1], [1, 1]]
    assert unique_edges(faces.astype(np.float64)).tolist() == [[0, 1], [1, 1]]
    half = np.linalg.norm(positions[0] - positions[1]) / 2
    assert g.mean_edge_length(positions, faces) == pytest.approx(half, rel=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_mean_edge_length_names_a_non_finite_vertex(value):
    mesh = g.icosphere(1)
    positions = mesh.vertices.copy()
    positions[7, 2] = value
    with pytest.raises(NonFiniteError) as info:
        g.mean_edge_length(positions, mesh.faces)
    assert str(info.value) == "vertex 7 has a non-finite coordinate"
