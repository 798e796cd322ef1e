import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gcfmesh as g
from gcfmesh import (
    FilterConfig,
    TriangleMesh,
    build_topology,
    gaussian_curvature,
    gcf_filter,
    gcf_step,
    greedy_domain_decomposition,
    mean_edge_length,
    mesh_stats,
)
from gcfmesh.errors import DegenerateMeshError

import reduce_reference
from bruteforce import reference_step
from conftest import random_meshes


def _closed_fan(center, ring):
    """Mesh made of one vertex surrounded by a closed fan of neighbors."""
    verts = np.vstack([center, ring])
    m = len(ring)
    faces = [(0, 1 + k, 1 + (k + 1) % m) for k in range(m)]
    return TriangleMesh(verts, faces)


def _grid_interior_vertex(mesh, n):
    # vertex at lattice (n//2, n//2) of an n-cell grid
    return (n // 2) * (n + 1) + n // 2


def _step(mesh, positions=None, edge_scale=None):
    """One gcf_step over the mesh's connectivity, from `positions` if given;
    returns (new positions, topology, coloring)."""
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    pos = mesh.vertices if positions is None else positions
    out = gcf_step(pos, topo, col, edge_scale=edge_scale)
    return out, topo, col


# --- moving direction -------------------------------------------------------


def test_moving_direction_pyramid_apex(square_pyramid):
    # the apex moves straight down by its height onto the base plane
    out, _, _ = _step(square_pyramid)
    assert out[4].tolist() == [0.0, 0.0, 0.0]
    assert np.array_equal(out[:4], square_pyramid.vertices[:4])


def test_moving_direction_none_at_centroid():
    # a vertex at its ring centroid has no moving direction
    mesh = g.grid(4)
    i = _grid_interior_vertex(mesh, 4)
    out, _, _ = _step(mesh)
    assert np.array_equal(out[i], mesh.vertices[i])


def test_moving_direction_displaced_above_plane():
    mesh = g.grid(4)
    i = _grid_interior_vertex(mesh, 4)
    verts = mesh.vertices.copy()
    verts[i, 2] += 0.5
    out, topo, col = _step(mesh, verts, edge_scale=1.0)
    assert np.abs(out[i, :2] - verts[i, :2]).max() <= 1e-15
    assert out[i, 2] < 0.5
    expect = reference_step(verts, topo, col, 1.0)
    assert np.abs(out - expect).max() < 1e-12


# --- neighbor normal --------------------------------------------------------


def test_neighbor_normal_planar_ring():
    # shifted within the plane, the vertex has a direction, but the planar
    # ring's neighbor normals are perpendicular to every ring edge
    mesh = g.grid(4)
    i = _grid_interior_vertex(mesh, 4)
    verts = mesh.vertices.copy()
    verts[i, 0] += 0.1
    out, _, _ = _step(mesh, verts, edge_scale=1.0)
    assert np.array_equal(out, verts)


def test_neighbor_normal_collinear_none():
    # collinear ring with the center lifted off the line: the center has a
    # moving direction, but every neighbor normal is degenerate and the
    # area-weighted vertex normal cancels exactly, so nothing moves
    center = (2.5, 0.0, 1.0)
    ring = [(1.0, 0, 0), (2.0, 0, 0), (3.0, 0, 0), (4.0, 0, 0)]
    fan = _closed_fan(center, ring)
    out, topo, col = _step(fan, edge_scale=1.0)
    assert not topo.is_boundary[0] and topo.is_manifold_fan[0]
    assert np.array_equal(out, fan.vertices)
    assert np.array_equal(reference_step(fan.vertices, topo, col, 1.0),
                          fan.vertices)


def test_neighbor_normal_cylinder_axial_neighbor():
    # plus-shaped ring on a unit cylinder: the axial neighbors' normals are
    # radial, perpendicular to the axial ring edges, so the center stays
    delta, h = 0.1, 0.1
    center = (1.0, 0.0, 0.0)
    east = (np.cos(delta), np.sin(delta), 0.0)
    west = (np.cos(delta), -np.sin(delta), 0.0)
    up = (1.0, 0.0, h)
    down = (1.0, 0.0, -h)
    fan = _closed_fan(center, [east, up, west, down])
    out, topo, col = _step(fan, edge_scale=0.1)
    assert np.array_equal(out, fan.vertices)
    expect = reference_step(fan.vertices, topo, col, 0.1)
    assert np.array_equal(expect, fan.vertices)


# --- minimum projection distance -------------------------------------------


def test_min_projection_zero_for_coplanar_ring():
    mesh = g.grid(4)
    out, topo, _ = _step(mesh)
    assert (~topo.is_boundary).sum() == 9
    assert np.array_equal(out, mesh.vertices)


def test_min_projection_zero_on_cube_crease():
    mesh = g.cube(4)
    on_crease = (np.abs(np.abs(mesh.vertices) - 1.0) < 1e-12).sum(axis=1) >= 2
    assert on_crease.any()
    out, topo, col = _step(mesh)
    assert np.array_equal(out[on_crease], mesh.vertices[on_crease])
    el = mean_edge_length(mesh.vertices, mesh.faces)
    expect = reference_step(mesh.vertices, topo, col, el)
    assert np.array_equal(expect[on_crease], mesh.vertices[on_crease])


def test_min_projection_zero_on_cylinder():
    mesh = g.cylinder(16, 8)
    interior_side = 5 * 16 + 3  # a mid-height side vertex
    out, topo, _ = _step(mesh)
    assert not topo.is_boundary[interior_side]
    assert np.array_equal(out[interior_side], mesh.vertices[interior_side])


def test_degenerate_neighborhood_raises():
    # a neighborhood without any usable candidate normal no longer raises:
    # the full filter skips the vertex on every sweep and leaves the fan as is
    center = (0.0, 0.0, 0.0)
    ring = [(1.0, 0, 0), (2.0, 0, 0), (3.0, 0, 0), (4.0, 0, 0)]
    fan = _closed_fan(center, ring)
    topo = build_topology(fan)
    col = greedy_domain_decomposition(topo)
    out, _ = gcf_filter(fan, topo, col, FilterConfig(iterations=3))
    assert np.array_equal(out.vertices, fan.vertices)
    assert np.array_equal(out.faces, fan.faces)


def test_coincident_fan_raises():
    # every edge has length 0, so the cutoffs have no scale to anchor to
    fan = _closed_fan((0.0, 0.0, 0.0), np.zeros((6, 3)))
    topo = build_topology(fan)
    col = greedy_domain_decomposition(topo)
    with pytest.raises(DegenerateMeshError, match="edge scale 0.0"):
        gcf_filter(fan, topo, col, FilterConfig(iterations=1))


@pytest.mark.parametrize("edge_scale", [0.0, float("nan"), float("inf")])
def test_step_rejects_degenerate_edge_scale(edge_scale):
    with pytest.raises(DegenerateMeshError, match="edge scale"):
        _step(g.icosphere(2), edge_scale=edge_scale)


# --- single step -------------------------------------------------------------


def test_step_planar_grid_fixed_point():
    mesh = g.grid(6)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    out = gcf_step(mesh.vertices, topo, col)
    assert np.array_equal(out, mesh.vertices)


def test_step_closed_cylinder_fixed_point():
    mesh = g.cylinder(24, 12)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    el = mesh_stats(mesh).mean_edge_length
    out = gcf_step(mesh.vertices, topo, col)
    moved = np.linalg.norm(out - mesh.vertices, axis=1)
    assert moved.max() <= 1e-9 * el


def test_step_degenerate_fan_unmoved():
    # collinear ring: every candidate normal is degenerate, so the center
    # has no usable normal and stays, in the kernel and in the oracle
    center = (0.0, 0.0, 0.0)
    ring = [(1.0, 0, 0), (2.0, 0, 0), (3.0, 0, 0), (4.0, 0, 0)]
    fan = _closed_fan(center, ring)
    out, topo, col = _step(fan, edge_scale=1.0)
    assert np.array_equal(out, fan.vertices)
    assert np.array_equal(reference_step(fan.vertices, topo, col, 1.0),
                          fan.vertices)


def test_step_displaced_vertex_matches_reference():
    mesh = g.grid(6)
    i = _grid_interior_vertex(mesh, 6)
    verts = mesh.vertices.copy()
    verts[i] += (0.0, 0.0, 0.4)
    mesh = TriangleMesh(verts, mesh.faces)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    el = mesh_stats(mesh).mean_edge_length
    out = gcf_step(mesh.vertices, topo, col, edge_scale=el)
    expect = reference_step(mesh.vertices, topo, col, el)
    assert np.abs(out - expect).max() < 1e-12
    # the displaced vertex moved straight down, everything else stayed
    assert out[i, 2] < 0.4
    assert out[i, 0] == mesh.vertices[i, 0]
    others = np.ones(mesh.vertex_count, bool)
    others[i] = False
    assert np.array_equal(out[others], mesh.vertices[others])


def test_step_matches_reference_on_random_meshes():
    for mesh in random_meshes():
        topo = build_topology(mesh)
        col = greedy_domain_decomposition(topo)
        el = mesh_stats(mesh).mean_edge_length
        out = gcf_step(mesh.vertices, topo, col, edge_scale=el)
        expect = reference_step(mesh.vertices, topo, col, el)
        assert np.abs(out - expect).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60),
       flip=st.one_of(st.just(0.0), st.floats(0.0, 0.6)),
       delete=st.floats(0.0, 0.4),
       duplicate=st.booleans())
def test_filter_on_irregular_patches(seed, n, flip, delete, duplicate):
    # noisy Delaunay patches with flipped, deleted and repeated faces: the
    # filter stays finite, frozen vertices stay bitwise, and where the
    # winding is consistent one step stays in the oracle's band
    from scipy.spatial import Delaunay

    rng = np.random.Generator(np.random.PCG64(seed))
    pts = rng.random((n, 2))
    faces = Delaunay(pts).simplices
    flips = rng.random(len(faces)) < flip
    faces[flips] = faces[flips, ::-1]
    faces = faces[rng.random(len(faces)) >= delete]
    assume(len(faces))
    if duplicate:
        faces = np.vstack([faces, faces[rng.integers(len(faces)), ::-1]])
    mesh = TriangleMesh(np.column_stack([pts, 0.1 * rng.standard_normal(n)]), faces)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    out, trace = gcf_filter(mesh, topo, col,
                            FilterConfig(iterations=3, capture_trace=True))
    assert np.isfinite(out.vertices).all()
    frozen = topo.is_boundary | ~topo.is_manifold_fan
    assert np.array_equal(out.vertices[frozen], mesh.vertices[frozen])
    assert len(trace.gce_per_iteration) == 4
    assert np.isfinite(trace.gce_per_iteration).all()
    field = gaussian_curvature(out, topo)
    assert all(np.isfinite(a).all()
               for a in (field.curvature, field.ring_area, field.deficit))
    if not flips.any() and not duplicate:
        el = mean_edge_length(mesh.vertices, mesh.faces)
        step = gcf_step(mesh.vertices, topo, col, edge_scale=el)
        expect = reference_step(mesh.vertices, topo, col, el)
        assert np.abs(step - expect).max() < 1e-12


def test_step_jacobi_single_domain_matches_reference():
    mesh = random_meshes()[1]
    topo = build_topology(mesh)
    col = g.single_domain_coloring(mesh.vertex_count)
    el = mesh_stats(mesh).mean_edge_length
    out = gcf_step(mesh.vertices, topo, col, edge_scale=el)
    expect = reference_step(mesh.vertices, topo, col, el)
    assert np.abs(out - expect).max() < 1e-12


def test_step_independent_of_face_winding():
    # Candidate 0 sums cross products in ring order, so flipping stored faces
    # cannot change it. The oracle sums stored windings instead, which is
    # why it is compared on consistently wound meshes only.
    mesh = g.icosphere(2)
    noisy = g.add_noise(mesh, build_topology(mesh), g.NoiseConfig(0.2, seed=3))
    faces = noisy.faces.copy()
    faces[::7] = faces[::7, ::-1]
    consistent, _, _ = _step(noisy)
    mixed, topo, _ = _step(TriangleMesh(noisy.vertices, faces))
    assert topo.is_manifold_fan.all() and not topo.is_boundary.any()
    assert not np.array_equal(consistent, noisy.vertices)
    assert np.abs(mixed - consistent).max() < 1e-12


# --- full filter -------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(iterations=0)
    with pytest.raises(ValueError):
        FilterConfig(iterations=1, threads=-1)


@pytest.mark.parametrize("kwargs", [
    {"iterations": 2.5}, {"iterations": True}, {"iterations": "3"},
    {"iterations": 1, "threads": 2.5}, {"iterations": 1, "threads": -3},
    {"iterations": 1, "threads": None},
])
def test_config_counts_must_be_integers(kwargs):
    with pytest.raises(ValueError, match="iterations|threads"):
        FilterConfig(**kwargs)


@pytest.mark.parametrize("threads", [-3, -1, 2.5, True, None])
def test_step_threads_follow_the_config_rule(threads):
    mesh = g.icosphere(1)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    with pytest.raises(ValueError, match="threads"):
        gcf_step(mesh.vertices, topo, col, threads=threads)


def test_numpy_integer_counts_are_accepted():
    mesh = random_meshes()[0]
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    want, _ = gcf_filter(mesh, topo, col, FilterConfig(2, threads=1))
    got, _ = gcf_filter(mesh, topo, col, FilterConfig(np.int64(2), threads=np.int32(1)))
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(gcf_step(mesh.vertices, topo, col, threads=np.int64(1)),
                          gcf_step(mesh.vertices, topo, col, threads=1))


def test_one_iteration_equals_one_step():
    mesh = random_meshes()[0]
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    out, _ = gcf_filter(mesh, topo, col, FilterConfig(iterations=1))
    step = gcf_step(mesh.vertices, topo, col,
                    edge_scale=mesh_stats(mesh).mean_edge_length)
    assert np.array_equal(out.vertices, step)


def test_boundary_bitwise_frozen():
    base = g.grid(8)
    topo = build_topology(base)
    noisy = g.add_noise(base, topo, g.NoiseConfig(0.3, seed=5, mode="isotropic"))
    out, _ = gcf_filter(noisy, topo, greedy_domain_decomposition(topo),
                        FilterConfig(iterations=20))
    b = topo.is_boundary
    assert b.sum() == 32
    assert np.array_equal(out.vertices[b], noisy.vertices[b])
    assert np.array_equal(out.faces, noisy.faces)


def test_nonmanifold_frozen(bowtie):
    topo = build_topology(bowtie)
    col = greedy_domain_decomposition(topo)
    out, _ = gcf_filter(bowtie, topo, col, FilterConfig(iterations=5))
    assert np.array_equal(out.vertices, bowtie.vertices)


def test_trace_shape_and_head():
    mesh = g.icosphere(2)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    noisy = g.add_noise(mesh, topo, g.NoiseConfig(0.3, seed=2))
    out, trace = gcf_filter(noisy, topo, col,
                            FilterConfig(iterations=7, capture_trace=True))
    assert len(trace.gce_per_iteration) == 8
    field = g.gaussian_curvature(noisy, topo)
    assert trace.gce_per_iteration[0] == pytest.approx(
        g.gaussian_curvature_energy(field), rel=1e-12
    )
    out2, none_trace = gcf_filter(noisy, topo, col, FilterConfig(iterations=7))
    assert none_trace is None
    assert np.array_equal(out2.vertices, out.vertices)


def test_noisy_sphere_energy_drops():
    mesh = g.icosphere(3)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    noisy = g.add_noise(mesh, topo, g.NoiseConfig(0.3, seed=42))
    e_noisy = g.gaussian_curvature_energy(g.gaussian_curvature(noisy, topo))
    out, _ = gcf_filter(noisy, topo, col, FilterConfig(iterations=40))
    e_out = g.gaussian_curvature_energy(g.gaussian_curvature(out, topo))
    assert e_out < e_noisy


def test_thread_count_invariance():
    mesh = g.icosphere(3)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    noisy = g.add_noise(mesh, topo, g.NoiseConfig(0.3, seed=9))
    results = [
        gcf_filter(noisy, topo, col,
                   FilterConfig(iterations=10, threads=t))[0].vertices
        for t in (1, 2, 8)
    ]
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


def test_block_size_invariance(monkeypatch):
    # with 7-row blocks every domain splits into many blocks that the
    # worker threads share; rows must not depend on who shares a block
    mesh = g.icosphere(3)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    noisy = g.add_noise(mesh, topo, g.NoiseConfig(0.3, seed=9))
    want = gcf_filter(noisy, topo, col, FilterConfig(iterations=10, threads=1))[0]
    monkeypatch.setattr(g.filtering, "_BLOCK", 7)
    for t in (1, 2, 8):
        got = gcf_filter(noisy, topo, col, FilterConfig(iterations=10, threads=t))[0]
        assert np.array_equal(got.vertices, want.vertices)


def test_feature_fixed_points_stay_exact():
    # a vertex whose ring admits a normal perpendicular to a ring edge is
    # exactly unmoved even while its surroundings change
    mesh = g.cube(6)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    out, _ = gcf_filter(mesh, topo, col, FilterConfig(iterations=40))
    assert np.array_equal(out.vertices, mesh.vertices)


def _noisy(mesh, seed):
    return g.add_noise(mesh, build_topology(mesh), g.NoiseConfig(0.3, seed=seed))


def _signed_zero_grid():
    # negating the z=0 grid gives -0.0 coordinates; the regular interior
    # rings have a zero mean edge, so those rows get no direction
    grid = g.grid(6)
    return TriangleMesh(-grid.vertices, grid.faces)


@pytest.mark.parametrize("mesh,max_degree", [
    (_noisy(g.icosphere(3), 1), 6), (_noisy(g.cube(6), 2), 6),
    (_noisy(g.cone(10, 3), 3), 10), (_signed_zero_grid(), 6),
], ids=["icosphere", "cube", "cone", "grid"])
def test_kernel_equals_reduce_reference_bitwise(mesh, max_degree):
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    scale = mean_edge_length(mesh.vertices, mesh.faces)
    tols = (g.filtering.DIRECTION_TOL * scale,
            g.filtering.NORMAL_TOL * scale * scale)
    block = g.filtering._BLOCK
    degrees = set()
    for groups in g.filtering._build_plan(topo, col):
        for rows, rings in groups:
            degrees.add(rings.shape[1])
            for lo in range(0, len(rows), block):
                args = (mesh.vertices, rows[lo:lo + block], rings[lo:lo + block])
                got = g.filtering._kernel(*args, *tols)
                want = reduce_reference.kernel(*args, *tols)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert max(degrees) == max_degree


def test_last_trace_entry_is_output_energy():
    mesh = g.icosphere(3)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    noisy = g.add_noise(mesh, topo, g.NoiseConfig(0.3, seed=4))
    out, trace = gcf_filter(noisy, topo, col,
                            FilterConfig(iterations=5, capture_trace=True))
    assert trace.gce_per_iteration[-1] == g.gaussian_curvature_energy(
        gaussian_curvature(out, topo))


def _assert_kernel_matches_reference(mesh, block=None):
    """_kernel equals reduce_reference.kernel bit for bit on every block,
    from a C-ordered and from a Fortran-ordered snapshot; returns the
    degrees seen."""
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    scale = mean_edge_length(mesh.vertices, mesh.faces)
    tols = (g.filtering.DIRECTION_TOL * scale,
            g.filtering.NORMAL_TOL * scale * scale)
    block = block or g.filtering._BLOCK
    snapshots = (mesh.vertices, np.asfortranarray(mesh.vertices))
    degrees = set()
    for groups in g.filtering._build_plan(topo, col):
        for rows, rings in groups:
            degrees.add(rings.shape[1])
            for lo in range(0, len(rows), block):
                args = (rows[lo:lo + block], rings[lo:lo + block], *tols)
                want = reduce_reference.kernel(mesh.vertices, *args)
                for snapshot in snapshots:
                    got = g.filtering._kernel(snapshot, *args)
                    assert np.array_equal(got.view(np.uint64),
                                          want.view(np.uint64))
    return degrees


@pytest.mark.parametrize("mesh", [
    _noisy(g.icosphere(3), 1), _noisy(g.cube(6), 2), _noisy(g.cone(10, 3), 3),
    _signed_zero_grid(),
], ids=["icosphere", "cube", "cone", "grid"])
def test_kernel_bitwise_from_c_and_fortran_snapshots(mesh):
    assert _assert_kernel_matches_reference(mesh)


def test_kernel_bitwise_on_high_degree_caps():
    # each cap center of cylinder(72, 3) is one row of degree 72
    degrees = _assert_kernel_matches_reference(_noisy(g.cylinder(72, 3), 5))
    assert max(degrees) == 72


_RANDOM_MESHES = random_meshes()


@settings(max_examples=100, deadline=None)
@given(mesh=st.sampled_from(_RANDOM_MESHES), seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([3, 64, 4096]))
def test_kernel_bitwise_on_random_noisy_meshes(mesh, seed, block):
    _assert_kernel_matches_reference(_noisy(mesh, seed), block)


def test_cross3_into_strided_buffer_is_bitwise():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 5, 6, 3))
    buf = np.empty((3, 7, 5)).T  # component-major (5, 7, 3)
    got = g.mesh._cross3(a, b, out=buf[:, 1:])
    assert np.shares_memory(got, buf)
    want = g.mesh._cross3(a, b)
    assert np.array_equal(buf[:, 1:].view(np.uint64), want.view(np.uint64))


def test_zero_edge_scale_message_names_coincident_vertices():
    with pytest.raises(DegenerateMeshError) as info:
        _step(g.icosphere(2), edge_scale=0.0)
    assert str(info.value) == ("edge scale 0.0 is not finite and positive "
                               "(do all vertices coincide, or are the "
                               "coordinates too small to square?)")


def test_infinite_edge_scale_message_names_large_coordinates():
    with pytest.raises(DegenerateMeshError) as info:
        _step(g.icosphere(2), edge_scale=float("inf"))
    assert str(info.value) == ("edge scale inf is not finite and positive "
                               "(are the coordinates too large to square?)")


def test_step_jacobi_single_domain_from_fortran_positions():
    # a Fortran-ordered input must still be snapshotted by copy: one domain
    # holds adjacent vertices, so an aliased snapshot would let later degree
    # groups read rows that earlier groups already moved
    mesh = random_meshes()[1]
    topo = build_topology(mesh)
    col = g.single_domain_coloring(mesh.vertex_count)
    el = mesh_stats(mesh).mean_edge_length
    out = gcf_step(np.asfortranarray(mesh.vertices), topo, col, edge_scale=el)
    expect = reference_step(mesh.vertices, topo, col, el)
    assert np.abs(out - expect).max() < 1e-12
    c_order = gcf_step(mesh.vertices, topo, col, edge_scale=el)
    assert np.array_equal(out.view(np.uint64), c_order.view(np.uint64))


def test_kernel_blocks_bounded_by_projection_size(monkeypatch):
    # 200 disjoint cone(64, 1) copies: 400 rows of degree 64, whose
    # (rows, 65, 64) projection must stay within a 4096-row degree-6 block's
    cone = g.cone(64, 1)
    copies = 200
    mesh = _noisy(TriangleMesh(
        np.concatenate([cone.vertices + (3.0 * k, 0.0, 0.0) for k in range(copies)]),
        np.concatenate([cone.faces + k * cone.vertex_count for k in range(copies)]),
    ), 6)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    kernel = g.filtering._kernel
    calls = []

    def bounded(snapshot, rows, rings, *tols):
        d = rings.shape[1]
        assert len(rows) * (d + 1) * d <= 42 * g.filtering._BLOCK
        calls.append((d, len(rows)))
        return kernel(snapshot, rows, rings, *tols)

    monkeypatch.setattr(g.filtering, "_kernel", bounded)
    outs = [gcf_filter(mesh, topo, col,
                       FilterConfig(iterations=2, threads=t))[0].vertices
            for t in (1, 2)]
    assert np.array_equal(outs[0].view(np.uint64), outs[1].view(np.uint64))
    assert not np.array_equal(outs[0], mesh.vertices)
    wide = [rows for d, rows in calls if d == 64]
    assert max(wide) == 42 * g.filtering._BLOCK // (65 * 64)
    assert sum(wide) == 2 * 2 * 2 * copies  # two iterations, two thread counts


_CUT = g.filtering._LONG_RING


def _negative_zero_fan(degree):
    # planar fan whose centre has z = +0.0 and whose ring has z = -0.0, so
    # every edge's z is -0.0 and the ring sums over z add only -0.0 terms
    theta = np.arange(degree) * (2.0 * np.pi / degree)
    ring = np.column_stack([np.cos(theta), np.sin(theta), np.full(degree, -0.0)])
    return _closed_fan([0.1, 0.05, 0.0], ring)


@pytest.mark.parametrize("mesh,degree", [
    (_noisy(g.cylinder(320, 3), 7), 320), (_noisy(g.cone(600, 4), 8), 600),
    (_noisy(g.cone(_CUT - 1, 3), 9), _CUT - 1), (_noisy(g.cone(_CUT, 3), 10), _CUT),
    (_noisy(g.cone(_CUT + 1, 3), 11), _CUT + 1), (_negative_zero_fan(64), 64),
], ids=["cylinder-320", "cone-600", "cone-below-cut", "cone-at-cut",
        "cone-above-cut", "negative-zero-fan"])
def test_kernel_bitwise_on_long_rings(mesh, degree):
    assert max(_assert_kernel_matches_reference(mesh)) == degree


def _ring_values(rng, case, shape):
    if case == "negative-zero":
        return np.full(shape, -0.0)
    if case == "signed-units":
        return rng.choice([0.0, -0.0, 1.0, -1.0], shape)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)


@pytest.mark.parametrize("d", [_CUT - 1, _CUT, _CUT + 1, 64, 320])
@pytest.mark.parametrize("case", ["negative-zero", "signed-units", "wide"])
def test_ring_reductions_equal_slice_loops(d, case):
    # both branches of _ring_sum and _ring_min against the slice loops of
    # the short branch: an in-order sum from +0.0 and a fold of np.minimum
    rng = np.random.default_rng(d)
    v = np.empty((3, d, 5)).T  # component-major (rows, d, 3), as in the kernel
    v[...] = _ring_values(rng, case, v.shape)
    want = np.zeros_like(v[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(d):
            want += v[:, k]
        got = g.filtering._ring_sum(v)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # projections are absolute values, so no -0.0 meets +0.0 in a minimum
    proj = np.abs(_ring_values(rng, case, (5, d + 1, d)))
    for block in (proj, proj[:, :, 0]):  # the kernel's (rows, d+1, d), (rows, d+1)
        want = block[..., 0].copy()
        for k in range(1, block.shape[-1]):
            np.minimum(want, block[..., k], out=want)
        got = g.filtering._ring_min(block)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_single_domain_blocks_read_the_pass_start(monkeypatch, threads):
    # one domain holds adjacent vertices of one degree in many 7-row blocks;
    # a block written back before the others return would move their rings
    mesh = _noisy(g.icosphere(2), 12)
    topo = build_topology(mesh)
    col = g.single_domain_coloring(mesh.vertex_count)
    el = mesh_stats(mesh).mean_edge_length
    want = gcf_step(mesh.vertices, topo, col, edge_scale=el, threads=threads)
    monkeypatch.setattr(g.filtering, "_BLOCK", 7)
    assert max(len(b) for b in g.filtering._build_plan(topo, col)) > 10
    got = gcf_step(mesh.vertices, topo, col, edge_scale=el, threads=threads)
    expect = reference_step(mesh.vertices, topo, col, el)
    assert np.abs(got - expect).max() < 1e-12
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("edge_scale", [None, 0.5])
def test_step_rejects_non_finite_positions(value, edge_scale):
    mesh = g.icosphere(1)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    positions = mesh.vertices.copy()
    positions[3, 0] = value
    with pytest.raises(g.errors.NonFiniteError) as info:
        gcf_step(positions, topo, col, edge_scale=edge_scale)
    assert str(info.value) == "vertex 3 has a non-finite coordinate"


@pytest.mark.parametrize("columns", [slice(0, 2), [0, 1, 2, 0], 0])
def test_step_rejects_positions_not_n_by_3(columns):
    mesh = g.icosphere(1)
    topo = build_topology(mesh)
    col = greedy_domain_decomposition(topo)
    positions = mesh.vertices[:, columns]
    with pytest.raises(ValueError) as info:
        gcf_step(positions, topo, col)
    assert str(info.value) == f"positions must be (n, 3), not {positions.shape}"
