"""The topology's edge list: the rows of `unique_edges`, the edge scale of
the filter and the noise bitwise that of `mean_edge_length`, the coloring
that walks it as the set-based reference does, and the checks that a mesh
has the vertex count and faces of the topology it comes with."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gcfmesh as g
from gcfmesh import cli
from gcfmesh.errors import ConnectivityMismatch, CountMismatch, EmptyMeshError
from gcfmesh.mesh import _mean_length


@st.composite
def _face_soups(draw):
    """A Delaunay patch, consistently wound or with a drawn share of its
    faces flipped and deleted, or a soup of random faces with duplicated and
    reversed copies, so that three or more faces often meet on one edge;
    with up to three unreferenced vertices after the referenced ones."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    kind = draw(st.sampled_from(["consistent", "flipped", "non-manifold"]))
    if kind == "non-manifold":
        n = draw(st.integers(3, 14))
        face = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        faces = draw(st.lists(face, min_size=1, max_size=25))
        copies = draw(st.lists(
            st.tuples(st.integers(0, len(faces) - 1), st.booleans()), max_size=25))
        faces += [faces[i][::-1] if reverse else faces[i] for i, reverse in copies]
    else:
        from scipy.spatial import Delaunay

        n = draw(st.integers(4, 60))
        faces = Delaunay(rng.random((n, 2))).simplices
        if kind == "flipped":
            flips = rng.random(len(faces)) < draw(st.floats(0.0, 1.0))
            faces[flips] = faces[flips, ::-1]
            faces = faces[rng.random(len(faces)) >= draw(st.floats(0.0, 0.5))]
    extra = draw(st.integers(0, 3))
    return g.TriangleMesh(rng.standard_normal((n + extra, 3)), faces)


@settings(max_examples=300, deadline=None)
@given(mesh=_face_soups())
def test_edge_list_is_unique_edges_and_colors_as_the_reference(mesh):
    # imported here: that module builds its meshes as it is imported
    from test_greedy_reference import _reference_coloring

    topology = g.build_topology(mesh)
    lower, upper = topology.edges
    assert topology.upper_flat.dtype == topology.upper_sizes.dtype == np.int32
    edges = g.unique_edges(mesh.faces)
    got = np.column_stack([lower, upper])
    assert got.dtype == edges.dtype and np.array_equal(got, edges)
    if mesh.face_count:
        assert (_mean_length(mesh.vertices, lower, upper).hex()
                == g.mean_edge_length(mesh.vertices, mesh.faces).hex())
    else:
        with pytest.raises(EmptyMeshError):
            _mean_length(mesh.vertices, lower, upper)
    coloring = g.greedy_domain_decomposition(topology)
    color_of, domains = _reference_coloring(topology)
    assert np.array_equal(coloring.color_of, color_of)
    assert len(coloring.domains) == len(domains)
    assert all(np.array_equal(a, b) for a, b in zip(coloring.domains, domains))


def _flipped(mesh):
    faces = mesh.faces.copy()
    faces[::2] = faces[::2, ::-1]
    return g.TriangleMesh(mesh.vertices, faces)


_SHAPES = [g.icosphere(2), g.cylinder(16, 6), g.cone(40, 3), _flipped(g.icosphere(2)),
           _flipped(g.cylinder(16, 6))]


@pytest.mark.parametrize("k", range(len(_SHAPES)))
def test_default_edge_scales_are_mean_edge_length(k):
    """gcf_step's and add_noise's scale from the edge list is bitwise the
    mean edge length over the faces."""
    clean = _SHAPES[k]
    topology = g.build_topology(clean)
    coloring = g.greedy_domain_decomposition(topology)
    noisy = g.add_noise(clean, topology, g.NoiseConfig(0.3, seed=k))
    scale = g.mean_edge_length(noisy.vertices, noisy.faces)
    got = g.gcf_step(noisy.vertices, topology, coloring)
    want = g.gcf_step(noisy.vertices, topology, coloring, edge_scale=scale)
    assert got.tobytes() == want.tobytes()
    iso = g.add_noise(noisy, topology, g.NoiseConfig(0.2, seed=k, mode="isotropic"))
    rng = np.random.Generator(np.random.PCG64(k))
    expected = noisy.vertices + rng.normal(0.0, 0.2 * scale, (noisy.vertex_count, 3))
    assert iso.vertices.tobytes() == expected.tobytes()


@pytest.fixture
def sphere():
    mesh = g.icosphere(2)
    topology = g.build_topology(mesh)
    return mesh, topology, g.greedy_domain_decomposition(topology)


def test_reversed_faces_with_the_original_topology_are_a_mismatch(sphere):
    mesh, topology, coloring = sphere
    reversed_ = g.TriangleMesh(mesh.vertices, mesh.faces[:, ::-1])
    with pytest.raises(ConnectivityMismatch):
        g.gcf_filter(reversed_, topology, coloring, g.FilterConfig(1))
    with pytest.raises(ConnectivityMismatch):
        g.add_noise(reversed_, topology, g.NoiseConfig(0.3))


def test_equal_faces_in_another_array_are_no_mismatch(sphere):
    mesh, topology, coloring = sphere
    copy = g.TriangleMesh(mesh.vertices.copy(), mesh.faces.copy())
    config = g.FilterConfig(2, capture_trace=True)
    (a, trace_a), (b, trace_b) = (g.gcf_filter(m, topology, coloring, config)
                                  for m in (mesh, copy))
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert trace_a.gce_per_iteration == trace_b.gce_per_iteration
    noise = g.NoiseConfig(0.3, seed=3)
    assert (g.add_noise(mesh, topology, noise).vertices.tobytes()
            == g.add_noise(copy, topology, noise).vertices.tobytes())


@pytest.mark.parametrize("case", ["extra vertex", "fewer vertices"])
def test_a_vertex_count_other_than_the_topology_is_a_mismatch(sphere, case):
    mesh, topology, coloring = sphere
    bigger = g.TriangleMesh(np.vstack([mesh.vertices, [[5.0, 5.0, 5.0]]]), mesh.faces)
    if case == "fewer vertices":
        topology = g.build_topology(bigger)
        coloring = g.greedy_domain_decomposition(topology)
    else:
        mesh = bigger
    with pytest.raises(CountMismatch):
        g.gcf_filter(mesh, topology, coloring, g.FilterConfig(1))
    with pytest.raises(CountMismatch):
        g.gcf_step(mesh.vertices, topology, coloring)
    with pytest.raises(CountMismatch):
        g.gcf_step(mesh.vertices, topology, coloring, edge_scale=1.0)
    with pytest.raises(CountMismatch):
        g.add_noise(mesh, topology, g.NoiseConfig(0.3))


@pytest.mark.parametrize("other", ["reversed faces", "extra vertex"])
def test_filter_with_another_topology_exit_code(tmp_path, capsys, monkeypatch, other):
    """`gcfmesh filter` builds its topology from the mesh it loads; were it
    another mesh's, the run exits 3 and writes nothing."""
    source = tmp_path / "in.obj"
    g.save_mesh(g.icosphere(1), source)
    build = cli.build_topology

    def other_topology(mesh):
        if other == "reversed faces":
            return build(g.TriangleMesh(mesh.vertices, mesh.faces[:, ::-1]))
        return build(g.TriangleMesh(np.vstack([mesh.vertices, [[5.0, 5.0, 5.0]]]),
                                    mesh.faces))

    monkeypatch.setattr(cli, "build_topology", other_topology)
    out, trace = tmp_path / "out.obj", tmp_path / "t.csv"
    assert cli.main(["filter", "-i", str(source), "-o", str(out), "--iters", "1",
                     "--trace", str(trace)]) == 3
    assert "topology" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


_CHECKED = {"gaussian_curvature": lambda m, t: g.gaussian_curvature(m, t),
            "laplacian_smooth": lambda m, t: g.laplacian_smooth(m, t, 1),
            "taubin_smooth": lambda m, t: g.taubin_smooth(m, t, 1)}


@pytest.mark.parametrize("name", _CHECKED)
def test_curvature_and_smoothers_check_their_topology(sphere, name):
    """Reversed faces and permuted vertices are a ConnectivityMismatch, and
    a vertex count other than the topology's is a CountMismatch."""
    mesh, topology, _ = sphere
    call = _CHECKED[name]
    with pytest.raises(ConnectivityMismatch):
        call(g.TriangleMesh(mesh.vertices, mesh.faces[:, ::-1]), topology)
    with pytest.raises(CountMismatch):
        call(g.TriangleMesh(np.vstack([mesh.vertices, [[5.0, 5.0, 5.0]]]), mesh.faces),
             topology)
    with pytest.raises(CountMismatch):
        call(g.icosphere(2), g.build_topology(g.icosphere(1)))
    perm = np.random.default_rng(0).permutation(mesh.vertex_count)
    inverse = np.argsort(perm)
    with pytest.raises(ConnectivityMismatch):
        call(g.TriangleMesh(mesh.vertices[perm], inverse[mesh.faces]), topology)


@pytest.mark.parametrize("name", _CHECKED)
def test_curvature_and_smoothers_take_equal_faces_in_another_array(sphere, name):
    mesh, topology, _ = sphere
    copy = g.TriangleMesh(mesh.vertices.copy(), mesh.faces.copy())
    a, b = (_CHECKED[name](m, topology) for m in (mesh, copy))
    if name == "gaussian_curvature":
        a, b = a.curvature, b.curvature
    else:
        a, b = a.vertices, b.vertices
    assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def sphere3():
    mesh = g.icosphere(3)
    return mesh, g.build_topology(mesh)


@pytest.mark.parametrize("subdivisions", [2, 4])
def test_a_coloring_of_another_vertex_count_is_a_mismatch(sphere3, subdivisions):
    """icosphere(2)'s coloring (162 vertices) would filter a 642-vertex
    mesh silently, and icosphere(4)'s (2562) would index past its end."""
    mesh, topology = sphere3
    coloring = g.greedy_domain_decomposition(
        g.build_topology(g.icosphere(subdivisions)))
    with pytest.raises(CountMismatch, match=f"{len(coloring.color_of)} vertices"):
        g.gcf_filter(mesh, topology, coloring, g.FilterConfig(1))
    with pytest.raises(CountMismatch):
        g.gcf_step(mesh.vertices, topology, coloring)
    with pytest.raises(CountMismatch):
        g.gcf_step(mesh.vertices, topology, coloring, edge_scale=1.0)


def test_a_single_domain_coloring_of_the_right_size_still_filters(sphere3):
    mesh, topology = sphere3
    noisy = g.add_noise(mesh, topology, g.NoiseConfig(0.3, seed=1))
    out, _ = g.gcf_filter(noisy, topology, g.single_domain_coloring(mesh.vertex_count),
                          g.FilterConfig(2))
    assert out.vertex_count == mesh.vertex_count
    assert np.isfinite(out.vertices).all()
    assert not np.array_equal(out.vertices, noisy.vertices)


def test_vertex_normals_check_their_topology(sphere):
    mesh, topology, _ = sphere
    with pytest.raises(CountMismatch):
        g.vertex_normals(g.icosphere(3), topology)
    with pytest.raises(CountMismatch):
        g.vertex_normals(mesh, g.build_topology(g.icosphere(1)))
    with pytest.raises(ConnectivityMismatch):
        g.vertex_normals(g.TriangleMesh(mesh.vertices, mesh.faces[:, ::-1]), topology)
    copy = g.TriangleMesh(mesh.vertices.copy(), mesh.faces.copy())
    (a, _), (b, _) = (g.vertex_normals(m, topology) for m in (mesh, copy))
    assert a.tobytes() == b.tobytes()


def test_metrics_report_checks_the_vertex_count_before_the_faces():
    with pytest.raises(CountMismatch):
        g.metrics_report(g.grid(2), g.grid(3))
    mesh = g.grid(3)
    with pytest.raises(CountMismatch):
        g.metrics_report(g.TriangleMesh(np.vstack([mesh.vertices, [[5.0, 5.0, 5.0]]]),
                                        mesh.faces[:, ::-1]), mesh)
    with pytest.raises(ConnectivityMismatch):
        g.metrics_report(g.TriangleMesh(mesh.vertices, mesh.faces[:, ::-1]), mesh)
