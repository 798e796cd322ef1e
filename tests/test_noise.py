import numpy as np
import pytest

import gcfmesh as g
from gcfmesh import (
    NoiseConfig,
    add_noise,
    build_topology,
    gaussian_curvature,
    laplacian_smooth,
    mesh_stats,
    taubin_smooth,
    unique_edges,
    vertex_normals,
)
from gcfmesh.errors import BadResolution


# --- noise -------------------------------------------------------------------


def test_zero_sigma_is_identity():
    mesh = g.icosphere(2)
    topo = build_topology(mesh)
    out = add_noise(mesh, topo, NoiseConfig(0.0, seed=3))
    assert np.array_equal(out.vertices, mesh.vertices)
    assert np.array_equal(out.faces, mesh.faces)


def test_same_seed_bitwise_identical():
    mesh = g.icosphere(2)
    topo = build_topology(mesh)
    for mode in ("along_normal", "isotropic"):
        a = add_noise(mesh, topo, NoiseConfig(0.3, seed=7, mode=mode))
        b = add_noise(mesh, topo, NoiseConfig(0.3, seed=7, mode=mode))
        c = add_noise(mesh, topo, NoiseConfig(0.3, seed=8, mode=mode))
        assert np.array_equal(a.vertices, b.vertices)
        assert not np.array_equal(a.vertices, c.vertices)


def test_statistical_sigma_large_mesh():
    mesh = g.icosphere(5)  # 10242 vertices
    assert mesh.vertex_count >= 10000
    topo = build_topology(mesh)
    el = mesh_stats(mesh).mean_edge_length
    noisy = add_noise(mesh, topo, NoiseConfig(0.3, seed=11))
    normals, _ = vertex_normals(mesh, topo)
    signed = ((noisy.vertices - mesh.vertices) * normals).sum(axis=1)
    assert np.std(signed) == pytest.approx(0.3 * el, rel=0.05)


def test_isotropic_mode_displaces_all_coordinates():
    mesh = g.icosphere(2)
    topo = build_topology(mesh)
    noisy = add_noise(mesh, topo, NoiseConfig(0.3, seed=1, mode="isotropic"))
    delta = noisy.vertices - mesh.vertices
    assert (delta != 0.0).all()


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(0.1, mode="sideways")


# --- generators --------------------------------------------------------------


def _assert_closed_oriented(mesh):
    topo = build_topology(mesh)
    assert not topo.is_boundary.any()
    assert topo.is_manifold_fan.all()
    # oriented: every directed edge appears exactly once
    directed = set()
    for f in mesh.faces.tolist():
        for e in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            assert e not in directed
            directed.add(e)
    for a, b in directed:
        assert (b, a) in directed
    # outward: positive signed volume
    p0 = mesh.vertices[mesh.faces[:, 0]]
    p1 = mesh.vertices[mesh.faces[:, 1]]
    p2 = mesh.vertices[mesh.faces[:, 2]]
    volume = (np.cross(p0, p1) * p2).sum() / 6.0
    assert volume > 0
    return topo


def test_icosphere_counts():
    m0 = g.icosphere(0)
    assert (m0.vertex_count, m0.face_count) == (12, 20)
    for s in range(4):
        m = g.icosphere(s)
        assert m.vertex_count == 10 * 4 ** s + 2
        assert m.face_count == 20 * 4 ** s
    r = np.linalg.norm(g.icosphere(2, radius=2.5).vertices, axis=1)
    assert np.allclose(r, 2.5, rtol=1e-12)


def test_grid_counts():
    for n in (1, 4, 7):
        m = g.grid(n)
        assert m.vertex_count == (n + 1) ** 2
        assert m.face_count == 2 * n * n
    topo = build_topology(g.grid(4))
    assert topo.is_boundary.sum() == 16


@pytest.mark.parametrize("mesh_fn", [
    lambda: g.icosphere(2),
    lambda: g.cylinder(16, 7),
    lambda: g.cone(12, 5),
    lambda: g.cube(3),
])
def test_closed_generators_gauss_bonnet(mesh_fn):
    mesh = mesh_fn()
    topo = _assert_closed_oriented(mesh)
    field = gaussian_curvature(mesh, topo)
    assert field.deficit.sum() == pytest.approx(4.0 * np.pi, rel=1e-9)


def test_cylinder_counts():
    m = g.cylinder(64, 32)
    assert m.vertex_count == 64 * 33 + 2
    assert m.face_count == 2 * 64 * 33


def test_generator_resolution_errors():
    with pytest.raises(BadResolution):
        g.icosphere(-1)
    with pytest.raises(BadResolution):
        g.cylinder(2, 4)
    with pytest.raises(BadResolution):
        g.cone(10, 0)
    with pytest.raises(BadResolution):
        g.cube(0)
    with pytest.raises(BadResolution):
        g.grid(0)


def test_generate_mesh_dispatch():
    m = g.generate_mesh("icosphere", subdivisions=1)
    assert m.vertex_count == 42
    with pytest.raises(ValueError):
        g.generate_mesh("torus")


@pytest.mark.parametrize("kind, params, name", [
    ("grid", {"subdivisions": 2}, "subdivisions"),
    ("icosphere", {"segments": 5}, "segments"),
    ("cube", {"resolution": 2, "spacing": 1.0}, "spacing"),
])
def test_generate_mesh_names_a_parameter_its_kind_does_not_take(kind, params, name):
    with pytest.raises(ValueError) as info:
        g.generate_mesh(kind, **params)
    assert str(info.value) == f"{kind} takes no parameter {name!r}"


def test_grid_mean_edge_length():
    stats = mesh_stats(g.grid(4))
    edges = unique_edges(g.grid(4).faces)
    assert len(edges) == 2 * 4 * 5 + 16  # axis edges + diagonals
    expected = (40 * 1.0 + 16 * np.sqrt(2.0)) / 56
    assert stats.mean_edge_length == pytest.approx(expected, rel=1e-12)


# --- baselines ---------------------------------------------------------------


def test_laplacian_uniform_grid_interior_fixed():
    mesh = g.grid(6)
    topo = build_topology(mesh)
    out = laplacian_smooth(mesh, topo, iterations=5, lam=0.8)
    assert np.allclose(out.vertices, mesh.vertices, atol=1e-15)


def test_laplacian_lambda_zero_identity():
    mesh = g.icosphere(2)
    topo = build_topology(mesh)
    out = laplacian_smooth(mesh, topo, iterations=3, lam=0.0)
    assert np.array_equal(out.vertices, mesh.vertices)


def test_laplacian_validation():
    mesh = g.grid(2)
    topo = build_topology(mesh)
    with pytest.raises(ValueError):
        laplacian_smooth(mesh, topo, 1, lam=1.5)
    with pytest.raises(ValueError):
        laplacian_smooth(mesh, topo, -1, lam=0.5)


def test_laplacian_shrinks_noisy_sphere_monotonically():
    mesh = g.icosphere(3)
    topo = build_topology(mesh)
    noisy = add_noise(mesh, topo, NoiseConfig(0.3, seed=5))
    radii = [
        np.linalg.norm(
            laplacian_smooth(noisy, topo, iterations=k, lam=0.5).vertices, axis=1
        ).mean()
        for k in range(6)
    ]
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_taubin_mu_zero_degenerates_to_laplacian():
    mesh = g.icosphere(2)
    topo = build_topology(mesh)
    noisy = add_noise(mesh, topo, NoiseConfig(0.2, seed=4))
    a = taubin_smooth(noisy, topo, iterations=4, lam=0.4, mu=0.0)
    b = laplacian_smooth(noisy, topo, iterations=4, lam=0.4)
    assert np.allclose(a.vertices, b.vertices, atol=0)


def test_taubin_validation():
    mesh = g.grid(2)
    topo = build_topology(mesh)
    with pytest.raises(ValueError):
        taubin_smooth(mesh, topo, 1, lam=0.0, mu=0.0)
    with pytest.raises(ValueError):
        taubin_smooth(mesh, topo, 1, lam=0.5, mu=0.1)


def test_taubin_drifts_less_than_umbrella():
    mesh = g.icosphere(3)
    topo = build_topology(mesh)
    noisy = add_noise(mesh, topo, NoiseConfig(0.3, seed=6))
    lap = laplacian_smooth(noisy, topo, iterations=10, lam=0.5)
    tau = taubin_smooth(noisy, topo, iterations=10, lam=0.5, mu=-0.53)
    drift_lap = abs(np.linalg.norm(lap.vertices, axis=1).mean() - 1.0)
    drift_tau = abs(np.linalg.norm(tau.vertices, axis=1).mean() - 1.0)
    assert drift_tau < drift_lap


def test_baselines_freeze_boundary():
    mesh = g.grid(5)
    topo = build_topology(mesh)
    noisy = add_noise(mesh, topo, NoiseConfig(0.3, seed=2, mode="isotropic"))
    b = topo.is_boundary
    for out in (
        laplacian_smooth(noisy, topo, 5, 0.5),
        taubin_smooth(noisy, topo, 5, 0.5, -0.53),
    ):
        assert np.array_equal(out.vertices[b], noisy.vertices[b])
