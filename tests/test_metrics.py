import math

import numpy as np
import pytest

import gcfmesh as g
from gcfmesh import (
    FilterTrace,
    Histogram,
    TriangleMesh,
    acs,
    build_topology,
    curvature_histogram,
    gaussian_curvature,
    kld,
    metrics_report,
    msae,
    vertex_distances,
)
from gcfmesh.errors import (
    ConnectivityMismatch,
    CountMismatch,
    EdgeMismatch,
    EmptyFieldError,
    TraceTooShort,
)

# hand computation: 0.5*ln(0.5/0.75) + 0.5*ln(0.5/0.25) = 0.5*ln(4/3)
KLD_TWO_BIN = 0.14384103622589045


def _rotation_x(deg):
    t = math.radians(deg)
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, math.cos(t), -math.sin(t)],
        [0.0, math.sin(t), math.cos(t)],
    ])


def test_msae_identical_zero():
    mesh = g.icosphere(2)
    assert msae(mesh, mesh) == 0.0


def test_msae_rigid_rotation_of_planar_mesh():
    # all grid normals are +z; rotating about x turns every normal by the
    # rotation angle exactly
    mesh = g.grid(5)
    rotated = TriangleMesh(mesh.vertices @ _rotation_x(10.0).T, mesh.faces)
    assert msae(rotated, mesh) == pytest.approx(10.0, abs=1e-9)


def test_msae_invariant_under_joint_rigid_motion():
    mesh = g.icosphere(2)
    noisy = TriangleMesh(
        mesh.vertices + 0.01 * np.sin(7.0 * mesh.vertices), mesh.faces
    )
    base = msae(noisy, mesh)
    rot = _rotation_x(33.0)
    t = np.array([5.0, -1.0, 2.0])
    a = TriangleMesh(noisy.vertices @ rot.T + t, noisy.faces)
    b = TriangleMesh(mesh.vertices @ rot.T + t, mesh.faces)
    assert msae(a, b) == pytest.approx(base, abs=1e-10)


def test_msae_connectivity_mismatch():
    mesh = g.grid(3)
    other = TriangleMesh(mesh.vertices, mesh.faces[::-1])
    with pytest.raises(ConnectivityMismatch):
        msae(mesh, other)


def test_vertex_distances_identity_translation():
    mesh = g.icosphere(1)
    assert vertex_distances(mesh, mesh) == (0.0, 0.0)
    moved = TriangleMesh(mesh.vertices + (0.0, 0.0, 0.25), mesh.faces)
    d_mean, d_max = vertex_distances(moved, mesh)
    assert d_mean == pytest.approx(0.25, rel=1e-12)
    assert d_max == pytest.approx(0.25, rel=1e-12)


def test_vertex_distances_single_displacement():
    mesh = g.grid(3)
    n = mesh.vertex_count
    verts = mesh.vertices.copy()
    verts[5] += (0.0, 0.0, 0.7)
    d_mean, d_max = vertex_distances(TriangleMesh(verts, mesh.faces), mesh)
    assert d_max == pytest.approx(0.7, rel=1e-12)
    assert d_mean == pytest.approx(0.7 / n, rel=1e-12)


def test_vertex_distances_count_mismatch():
    with pytest.raises(CountMismatch):
        vertex_distances(g.grid(2), g.grid(3))


def test_distances_scale_linearly():
    mesh = g.icosphere(1)
    noisy = TriangleMesh(mesh.vertices * 1.01, mesh.faces)
    d1 = vertex_distances(noisy, mesh)
    scaled = vertex_distances(
        TriangleMesh(noisy.vertices * 4.0, mesh.faces),
        TriangleMesh(mesh.vertices * 4.0, mesh.faces),
    )
    assert scaled[0] == pytest.approx(4.0 * d1[0], rel=1e-12)
    assert scaled[1] == pytest.approx(4.0 * d1[1], rel=1e-12)


def test_histogram_all_zero_field():
    mesh = g.grid(6)
    topo = build_topology(mesh)
    field = gaussian_curvature(mesh, topo)
    hist = curvature_histogram(field, bins=50)
    assert hist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    center = np.searchsorted(hist.bin_edges, 0.0, side="right") - 1
    assert hist.probs[center] == 1.0


def test_histogram_symmetric_two_spike():
    field = g.CurvatureField(
        curvature=np.array([-1.0, 1.0] * 10),
        ring_area=np.ones(20),
        deficit=np.zeros(20),
        is_boundary=np.zeros(20, dtype=bool),
    )
    hist = curvature_histogram(field, bins=4, clip_percentile=100.0)
    # range [-1, 1]; -1 clamps into bin 0, +1 lands in the last bin
    assert hist.probs[0] == 0.5
    assert hist.probs[-1] == 0.5
    assert hist.probs.sum() == pytest.approx(1.0)


def test_histogram_requires_interior():
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    topo = build_topology(mesh)
    field = gaussian_curvature(mesh, topo)
    with pytest.raises(EmptyFieldError):
        curvature_histogram(field)


def test_kld_identity_and_hand_value():
    p = Histogram(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5]))
    q = Histogram(np.array([0.0, 0.5, 1.0]), np.array([0.75, 0.25]))
    assert kld(p, p) == pytest.approx(0.0, abs=1e-9)
    assert kld(p, q) == pytest.approx(KLD_TWO_BIN, rel=1e-6)


def test_kld_nonnegative_random():
    rng = np.random.Generator(np.random.PCG64(17))
    edges = np.linspace(-1, 1, 21)
    for _ in range(200):
        a = rng.random(20)
        b = rng.random(20)
        p = Histogram(edges, a / a.sum())
        q = Histogram(edges, b / b.sum())
        assert kld(p, q) >= -1e-12
        assert kld(p, p) == pytest.approx(0.0, abs=1e-9)


def test_kld_edge_mismatch():
    p = Histogram(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5]))
    q = Histogram(np.array([0.0, 0.4, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(EdgeMismatch):
        kld(p, q)


def _acs_loop_oracle(values):
    """Straight transcription of the slope formula with python floats."""
    terms = []
    n_iter = len(values) - 1
    for t in range(2, n_iter):
        num = abs(values[t + 1] - values[t])
        den = abs(values[t] - values[t - 1])
        if num > 0 and den > 0:
            terms.append(
                math.log10(num / den) / (math.log10(t + 1) - math.log10(t))
            )
    return sum(terms) / len(terms) if terms else float("nan")


def test_acs_power_law_trace():
    # E_t = C * t^s for t >= 1: successive differences scale like t^(s-1),
    # so the per-term slope approaches s - 1 (the finite-t correction decays
    # like 1/t, hence the long trace and the loose second assertion)
    for s in (-0.5, -1.5, -2.0):
        values = [0.0] + [3.0 * t ** s for t in range(1, 401)]
        values[0] = values[1]  # index 0 is never used by the formula
        trace = FilterTrace(values)
        got = acs([trace])
        assert got == pytest.approx(_acs_loop_oracle(values), rel=1e-12)
        assert got == pytest.approx(s - 1.0, abs=0.05)


def test_acs_multiple_traces_average():
    v1 = [1.0] + [2.0 * t ** -1.0 for t in range(1, 21)]
    v2 = [1.0] + [5.0 * t ** -2.0 for t in range(1, 21)]
    expected_terms = []
    for v in (v1, v2):
        n_iter = len(v) - 1
        for t in range(2, n_iter):
            num = abs(v[t + 1] - v[t])
            den = abs(v[t] - v[t - 1])
            expected_terms.append(
                math.log10(num / den) / (math.log10(t + 1) - math.log10(t))
            )
    expected = sum(expected_terms) / len(expected_terms)
    assert acs([FilterTrace(v1), FilterTrace(v2)]) == pytest.approx(
        expected, rel=1e-12
    )


def test_acs_constant_trace_is_nan():
    assert math.isnan(acs([FilterTrace([5.0] * 10)]))


def test_acs_too_short():
    with pytest.raises(TraceTooShort):
        acs([FilterTrace([3.0, 2.0, 1.0])])


def test_metrics_report_self_comparison():
    mesh = g.icosphere(2)
    report = metrics_report(mesh, mesh)
    assert report.msae_deg == 0.0
    assert report.d_mean == 0.0
    assert report.d_max == 0.0
    assert report.kld == pytest.approx(0.0, abs=1e-9)
    assert report.gce >= 0.0
    assert "kld=KL(test||reference)" in report.notes


def test_metrics_report_noisy_positive():
    mesh = g.icosphere(3)
    topo = build_topology(mesh)
    noisy = g.add_noise(mesh, topo, g.NoiseConfig(0.3, seed=1))
    report = metrics_report(noisy, mesh)
    assert report.msae_deg > 0.0
    assert report.kld > 0.0
    assert report.d_mean > 0.0
    assert report.d_mean <= report.d_max


@pytest.mark.parametrize("edges", [[-1.0, 1.0], [-1.0, 0.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
def test_histogram_rejects_bad_bin_edges(edges):
    """Too few edges for two bins, or edges not strictly ascending."""
    field = g.CurvatureField(curvature=np.array([-0.5, 0.5]), ring_area=np.ones(2),
                             deficit=np.zeros(2), is_boundary=np.zeros(2, dtype=bool))
    with pytest.raises(ValueError) as info:
        curvature_histogram(field, bin_edges=edges)
    assert str(info.value) == "bin_edges must be ascending with >= 3 entries"
