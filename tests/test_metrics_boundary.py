"""`metrics_report` on closed and on open references.

Every field must equal the same metrics formed through the reference's
topology: `build_topology`, then `gaussian_curvature` of both meshes. A
reference on which every edge lies on at least two faces has no boundary
vertex, so the report builds no topology for it; any other reference
builds one.
"""

import numpy as np
import pytest

import gcfmesh as g
from gcfmesh import TriangleMesh, metrics
from gcfmesh.errors import ConnectivityMismatch, CountMismatch

from conftest import random_meshes

_BINS, _CLIP = 200, 99.0


def _flipped(mesh):
    """Every second face wound the other way."""
    faces = mesh.faces.copy()
    faces[::2] = faces[::2, ::-1]
    return TriangleMesh(mesh.vertices, faces)


def _duplicated(mesh):
    """Every fifth face given twice, the copy wound the other way."""
    return TriangleMesh(mesh.vertices, np.vstack([mesh.faces, mesh.faces[::5, ::-1]]))


def _references():
    bowtie = TriangleMesh([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0),
                           (-1.0, 0.0, 0.0), (-1.0, -1.0, 0.0)], [(0, 1, 2), (0, 3, 4)])
    sphere, grid = g.icosphere(2), g.grid(6)
    return random_meshes() + [sphere, grid, _flipped(sphere), _flipped(grid),
                              _duplicated(sphere), _duplicated(grid), bowtie]


_REFERENCES = _references()


def _noisy(mesh, seed):
    rng = np.random.default_rng(seed)
    return TriangleMesh(mesh.vertices + 0.02 * rng.standard_normal(mesh.vertices.shape),
                        mesh.faces.copy())


def _open(mesh):
    """Whether some edge of the mesh lies on a single face."""
    _, counts = g.unique_edges(mesh.faces, return_counts=True)
    return bool((counts == 1).any())


def _expected(test, reference):
    """The report formed through the reference's topology."""
    topology = g.build_topology(reference)
    field_ref = g.gaussian_curvature(reference, topology)
    field_test = g.gaussian_curvature(test, topology)
    hist_ref = g.curvature_histogram(field_ref, bins=_BINS, clip_percentile=_CLIP)
    hist_test = g.curvature_histogram(field_test, bin_edges=hist_ref.bin_edges)
    excluded = int((g.face_normals(test)[2] | g.face_normals(reference)[2]).sum())
    notes = (f"msae=mean face-normal angle, degrees, {excluded} degenerate faces "
             f"excluded; gce over interior vertices of test mesh; "
             f"kld=KL(test||reference), bins={_BINS}, "
             f"clip_percentile={_CLIP}, eps={metrics._KLD_EPS}")
    return g.MetricsReport(g.msae(test, reference), g.gaussian_curvature_energy(field_test),
                           *g.vertex_distances(test, reference),
                           g.kld(hist_test, hist_ref), notes)


@pytest.mark.parametrize("k", range(len(_REFERENCES)))
def test_report_equals_the_topology_formulation(k):
    reference = _REFERENCES[k]
    for test in (reference, _noisy(reference, k)):
        assert g.metrics_report(test, reference) == _expected(test, reference)


def test_the_set_holds_closed_and_open_references():
    closed = [m for m in _REFERENCES if not _open(m)]
    assert 4 <= len(closed) < len(_REFERENCES)
    assert all(not g.build_topology(m).is_boundary.any() for m in closed)


def test_only_an_open_reference_builds_its_topology(monkeypatch):
    calls = []

    def counted(mesh):
        calls.append(mesh)
        return g.build_topology(mesh)

    monkeypatch.setattr(metrics, "build_topology", counted)
    sphere, grid = g.icosphere(3), g.grid(8)
    g.metrics_report(_noisy(sphere, 1), sphere)
    assert calls == []
    g.metrics_report(_noisy(grid, 2), grid)
    assert calls == [grid]
    for reference in _REFERENCES:
        calls.clear()
        g.metrics_report(reference, reference)
        assert len(calls) == _open(reference)


@pytest.mark.parametrize("reference", [g.icosphere(1), g.grid(3)], ids=["closed", "open"])
def test_a_count_mismatch_comes_before_a_face_mismatch(reference):
    n = reference.vertex_count
    extra = TriangleMesh(np.vstack([reference.vertices, [[5.0, 5.0, 5.0]]]),
                         reference.faces[:, ::-1])
    with pytest.raises(CountMismatch, match=f"^{n + 1} vertices, {n} in the topology$"):
        g.metrics_report(extra, reference)
    with pytest.raises(ConnectivityMismatch,
                       match="^the mesh's faces are not the topology's$"):
        g.metrics_report(TriangleMesh(reference.vertices, reference.faces[:, ::-1]),
                         reference)
