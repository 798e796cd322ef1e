"""The face-block passes give the same bits whatever the block size.

Every result is computed with `_FACE_BLOCK` at 7 (blocks end mid-mesh and
the last one is short) and at a size above the face count (one block), and
with the coloring converting rings 7 vertices at a time or all at once.
`unique_edges` is also checked against the np.unique formula it replaced,
copied below as the reference.
"""

import numpy as np
import pytest

import gcfmesh as g
from gcfmesh import coloring, mesh
from gcfmesh.curvature import curvature_field

from conftest import random_meshes


def _reference_unique_edges(faces, return_counts=False):
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    n = int(faces.max()) + 1 if faces.size else 1
    keys = e.min(axis=1).astype(np.int64) * n + e.max(axis=1)
    keys, counts = np.unique(keys, return_counts=True)
    edges = np.column_stack([keys // n, keys % n]).astype(faces.dtype)
    return (edges, counts) if return_counts else edges


def _noisy(clean, seed):
    return g.add_noise(clean, g.build_topology(clean), g.NoiseConfig(0.3, seed=seed))


def _flipped():
    clean = g.icosphere(2)
    faces = clean.faces.copy()
    faces[::2] = faces[::2, ::-1]
    return _noisy(clean, 2).vertices, g.TriangleMesh(clean.vertices, faces)


def _degenerate():
    clean = g.icosphere(2)
    vertices = _noisy(clean, 3).vertices
    a, _, c = clean.faces[5]
    vertices[c] = vertices[a]  # face 5 and its neighbor across edge (a, c) have zero area
    return vertices, clean


_CASES = {
    "noisy icosphere(2)": lambda: (_noisy(g.icosphere(2), 1).vertices, g.icosphere(2)),
    "cube(4)": lambda: (_noisy(g.cube(4), 4).vertices, g.cube(4)),
    "every second face flipped": _flipped,
    "a degenerate face": _degenerate,
}


def _results(vertices, clean):
    """name -> bytes of every face-block result on `vertices` with the
    faces of `clean`."""
    test = g.TriangleMesh(vertices, clean.faces)
    topology = g.build_topology(test)
    colors = g.greedy_domain_decomposition(topology)
    field = g.gaussian_curvature(test, topology)
    traced = curvature_field(np.asfortranarray(vertices), test.faces,
                             topology.is_boundary)
    out, trace = g.gcf_filter(test, topology, colors,
                              g.FilterConfig(3, threads=1, capture_trace=True))
    report = g.metrics_report(out, clean)
    edges, counts = g.unique_edges(test.faces, return_counts=True)
    arrays = {
        "topology": (topology.ring_flat, topology.ring_indptr,
                     topology.is_boundary, topology.is_manifold_fan),
        "coloring": (colors.color_of, *colors.domains),
        "face_normals": g.face_normals(test),
        "vertex_normals": g.vertex_normals(test, topology),
        "gaussian_curvature": (field.curvature, field.ring_area, field.deficit),
        "traced curvature": (traced.curvature, traced.ring_area, traced.deficit),
        "msae": (g.msae(test, clean), g.msae(clean, test)),
        "metrics_report": (report.msae_deg, report.gce, report.d_mean,
                           report.d_max, report.kld),
        "filter": (out.vertices, trace.gce_per_iteration),
        "unique_edges": (edges, counts),
        "mean_edge_length": g.mean_edge_length(vertices, test.faces),
        "mesh_stats": tuple(vars(g.mesh_stats(test)).values()),
    }
    results = {name: [np.ascontiguousarray(a).tobytes() for a in value]
               if isinstance(value, tuple) else np.float64(value).tobytes()
               for name, value in arrays.items()}
    results["notes"] = report.notes
    return results


@pytest.mark.parametrize("case", _CASES)
def test_results_do_not_depend_on_the_block_size(case, monkeypatch):
    vertices, clean = _CASES[case]()
    monkeypatch.setattr(mesh, "_FACE_BLOCK", 7)
    monkeypatch.setattr(coloring, "_CHUNK", 7)
    small = _results(vertices, clean)
    monkeypatch.setattr(mesh, "_FACE_BLOCK", clean.face_count + 1)
    monkeypatch.setattr(coloring, "_CHUNK", clean.vertex_count + 1)
    assert _results(vertices, clean) == small


def test_the_degenerate_faces_are_excluded():
    vertices, clean = _degenerate()
    test = g.TriangleMesh(vertices, clean.faces)
    a, _, c = clean.faces[5]
    on_edge = np.flatnonzero((clean.faces == a).any(axis=1)
                             & (clean.faces == c).any(axis=1))
    assert 5 in on_edge and len(on_edge) == 2
    assert np.array_equal(np.flatnonzero(g.face_normals(test)[2]), on_edge)
    assert "2 degenerate faces excluded" in g.metrics_report(test, clean).notes


@pytest.mark.parametrize("k", range(len(random_meshes())))
def test_unique_edges_as_np_unique(k):
    faces = random_meshes()[k].faces
    for f in (faces, faces.astype(np.int64), faces[::-1], faces[:, ::-1]):
        got, counts = g.unique_edges(f, return_counts=True)
        want, want_counts = _reference_unique_edges(f, return_counts=True)
        assert got.dtype == want.dtype and counts.dtype == want_counts.dtype
        assert np.array_equal(got, want) and np.array_equal(counts, want_counts)
        assert np.array_equal(g.unique_edges(f), want)


def test_unique_edges_of_no_faces():
    faces = np.zeros((0, 3), dtype=np.int32)
    got, counts = g.unique_edges(faces, return_counts=True)
    want, want_counts = _reference_unique_edges(faces, return_counts=True)
    assert got.shape == want.shape == (0, 2) and got.dtype == want.dtype
    assert counts.shape == want_counts.shape == (0,)
