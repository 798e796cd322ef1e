"""Transient memory of the set-up and check calls, by tracemalloc peak in
bytes per face of a consistently wound cylinder(160, 156) (50,240 faces).

The face blocks are cut at a quarter of the default and the coloring
chunks at a quarter of theirs, so this mesh is cut into as many blocks as
the 200k-face cylinder(320, 312) is by default and the per-face peaks match
that mesh's. Each bound is the call's cap at 100k vertices over 200,320
faces: 24 MiB for the topology build, 16 MiB for the face-block passes,
12 MiB for the edge set and 4 MiB for the coloring. The whole-mesh
temporaries these calls used to make peaked at 111 to 224 bytes a face.
"""

import tracemalloc

import pytest

import gcfmesh as g
from gcfmesh import coloring, mesh
from gcfmesh.curvature import curvature_field


@pytest.fixture(scope="module")
def meshes():
    clean = g.cylinder(160, 156)
    topology = g.build_topology(clean)
    noisy = g.add_noise(clean, topology, g.NoiseConfig(0.3, seed=7))
    return clean, noisy, topology


_CALLS = {
    "build_topology": (125, lambda c, m, t: g.build_topology(m)),
    "face_normals": (83, lambda c, m, t: g.face_normals(m)),
    "vertex_normals": (83, lambda c, m, t: g.vertex_normals(m, t)),
    "curvature_field": (83, lambda c, m, t: curvature_field(m.vertices, m.faces,
                                                            t.is_boundary)),
    "gaussian_curvature": (83, lambda c, m, t: g.gaussian_curvature(m, t)),
    "msae": (83, lambda c, m, t: g.msae(m, c)),
    "add_noise": (83, lambda c, m, t: g.add_noise(c, t, g.NoiseConfig(0.3, seed=1))),
    "unique_edges": (62, lambda c, m, t: g.unique_edges(m.faces, return_counts=True)),
    "mean_edge_length": (62, lambda c, m, t: g.mean_edge_length(m.vertices, m.faces)),
    "mesh_stats": (83, lambda c, m, t: g.mesh_stats(m)),
    "greedy_domain_decomposition": (20, lambda c, m, t: g.greedy_domain_decomposition(t)),
}


@pytest.mark.parametrize("name", _CALLS)
def test_peak_bytes_per_face(name, meshes, monkeypatch):
    monkeypatch.setattr(mesh, "_FACE_BLOCK", mesh._FACE_BLOCK // 4)
    monkeypatch.setattr(coloring, "_CHUNK", coloring._CHUNK // 4)
    clean, noisy, topology = meshes
    bound, call = _CALLS[name]
    tracemalloc.start()
    try:
        call(clean, noisy, topology)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / noisy.face_count <= bound
