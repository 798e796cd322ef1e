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

import numpy as np
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


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_peak_bytes_per_row(meshes):
    """One full 4096-row degree-6 block of the default plan: the kernel
    frees each temporary after its last use and projects half a block at a
    time, about 700 B a row, where whole-block temporaries took 1,600."""
    from gcfmesh import filtering

    _, noisy, topology = meshes
    plan = filtering._build_plan(topology, g.greedy_domain_decomposition(topology))
    rows, rings = next(b for blocks in plan for b in blocks
                       if len(b[0]) == filtering._BLOCK and b[1].shape[1] == 6)
    positions = np.array(noisy.vertices, order="F")
    scale = g.mean_edge_length(positions, noisy.faces)
    peak = _peak(lambda: filtering._kernel(
        positions, rows, rings, filtering.DIRECTION_TOL * scale,
        filtering.NORMAL_TOL * scale * scale))
    assert peak / len(rows) <= 800


def test_two_thread_filter_peak_bytes_per_face(meshes):
    """The working copy, the plan and two workers' kernel blocks at once
    stay under 150 B a face (7.5 MB); one whole-block kernel call used to
    take 6.6 MB alone and a one-thread filter 160 B a face."""
    _, noisy, topology = meshes
    coloring = g.greedy_domain_decomposition(topology)
    peak = _peak(lambda: g.gcf_filter(noisy, topology, coloring,
                                      g.FilterConfig(iterations=2, threads=2)))
    assert peak / noisy.face_count <= 150


def test_greedy_coloring_peak_bytes_per_face(meshes, monkeypatch):
    """Each vertex hands its color on only along its edge-list row, half
    its ring, so the coloring's Python ints peak below 14 B a face, where
    walking the whole rings took 16.6."""
    monkeypatch.setattr(coloring, "_CHUNK", coloring._CHUNK // 4)
    _, _, topology = meshes
    peak = _peak(lambda: g.greedy_domain_decomposition(topology))
    assert peak / len(topology.faces) <= 14


def test_edge_list_bytes_per_vertex(meshes):
    """The edge list the topology keeps, int32 neighbors above each vertex
    and int32 counts, takes at most 16 B a vertex."""
    _, _, topology = meshes
    kept = topology.upper_flat.nbytes + topology.upper_sizes.nbytes
    assert kept / topology.vertex_count <= 16


def test_vertex_normals_peak_bytes_per_face(meshes, monkeypatch):
    """vertex_normals weights and adds each block's normals as it gathers
    them, without the whole-mesh (f, 3) normals of face_normals: at most
    40 B a face, where taking those arrays peaked at 46."""
    monkeypatch.setattr(mesh, "_FACE_BLOCK", mesh._FACE_BLOCK // 4)
    _, noisy, topology = meshes
    peak = _peak(lambda: g.vertex_normals(noisy, topology))
    assert peak / noisy.face_count <= 40
