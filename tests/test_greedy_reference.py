"""The bit-mask greedy coloring gives the same labels and domains as the
set-based greedy it replaced, which is copied below as the reference."""

import numpy as np
import pytest

import gcfmesh as g

from conftest import random_meshes


def _reference_coloring(topology):
    n = topology.vertex_count
    flat = topology.ring_flat.tolist()
    indptr = topology.ring_indptr.tolist()
    color = [-1] * n
    for i in range(n):
        # uncolored neighbors add -1, which no label c >= 0 matches
        used = {color[j] for j in flat[indptr[i]:indptr[i + 1]]}
        c = 0
        while c in used:
            c += 1
        color[i] = c
    color_of = np.asarray(color, dtype=np.int32)
    k = int(color_of.max()) + 1 if n else 0
    domains = [np.flatnonzero(color_of == c).astype(np.int32) for c in range(k)]
    return color_of, domains


def _non_manifold_fan():
    """Three faces on one edge, a bowtie vertex and an unreferenced vertex."""
    verts = np.random.Generator(np.random.PCG64(0)).standard_normal((9, 3))
    faces = [(0, 1, 2), (0, 1, 3), (1, 0, 4), (4, 5, 6), (4, 7, 1)]
    return g.TriangleMesh(verts, faces)


_SHAPES = {
    "icosphere(3)": lambda: g.icosphere(3),
    "cylinder(40, 12)": lambda: g.cylinder(40, 12),
    "cone(600, 4)": lambda: g.cone(600, 4),  # degree-600 apex rows
    "cube(6)": lambda: g.cube(6),
    "grid(9)": lambda: g.grid(9),
    "non-manifold fan": _non_manifold_fan,
}


def _assert_same(mesh):
    topology = g.build_topology(mesh)
    coloring = g.greedy_domain_decomposition(topology)
    color_of, domains = _reference_coloring(topology)
    assert coloring.color_of.dtype == color_of.dtype
    assert np.array_equal(coloring.color_of, color_of)
    assert len(coloring.domains) == len(domains)
    for got, want in zip(coloring.domains, domains):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k", range(len(random_meshes())))
def test_random_meshes_color_as_the_reference(k):
    _assert_same(random_meshes()[k])


@pytest.mark.parametrize("name", _SHAPES)
def test_generated_shapes_color_as_the_reference(name):
    _assert_same(_SHAPES[name]())


def test_non_manifold_fan_is_flagged():
    topology = g.build_topology(_non_manifold_fan())
    assert not topology.is_manifold_fan[[0, 1, 4]].any()
