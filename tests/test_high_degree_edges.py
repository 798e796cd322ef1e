"""The topology's edge list on rows far above the face-soup property's
reach: the degree-600 cone apex, the degree-320 cylinder cap centers and
an icosphere, each as generated, with every second face reversed and with
every 50th face repeated reversed, which makes its edges non-manifold."""

import numpy as np
import pytest

import gcfmesh as g
from gcfmesh.mesh import _mean_length


def _variants(mesh):
    half = mesh.faces.copy()
    half[::2] = half[::2, ::-1]
    repeated = np.concatenate([mesh.faces, mesh.faces[::50, ::-1]])
    return [("as generated", mesh.faces), ("half reversed", half),
            ("50th repeated reversed", repeated)]


_CASES = [(name, label, g.TriangleMesh(mesh.vertices, faces))
          for name, mesh in (("cone(600, 4)", g.cone(600, 4)),
                             ("cylinder(320, 40)", g.cylinder(320, 40)),
                             ("icosphere(3)", g.icosphere(3)))
          for label, faces in _variants(mesh)]


@pytest.mark.parametrize("name, label, mesh", _CASES,
                         ids=[f"{name} {label}" for name, label, _ in _CASES])
def test_high_degree_rows_are_unique_edges(name, label, mesh):
    topology = g.build_topology(mesh)
    lower, upper = topology.edges
    got = np.column_stack([lower, upper])
    want = g.unique_edges(mesh.faces)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert topology.upper_sizes.dtype == np.int32
    assert topology.ring_sizes.max() >= (320 if name != "icosphere(3)" else 6)
    assert (_mean_length(mesh.vertices, lower, upper).hex()
            == g.mean_edge_length(mesh.vertices, mesh.faces).hex())
    if label == "50th repeated reversed":
        assert not topology.is_manifold_fan.all()
