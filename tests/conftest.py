import numpy as np
import pytest

from gcfmesh import TriangleMesh, build_topology


@pytest.fixture
def tetrahedron():
    """Regular tetrahedron with edge length 1, outward winding."""
    verts = np.array([
        (1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0),
    ]) / (2.0 * np.sqrt(2.0))
    faces = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]
    return TriangleMesh(verts, faces)


@pytest.fixture
def single_triangle():
    return TriangleMesh(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [(0, 1, 2)]
    )


@pytest.fixture
def bowtie():
    """Two triangles sharing exactly one vertex (vertex 0)."""
    verts = [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0), (1.0, 1.0, 0.0),
        (-1.0, 0.0, 0.0), (-1.0, -1.0, 0.0),
    ]
    return TriangleMesh(verts, [(0, 1, 2), (0, 3, 4)])


@pytest.fixture
def square_pyramid():
    """Four side faces only; the apex (index 4) is the sole interior vertex."""
    verts = [
        (1.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (-1.0, -1.0, 0.0), (1.0, -1.0, 0.0),
        (0.0, 0.0, 1.0),
    ]
    faces = [(4, 0, 1), (4, 1, 2), (4, 2, 3), (4, 3, 0)]
    return TriangleMesh(verts, faces)


def random_meshes(max_vertices=200):
    """Small irregular test meshes: noisy Delaunay patches plus noisy
    primitives, all consistently wound. Deterministic."""
    from scipy.spatial import Delaunay

    import gcfmesh as g

    meshes = []
    for seed, n in ((0, 40), (1, 90), (2, 180)):
        rng = np.random.Generator(np.random.PCG64(seed))
        pts = rng.random((n, 2)) * 4.0
        tri = Delaunay(pts)
        verts = np.column_stack([pts, 0.3 * rng.standard_normal(n)])
        meshes.append(TriangleMesh(verts, tri.simplices))
    for seed, mesh in ((3, g.icosphere(1)), (4, g.cylinder(8, 4)),
                       (5, g.cone(7, 3)), (6, g.cube(2)), (7, g.grid(5))):
        topo = build_topology(mesh)
        meshes.append(g.add_noise(mesh, topo, g.NoiseConfig(0.2, seed=seed)))
    assert all(m.vertex_count <= max_vertices for m in meshes)
    return meshes


# Malformed ASCII PLY inputs, each with the line the loader must blame.
_PLY_HEAD = "ply\nformat ascii 1.0\n"
_PLY_XYZ = "property double x\nproperty double y\nproperty double z\n"
MALFORMED_PLY = [
    pytest.param(_PLY_HEAD + "element vertex\nend_header\n", 3,
                 id="element-without-count"),
    pytest.param(_PLY_HEAD + "element vertex 3\nproperty\nend_header\n", 4,
                 id="bare-property"),
    pytest.param(_PLY_HEAD + "element vertex x\nend_header\n", 3,
                 id="element-count-not-int"),
    pytest.param(_PLY_HEAD + "element vertex 3\n" + _PLY_XYZ
                 + "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                 + "element face 1\nproperty list uchar int vertex_indices\n"
                 + "end_header\n0 0 0 1 2 3\n1 0 0 300 0 0\n0 1 0 0 0 0\n3 0 1 2\n",
                 14, id="color-above-255"),
]
