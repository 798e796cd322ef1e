"""Feature-preserving Gaussian curvature filtering for triangle meshes.

The package bundles the mesh container and ASCII OBJ/OFF/PLY io, ordered
1-ring topology, discrete Gaussian curvature, greedy domain decomposition,
the iterative curvature filter itself, evaluation metrics, seeded noise,
procedural ground-truth generators, and two Laplacian-family baselines.
"""

__version__ = "0.1.0"

from .baselines import laplacian_smooth, taubin_smooth
from .coloring import DomainColoring, greedy_domain_decomposition, \
    single_domain_coloring
from .curvature import CurvatureField, face_normals, gaussian_curvature, \
    gaussian_curvature_energy, vertex_normals
from .filtering import FilterConfig, FilterTrace, gcf_filter, gcf_step
from .generate import cone, cube, cylinder, generate_mesh, grid, icosphere
from .io import load_mesh, load_mesh_attributes, save_mesh
from .mesh import MeshStats, MeshTopology, TriangleMesh, build_topology, \
    mean_edge_length, mesh_stats, unique_edges
from .metrics import Histogram, MetricsReport, acs, curvature_histogram, kld, \
    metrics_report, msae, vertex_distances
from .noise import NoiseConfig, add_noise

__all__ = [
    "CurvatureField", "DomainColoring", "FilterConfig", "FilterTrace",
    "Histogram", "MeshStats", "MeshTopology", "MetricsReport", "NoiseConfig",
    "TriangleMesh", "acs", "add_noise", "build_topology", "cone", "cube",
    "curvature_histogram", "cylinder", "face_normals", "gaussian_curvature",
    "gaussian_curvature_energy", "gcf_filter", "gcf_step", "generate_mesh",
    "greedy_domain_decomposition", "grid", "icosphere", "kld",
    "laplacian_smooth", "load_mesh", "load_mesh_attributes",
    "mean_edge_length", "mesh_stats", "metrics_report", "msae", "save_mesh",
    "single_domain_coloring", "taubin_smooth", "unique_edges",
    "vertex_distances", "vertex_normals",
]
