"""Seedable synthetic noise injection.

Offsets are zero-mean Gaussian with standard deviation sigma_factor times
the mesh's mean edge length. The default mode displaces each vertex along
its area-weighted unit normal by one scalar draw; isotropic mode draws an
independent sample per coordinate. Randomness comes from numpy's PCG64
generator so a fixed seed reproduces the same mesh bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import vertex_normals
from .mesh import MeshTopology, TriangleMesh, _check_count, _check_match, _mean_length

MODES = ("along_normal", "isotropic")


@dataclass
class NoiseConfig:
    sigma_factor: float
    seed: int = 0
    mode: str = "along_normal"

    def __post_init__(self):
        if not (np.isfinite(self.sigma_factor) and self.sigma_factor >= 0):
            raise ValueError("sigma_factor must be finite and >= 0")
        _check_count("seed", self.seed, 0)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def add_noise(mesh: TriangleMesh, topology: MeshTopology,
              config: NoiseConfig) -> TriangleMesh:
    """Return a noisy copy of the mesh; connectivity is unchanged.

    along_normal draws vertex_count scalars in one call; isotropic draws a
    (vertex_count, 3) block. Vertices with a degenerate normal receive no
    displacement in along_normal mode. A vertex count or faces not the
    topology's raise CountMismatch or ConnectivityMismatch.
    """
    _check_match(mesh.vertices, topology, mesh.faces)
    sigma = config.sigma_factor * _mean_length(mesh.vertices, *topology.edges)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n = mesh.vertex_count
    if config.mode == "along_normal":
        normals, _ = vertex_normals(mesh, topology)
        offsets = rng.normal(0.0, sigma, n)
        displacement = offsets[:, None] * normals
    else:
        displacement = rng.normal(0.0, sigma, (n, 3))
    return TriangleMesh(mesh.vertices + displacement, mesh.faces.copy())
