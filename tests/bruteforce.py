"""Independent straight-line reference for the filter update rule.

Everything here is written per vertex with explicit loops over the stated
formulas and no shortcuts, to serve as an oracle for the vectorized sweep:
same domain ordering (ascending label), same within-domain snapshot
semantics, literal area-weighted vertex normal over the stored faces.
"""

import numpy as np

DIR_TOL = 1e-14
NRM_TOL = 1e-14


def reference_step(positions, topology, coloring, edge_scale):
    """One full sweep over all domains, updated in place between domains."""
    pos = np.array(positions, dtype=np.float64)
    faces = topology.faces
    incident = [[] for _ in range(len(pos))]
    for f, corners in enumerate(faces.tolist()):
        for v in corners:
            incident[v].append(f)
    dir_tol = DIR_TOL * edge_scale
    nrm_tol = NRM_TOL * edge_scale * edge_scale
    for domain in coloring.domains:
        snap = pos.copy()
        updates = {}
        for i in domain:
            i = int(i)
            if topology.is_boundary[i] or not topology.is_manifold_fan[i]:
                continue
            ring = topology.neighbors[i]
            m = len(ring)
            if m == 0:
                continue
            centroid = snap[ring].mean(axis=0)
            delta = snap[i] - centroid
            dmag = float(np.linalg.norm(delta))
            if dmag < dir_tol:
                continue
            direction = -delta / dmag

            normals = []
            acc = np.zeros(3)
            for f in incident[i]:
                a, b, c = faces[f]
                cr = np.cross(snap[b] - snap[a], snap[c] - snap[a])
                ln = float(np.linalg.norm(cr))
                if ln > 0.0:
                    acc = acc + (0.5 * ln) * (cr / ln)
            acc_mag = float(np.linalg.norm(acc))
            if acc_mag >= nrm_tol:
                normals.append(acc / acc_mag)
            for k in range(m):
                e1 = snap[ring[(k - 1) % m]] - snap[ring[k]]
                e2 = snap[ring[(k + 1) % m]] - snap[ring[k]]
                cr = np.cross(e1, e2)
                ln = float(np.linalg.norm(cr))
                if ln >= nrm_tol:
                    normals.append(cr / ln)
            if not normals:
                continue

            best = min(
                abs(float(np.dot(nv, snap[ring[k]] - snap[i])))
                for nv in normals
                for k in range(m)
            )
            updates[i] = snap[i] + best * direction
        for i, p in updates.items():
            pos[i] = p
    return pos
