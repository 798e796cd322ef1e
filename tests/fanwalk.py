"""Reference per-vertex fan walker for the topology table.

This is the dict-based walker that `build_topology` used before the
vectorized fan table, kept unchanged as an oracle: each vertex's incident
half-edges are ordered by a directed walk in face-winding order, then by a
winding-agnostic walk, and otherwise fall back to a sorted non-manifold
ring. It returns the six topology arrays as a tuple (ring_flat,
ring_indptr, face_flat, face_indptr, is_boundary, is_manifold_fan).
"""

import numpy as np


def _try_directed_walk(starts, ends, face_ids):
    """Follow ring edges in face-winding order; None if winding is inconsistent."""
    m = len(starts)
    out = {}
    for u, w, f in zip(starts, ends, face_ids):
        if u in out:
            return None
        out[u] = (w, f)
    end_set = set(ends)
    heads = [u for u in out if u not in end_set]
    if len(heads) == 1:
        start = heads[0]
        closed = False
    elif not heads:
        start = min(out)
        closed = True
    else:
        return None
    ring = [start]
    face_order = []
    node = start
    while node in out and len(face_order) < m:
        node, f = out.pop(node)
        face_order.append(f)
        if node == start:
            break
        ring.append(node)
    if len(face_order) != m or out:
        return None
    if closed:
        if node != start or len(ring) != m:
            return None
        return ring, face_order, False
    if node == start or len(ring) != m + 1:
        return None
    return ring, face_order, True


def _try_undirected_walk(starts, ends, face_ids):
    """Winding-agnostic fan walk; None unless the fan is a single chain or cycle."""
    m = len(starts)
    adj = {}
    edge_face = {}
    for u, w, f in zip(starts, ends, face_ids):
        key = (u, w) if u < w else (w, u)
        if key in edge_face:
            return None  # two faces over the same ring edge
        edge_face[key] = f
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    if any(len(nbrs) > 2 for nbrs in adj.values()):
        return None
    loose = sorted(node for node, nbrs in adj.items() if len(nbrs) == 1)
    if len(loose) == 2:
        start = loose[0]
        boundary = True
    elif not loose:
        start = min(adj)
        boundary = False
    else:
        return None
    ring = [start]
    face_order = []
    prev = None
    node = start
    for _ in range(m):
        nbrs = adj[node]
        if prev is None and not boundary:
            nxt = min(nbrs)
        else:
            cand = [x for x in nbrs if x != prev]
            if not cand:
                return None
            nxt = cand[0]
        key = (node, nxt) if node < nxt else (nxt, node)
        f = edge_face.pop(key, None)
        if f is None:
            return None
        face_order.append(f)
        prev, node = node, nxt
        if not boundary and node == start:
            break
        ring.append(node)
    if len(face_order) != m or edge_face:
        return None
    want = m + 1 if boundary else m
    if len(ring) != want:
        return None
    return ring, face_order, boundary


def _walk_fan(starts, ends, face_ids):
    """Order one vertex fan. Returns (ring, face_order, is_boundary, is_manifold)."""
    res = _try_directed_walk(starts, ends, face_ids)
    if res is None:
        res = _try_undirected_walk(starts, ends, face_ids)
    if res is None:
        ring = sorted(set(starts) | set(ends))
        return ring, sorted(face_ids), False, False
    ring, face_order, boundary = res
    return ring, face_order, boundary, True


def reference_topology(mesh):
    """Topology arrays of `mesh` from one fan walk per vertex."""
    n = mesh.vertex_count
    faces = mesh.faces
    if len(faces):
        center = faces.ravel()
        ring_start = faces[:, [1, 2, 0]].ravel()
        ring_end = faces[:, [2, 0, 1]].ravel()
        order = np.argsort(center, kind="stable")
        counts = np.bincount(center, minlength=n)
        su = ring_start[order].tolist()
        sw = ring_end[order].tolist()
        sf = (order // 3).tolist()
    else:
        counts = np.zeros(n, dtype=np.int64)
        su = sw = sf = []
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    ptr = indptr.tolist()

    ring_flat: list[int] = []
    face_flat: list[int] = []
    ring_indptr = np.zeros(n + 1, dtype=np.int64)
    face_indptr = np.zeros(n + 1, dtype=np.int64)
    is_boundary = np.zeros(n, dtype=bool)
    is_manifold = np.zeros(n, dtype=bool)
    for i in range(n):
        lo, hi = ptr[i], ptr[i + 1]
        if lo != hi:
            ring, face_order, boundary, manifold = _walk_fan(
                su[lo:hi], sw[lo:hi], sf[lo:hi]
            )
            ring_flat.extend(ring)
            face_flat.extend(face_order)
            is_boundary[i] = boundary
            is_manifold[i] = manifold
        ring_indptr[i + 1] = len(ring_flat)
        face_indptr[i + 1] = len(face_flat)
    return (
        np.asarray(ring_flat, dtype=np.int32),
        ring_indptr,
        np.asarray(face_flat, dtype=np.int32),
        face_indptr,
        is_boundary,
        is_manifold,
    )
