"""Evaluation metrics: face-normal angle error, vertex distances, curvature
histograms with KL divergence, and the average convergence slope.

Conventions recorded in every aggregated report: the angle error (msae) is
the mean angle between corresponding face normals in degrees; the KL
divergence runs test||reference with 1e-12 additive smoothing; histograms
cover a symmetric range clipped at a percentile of |K| over interior
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureField, _block_normals, curvature_field, \
    gaussian_curvature_energy
from .errors import ConnectivityMismatch, EdgeMismatch, EmptyFieldError, TraceTooShort
from .mesh import TriangleMesh, _angle, _check_count, _check_match, _gather, _norm, \
    build_topology, unique_edges

_KLD_EPS = 1e-12


@dataclass
class MetricsReport:
    msae_deg: float
    gce: float
    d_mean: float
    d_max: float
    kld: float
    notes: str = ""


@dataclass(eq=False)
class Histogram:
    """bin_edges has B+1 ascending entries; probs has B entries summing to 1."""

    bin_edges: np.ndarray
    probs: np.ndarray


def _msae(processed: TriangleMesh, original: TriangleMesh):
    """(mean face-normal angle in degrees, 0.0 without usable faces; number
    of faces excluded as degenerate in either mesh). The angles of one
    block of faces at a time are packed into one array, which is then
    averaged at once."""
    faces = processed.faces
    if not np.array_equal(faces, original.faces):
        raise ConnectivityMismatch("meshes differ in face connectivity")
    angles = np.empty(len(faces))
    used = 0
    for (_, p), (_, q) in zip(_gather(processed.vertices, *faces.T),
                              _gather(original.vertices, *faces.T)):
        (a, double_a), (b, double_b) = _block_normals(p), _block_normals(q)
        ok = (double_a > 0) & (double_b > 0)
        k = int(ok.sum())
        angles[used:used + k] = _angle(a[ok], b[ok])[0]
        used += k
    mean_deg = float(np.degrees(angles[:used].mean())) if used else 0.0
    return mean_deg, len(faces) - used


def msae(processed: TriangleMesh, original: TriangleMesh) -> float:
    """Mean angle between corresponding face normals, in degrees.

    Faces that are degenerate in either mesh are excluded. Requires
    identical connectivity.
    """
    return _msae(processed, original)[0]


def vertex_distances(a: TriangleMesh, b: TriangleMesh):
    """(mean, max) Euclidean distance between index-corresponding vertices;
    CountMismatch unless `a` has a vertex per vertex of `b`, the reference."""
    _check_match(a.vertices, b)
    d = _norm(a.vertices - b.vertices)
    return float(d.mean()), float(d.max())


def curvature_histogram(field: CurvatureField, bins: int = 200,
                        clip_percentile: float = 99.0,
                        bin_edges=None) -> Histogram:
    """Probability histogram of interior-vertex curvature.

    Without explicit bin_edges the range is [-c, c] with c the
    clip_percentile of |K| over interior vertices; out-of-range samples are
    clamped into the end bins.
    """
    _check_count("bins", bins, 2)
    samples = field.curvature[~field.is_boundary]
    if len(samples) == 0:
        raise EmptyFieldError("no interior vertices to bin")
    if bin_edges is None:
        c = float(np.percentile(np.abs(samples), clip_percentile))
        if c == 0.0:
            c = float(np.abs(samples).max()) or 1.0
        bin_edges = np.linspace(-c, c, bins + 1)
    else:
        bin_edges = np.asarray(bin_edges, dtype=np.float64)
        if len(bin_edges) < 3 or np.any(np.diff(bin_edges) <= 0):
            raise ValueError("bin_edges must be ascending with >= 3 entries")
    nbins = len(bin_edges) - 1
    idx = np.clip(np.searchsorted(bin_edges, samples, side="right") - 1, 0, nbins - 1)
    counts = np.bincount(idx, minlength=nbins).astype(np.float64)
    return Histogram(bin_edges=bin_edges, probs=counts / counts.sum())


def kld(p: Histogram, q: Histogram) -> float:
    """KL(p || q) in nats with additive smoothing on both histograms."""
    if not np.array_equal(p.bin_edges, q.bin_edges):
        raise EdgeMismatch("histograms use different bin edges")
    pp = p.probs + _KLD_EPS
    qq = q.probs + _KLD_EPS
    pp = pp / pp.sum()
    qq = qq / qq.sum()
    return float((pp * np.log(pp / qq)).sum())


def acs(traces) -> float:
    """Average convergence slope of energy traces.

    Per trace with values E_0..E_N, each term t in 2..N-1 is
    log10(|E_{t+1}-E_t| / |E_t-E_{t-1}|) / (log10(t+1) - log10(t)); the
    result averages all defined terms over all traces. Terms whose
    successive differences vanish are skipped; returns NaN when every term
    is skipped.
    """
    values = []
    for trace in traces:
        e = np.asarray(trace.gce_per_iteration, dtype=np.float64)
        if len(e) < 4:
            raise TraceTooShort(f"trace has {len(e)} entries, need >= 4")
        diffs = np.abs(np.diff(e))
        t = np.arange(2, len(e) - 1)
        num = diffs[t]
        den = diffs[t - 1]
        ok = (num > 0) & (den > 0)
        if ok.any():
            tt = t[ok].astype(np.float64)
            values.append(np.log10(num[ok] / den[ok])
                          / (np.log10(tt + 1) - np.log10(tt)))
    if not values:
        return float("nan")
    return float(np.concatenate(values).mean())


def metrics_report(test: TriangleMesh, reference: TriangleMesh, *,
                   bins: int = 200, clip_percentile: float = 99.0) -> MetricsReport:
    """Full comparison of a processed mesh against its reference.

    A test vertex count or faces not the reference's raise CountMismatch or
    ConnectivityMismatch. gce and the histograms cover interior vertices of
    the test mesh; kld is KL(test || reference). The boundary flags come
    from the reference's topology, which is built only when some edge lies
    on a single face: an open fan ends on such an edge, so without one no
    vertex is on the boundary.
    """
    _check_match(test.vertices, reference, test.faces)
    _, counts = unique_edges(reference.faces, return_counts=True)
    if (counts == 1).any():
        is_boundary = build_topology(reference).is_boundary
    else:
        is_boundary = np.zeros(reference.vertex_count, dtype=bool)
    msae_deg, excluded = _msae(test, reference)
    d_mean, d_max = vertex_distances(test, reference)
    field_ref = curvature_field(reference.vertices, reference.faces, is_boundary)
    field_test = curvature_field(test.vertices, test.faces, is_boundary)
    hist_ref = curvature_histogram(field_ref, bins=bins,
                                   clip_percentile=clip_percentile)
    hist_test = curvature_histogram(field_test, bin_edges=hist_ref.bin_edges)
    notes = (
        f"msae=mean face-normal angle, degrees, {excluded} degenerate faces "
        f"excluded; gce over interior vertices of test mesh; "
        f"kld=KL(test||reference), bins={bins}, "
        f"clip_percentile={clip_percentile}, eps={_KLD_EPS}"
    )
    return MetricsReport(
        msae_deg=msae_deg,
        gce=gaussian_curvature_energy(field_test),
        d_mean=d_mean,
        d_max=d_max,
        kld=kld(hist_test, hist_ref),
        notes=notes,
    )
