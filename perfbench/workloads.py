"""The benchmark's workloads: set-up, one timed operation, output checks.

Every workload builds its meshes from the workload seed alone. `calls` is a
namespace of the library's public functions (wrapped in spans for a traced
run); set-up and operations go through it, while checks and the spot
checks call the library directly because they are not measured.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import os
import types

import numpy as np

import gcfmesh
from gcfmesh import FilterConfig, NoiseConfig

SIGMA = 0.3  # noise standard deviation, times the mean edge length

# module -> public functions the benchmark calls; span names are module.function
LAYER_CALLS = {
    "generate": ("cylinder", "icosphere"),
    "mesh": ("build_topology", "mesh_stats"),
    "coloring": ("greedy_domain_decomposition",),
    "noise": ("add_noise",),
    "filtering": ("gcf_filter", "gcf_step"),
    "curvature": ("gaussian_curvature",),
    "metrics": ("metrics_report",),
    "baselines": ("taubin_smooth",),
    "io": ("load_mesh", "save_mesh"),
    "cli": ("main",),
}


def library_calls(tracer=None):
    calls = {}
    for module, names in LAYER_CALLS.items():
        mod = importlib.import_module(f"gcfmesh.{module}")
        for name in names:
            fn = getattr(mod, name)
            calls[name] = tracer.wrap(f"{module}.{name}", fn) if tracer else fn
    return types.SimpleNamespace(**calls)


class CheckFailed(Exception):
    """An output check or spot check did not hold."""


def positions_digest(mesh):
    return hashlib.sha256(np.ascontiguousarray(mesh.vertices).tobytes()).hexdigest()


def movable_mask(topology):
    return (~topology.is_boundary) & topology.is_manifold_fan & (topology.ring_sizes > 0)


def interior_energy(mesh, topology):
    return gcfmesh.gaussian_curvature_energy(gcfmesh.gaussian_curvature(mesh, topology))


def check_output(out, inp, clean, topology, *, must_improve):
    """Raise CheckFailed unless `out` is a valid filtering of `inp`.

    Positions are finite, faces are unchanged, boundary and non-manifold
    vertices are bitwise equal to the input and, with must_improve, the
    interior curvature energy and the face-normal error against `clean` are
    below the input's. Returns the face-normal error in degrees.
    """
    if not np.isfinite(out.vertices).all():
        raise CheckFailed("non-finite output positions")
    if not np.array_equal(out.faces, inp.faces):
        raise CheckFailed("output faces differ from the input's")
    frozen = topology.is_boundary | ~topology.is_manifold_fan
    if not np.array_equal(out.vertices[frozen], inp.vertices[frozen]):
        raise CheckFailed("a boundary or non-manifold vertex moved")
    error = gcfmesh.msae(out, clean)
    if must_improve:
        if not interior_energy(out, topology) < interior_energy(inp, topology):
            raise CheckFailed("interior curvature energy did not drop")
        if not error < gcfmesh.msae(inp, clean):
            raise CheckFailed("face-normal error did not drop")
    return error


def oracle_spot_check(root, seed):
    """One gcf_step on a seeded noisy icosphere(2) (162 vertices) against the
    brute-force reference in tests/bruteforce.py, to 1e-12."""
    spec = importlib.util.spec_from_file_location(
        "bruteforce", os.path.join(root, "tests", "bruteforce.py"))
    bruteforce = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bruteforce)
    clean = gcfmesh.icosphere(2)
    topology = gcfmesh.build_topology(clean)
    coloring = gcfmesh.greedy_domain_decomposition(topology)
    noisy = gcfmesh.add_noise(clean, topology, NoiseConfig(SIGMA, seed=seed))
    scale = gcfmesh.mean_edge_length(noisy.vertices, noisy.faces)
    got = gcfmesh.gcf_step(noisy.vertices, topology, coloring, edge_scale=scale)
    want = bruteforce.reference_step(noisy.vertices, topology, coloring, scale)
    err = float(np.abs(got - want).max())
    if not err <= 1e-12:
        raise CheckFailed(f"gcf_step differs from the oracle by {err:.3g}")
    if np.array_equal(got, noisy.vertices):
        raise CheckFailed("gcf_step left the noisy oracle mesh unchanged")


class Workload:
    """One benchmark workload. Subclasses set the class attributes and
    implement setup, operation and outputs."""

    name: str
    iterations: int    # filter iterations in one operation
    threads: int       # filter worker count in one operation
    probe_iters: int   # second point of the fixed/sweep cost fit
    shapes: dict       # scale -> generator arguments

    def __init__(self, scale, workdir):
        self.shape = self.shapes[scale]
        self.workdir = workdir
        self.verified = {}

    def setup(self, calls, seed):
        """Build the inputs; timed as set-up."""
        raise NotImplementedError

    def prepare(self):
        """Untimed work after set-up that the probes and provenance need."""

    def operation(self, calls, k):
        """The k-th timed operation; returns what `outputs` needs."""
        raise NotImplementedError

    def outputs(self, product):
        """Untimed: (filtered mesh, filter input) pairs from one operation,
        GCF output first, then meshes that need not improve."""
        raise NotImplementedError

    def check(self, product):
        """Run the output checks; returns the GCF output's msae_deg and the
        sha256 of its positions. An output identical to one already checked
        reuses that verdict."""
        key = self.output_key(product)
        if key not in self.verified:
            self.verified[key] = self.verify(product)
        return self.verified[key]

    def output_key(self, product):
        digest = hashlib.sha256()
        for out, _ in self.outputs(product):
            digest.update(np.ascontiguousarray(out.vertices).tobytes())
        return digest.hexdigest()

    def verify(self, product):
        (gcf, inp), *others = self.outputs(product)
        error = check_output(gcf, inp, self.clean, self.topology, must_improve=True)
        for out, src in others:
            check_output(out, src, self.clean, self.topology, must_improve=False)
        return error, positions_digest(gcf)

    def filter_input(self, product):
        """The in-memory mesh the probes filter."""
        return self.noisy

    def spot_check(self, product):
        """A once-per-run check beyond the per-operation ones."""


class DenoiseObj(Workload):
    name = "denoise_obj_100k"
    iterations = 10
    threads = 1
    probe_iters = 4
    shapes = {"full": (320, 312), "tiny": (24, 22)}

    def setup(self, calls, seed):
        self.clean = calls.cylinder(*self.shape)
        self.topology = calls.build_topology(self.clean)
        self.noisy = calls.add_noise(self.clean, self.topology, NoiseConfig(SIGMA, seed=seed))
        self.input_path = os.path.join(self.workdir, "noisy.obj")
        self.output_path = os.path.join(self.workdir, "filtered.obj")
        calls.save_mesh(self.noisy, self.input_path)

    def prepare(self):
        self.coloring = gcfmesh.greedy_domain_decomposition(self.topology)

    def operation(self, calls, k):
        argv = ["filter", "-i", self.input_path, "-o", self.output_path,
                "--iters", str(self.iterations), "--threads", str(self.threads)]
        code = calls.main(argv)
        if code != 0:
            raise CheckFailed(f"gcfmesh filter exited with {code}")
        return self.output_path

    def outputs(self, product):
        return [(gcfmesh.load_mesh(product), self.noisy)]

    def output_key(self, product):
        with open(product, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


class Sweep(Workload):
    name = "sweep_100k_t2"
    iterations = 20
    threads = 2
    probe_iters = 4
    shapes = {"full": (320, 312), "tiny": (24, 22)}

    def setup(self, calls, seed):
        self.clean = calls.cylinder(*self.shape)
        self.topology = calls.build_topology(self.clean)
        self.coloring = calls.greedy_domain_decomposition(self.topology)
        self.noisy = calls.add_noise(self.clean, self.topology, NoiseConfig(SIGMA, seed=seed))

    def operation(self, calls, k):
        out, _ = calls.gcf_filter(self.noisy, self.topology, self.coloring,
                                  FilterConfig(self.iterations, threads=self.threads))
        return out

    def outputs(self, product):
        return [(product, self.noisy)]

    def spot_check(self, product):
        """The output must equal, bitwise, the same filter run on one thread."""
        ref, _ = gcfmesh.gcf_filter(self.noisy, self.topology, self.coloring,
                                    FilterConfig(self.iterations, threads=1))
        if not np.array_equal(ref.vertices, product.vertices):
            raise CheckFailed("output at 1 thread differs from 2 threads")


class EvaluateSphere(Workload):
    name = "evaluate_sphere_10k"
    iterations = 40
    threads = 1
    probe_iters = 10
    shapes = {"full": 5, "tiny": 2}
    noise_seeds = 4

    def setup(self, calls, seed):
        self.clean = calls.icosphere(self.shape)
        self.topology = calls.build_topology(self.clean)
        self.coloring = calls.greedy_domain_decomposition(self.topology)
        self.seeds = [int(s) for s in
                      np.random.SeedSequence(seed).generate_state(self.noise_seeds)]

    def operation(self, calls, k):
        noisy = calls.add_noise(self.clean, self.topology,
                                NoiseConfig(SIGMA, seed=self.seeds[k % len(self.seeds)]))
        out, trace = calls.gcf_filter(
            noisy, self.topology, self.coloring,
            FilterConfig(self.iterations, threads=self.threads, capture_trace=True))
        report = calls.metrics_report(out, self.clean)
        smooth = calls.taubin_smooth(noisy, self.topology, 10, 0.5, -0.53)
        smooth_report = calls.metrics_report(smooth, self.clean)
        return types.SimpleNamespace(noisy=noisy, out=out, trace=trace, report=report,
                                     smooth=smooth, smooth_report=smooth_report)

    def outputs(self, product):
        return [(product.out, product.noisy), (product.smooth, product.noisy)]

    def verify(self, product):
        error, digest = super().verify(product)
        if len(product.trace.gce_per_iteration) != self.iterations + 1 \
                or not np.isfinite(product.trace.gce_per_iteration).all():
            raise CheckFailed("energy trace is incomplete or non-finite")
        if product.report.msae_deg != error:
            raise CheckFailed("metrics_report msae differs from msae()")
        return error, digest

    def filter_input(self, product):
        return product.noisy


WORKLOADS = {w.name: w for w in (DenoiseObj, Sweep, EvaluateSphere)}
