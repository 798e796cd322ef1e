"""Set-up, timing loops, probes and the result line of one benchmark run.

Imported by run.py once `src/` is on the import path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import gcfmesh
import gcfmesh.cli
from gcfmesh import FilterConfig

import workloads as wl
from reference import Reference
from spans import Tracer

SETUP_REPS = 3        # set-ups per untraced run, at least ...
SETUP_SECONDS = 2.0   # ... and until they add up to this long
REF_SHARE = 0.1       # reference-kernel time after an operation, as a share of it
REF_WARMUP = 3        # untimed reference passes before the first operation

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "vertex_iters_per_ref": "1/ref",
    "peak_rss_mb": "MB", "msae_deg": "deg", "ok_frac": "fraction",
}
PER_LAYER_UNITS = {
    "io.load_s": "s", "io.save_s": "s", "io.bytes": "bytes",
    "mesh.build_topology_s": "s", "mesh.mesh_stats_s": "s",
    "coloring.greedy_s": "s", "coloring.domain_count": "count",
    "filtering.fixed_s": "s", "filtering.sweep_s": "s",
    "filtering.thread_speedup": "ratio", "filtering.trace_per_iter_s": "s",
    "filtering.moved_frac": "fraction", "curvature.gaussian_curvature_s": "s",
    "metrics.report_s": "s", "noise.add_noise_s": "s", "baselines.taubin_s": "s",
    "generate.mesh_s": "s", "cli.self_s": "s", "bench.trace_overhead_frac": "ratio",
}


def high_percentile(samples):
    """(value, percentile) of the highest nearest-rank percentile that has at
    least ten samples above it. With ten samples or fewer none qualifies and
    the maximum (percentile 100) is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


class Loop:
    """Operations timed back to back until their summed time, with the
    reference passes between them, reaches the run length; each output is
    checked after its timing stops.

    Between operations the reference kernel runs for at least REF_SHARE of
    the operation's time. Each operation's cost in reference units is its
    wall time divided by the mean reference pass next to it, before and
    after, so that host drift over the run cancels out of the ratio.
    """

    def __init__(self, reference):
        self.reference = reference
        self.samples = []
        self.ratios = []
        self.ref_samples = []
        self.failed = 0
        self.first = None

    def _reference(self, op_seconds):
        passes = []
        while not passes or sum(passes) < REF_SHARE * op_seconds:
            passes.append(self.reference.seconds())
        self.ref_samples += passes
        return passes

    def run(self, workload, calls, seconds, tracer=None):
        before = self._reference(0.0)
        k = 0
        while not self.samples or sum(self.samples) + sum(self.ref_samples) < seconds:
            if tracer is not None:
                tracer.op = f"op{k}"
            start = time.perf_counter()
            try:
                product = workload.operation(calls, k)
            except Exception:  # a failed operation is counted, not fatal
                product = None
                traceback.print_exc()
            elapsed = time.perf_counter() - start
            after = self._reference(elapsed)
            self.samples.append(elapsed)
            self.ratios.append(elapsed / statistics.mean(before + after))
            before = after
            try:
                if product is None:
                    raise wl.CheckFailed("the operation raised")
                workload.check(product)
            except wl.CheckFailed as exc:
                self.failed += 1
                print(f"operation {k}: check failed: {exc}", file=sys.stderr)
            else:
                if self.first is None:
                    self.first = product
            k += 1
        return self


def probe_layers(workload, calls, tracer, untraced, traced):
    """Per-layer metrics from the traced run plus probe calls on the
    workload's own input for layers its operations do not reach."""
    tracer.op = "probe"
    product = traced.first
    inp = workload.filter_input(product)
    topology, coloring = workload.topology, workload.coloring
    (gcf, _), *_ = workload.outputs(product)

    def filter_seconds(iterations, threads, capture=False):
        config = FilterConfig(iterations, threads=threads, capture_trace=capture)
        start = time.perf_counter()
        calls.gcf_filter(inp, topology, coloring, config)
        return time.perf_counter() - start

    n = workload.probe_iters
    fit = {}
    for threads in (1, 2):
        one, many = filter_seconds(1, threads), filter_seconds(n, threads)
        sweep = (many - one) / (n - 1)
        fit[threads] = (one - sweep, sweep, many)
    fixed, sweep, many = fit[workload.threads]
    with_trace = filter_seconds(n, workload.threads, capture=True)

    stepped = calls.gcf_step(gcf.vertices, topology, coloring, threads=workload.threads)
    movable = wl.movable_mask(topology)
    moved_frac = float((stepped != gcf.vertices).any(axis=1)[movable].mean())

    calls.mesh_stats(inp)
    calls.gaussian_curvature(inp, topology)
    seen = tracer.names()
    if "metrics.metrics_report" not in seen:
        calls.metrics_report(gcf, workload.clean)
    if "baselines.taubin_smooth" not in seen:
        calls.taubin_smooth(inp, topology, 10, 0.5, -0.53)
    cli_output = getattr(workload, "output_path", None)  # set if ops run the CLI
    if "cli.main" not in seen:
        cli_input = os.path.join(workload.workdir, "probe_in.obj")
        cli_output = os.path.join(workload.workdir, "probe_out.obj")
        calls.save_mesh(inp, cli_input)
        with tracer.patched(gcfmesh.cli, calls):
            calls.main(["filter", "-i", cli_input, "-o", cli_output,
                        "--iters", "1", "--threads", str(workload.threads)])

    med = tracer.median_self
    return {
        "io.load_s": med("io.load_mesh"),
        "io.save_s": med("io.save_mesh"),
        "io.bytes": os.path.getsize(cli_output),
        "mesh.build_topology_s": med("mesh.build_topology"),
        "mesh.mesh_stats_s": med("mesh.mesh_stats"),
        "coloring.greedy_s": med("coloring.greedy_domain_decomposition"),
        "coloring.domain_count": coloring.domain_count,
        "filtering.fixed_s": fixed,
        "filtering.sweep_s": sweep,
        "filtering.thread_speedup": fit[1][1] / fit[2][1],
        "filtering.trace_per_iter_s": (with_trace - many) / n,
        "filtering.moved_frac": moved_frac,
        "curvature.gaussian_curvature_s": med("curvature.gaussian_curvature"),
        "metrics.report_s": med("metrics.metrics_report"),
        "noise.add_noise_s": med("noise.add_noise"),
        "baselines.taubin_s": med("baselines.taubin_smooth"),
        "generate.mesh_s": med("generate.cylinder", "generate.icosphere"),
        "cli.self_s": med("cli.main"),
        "bench.trace_overhead_frac": statistics.median(traced.ratios)
        / statistics.median(untraced.ratios) - 1.0,
    }


def run(args, root, out_dir, workdir):
    """Run one workload of the checkout at `root`; print its provenance and
    result lines and write them, and any spans, to `out_dir`."""
    wl.oracle_spot_check(root, args.seed)
    workload = wl.WORKLOADS[args.workload](args.scale, workdir)
    tracer = Tracer() if args.trace else None
    calls = wl.library_calls(tracer)

    setup_times = []  # a traced run sets up once, for the spans
    while not setup_times or (not args.trace and (
            len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_SECONDS)):
        start = time.perf_counter()
        workload.setup(calls, args.seed)
        setup_times.append(time.perf_counter() - start)
    workload.prepare()

    reference = Reference(workdir, workload.threads)
    try:
        for _ in range(REF_WARMUP):
            reference.seconds()
        untraced = Loop(reference).run(workload, wl.library_calls(), args.seconds)
        loops = [untraced]
        if args.trace:
            with tracer.patched(gcfmesh.cli, calls):
                traced = Loop(reference).run(workload, calls, args.seconds, tracer)
            loops.append(traced)
    finally:
        reference.close()
    if untraced.first is not None:
        workload.spot_check(untraced.first)

    attempted = sum(len(loop.samples) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    topology = workload.topology
    provenance = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, "git_sha": git_sha(root),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "gcfmesh": gcfmesh.__version__,
        "vertices": workload.clean.vertex_count, "faces": workload.clean.face_count,
        "domains": workload.coloring.domain_count,
        "ring_degree_histogram": {str(d): int(c) for d, c in
                                  enumerate(np.bincount(topology.ring_sizes)) if c},
        "iterations": workload.iterations, "threads": workload.threads,
        "setup_s_samples": setup_times, "op_s_samples": untraced.samples,
        "op_ref_samples": untraced.ratios, "ref_pass_s_samples": untraced.ref_samples,
        "output_sha256": [digest for _, digest in workload.verified.values()],
    }

    if args.trace:
        if traced.first is None:
            raise wl.CheckFailed("every traced operation failed")
        metrics = probe_layers(workload, calls, tracer, untraced, traced)
        units = PER_LAYER_UNITS
        provenance["op_s_samples_traced"] = traced.samples
        provenance["op_ref_samples_traced"] = traced.ratios
        provenance["layer_self_s_per_op"] = tracer.layer_self_per_op(
            {s["op"] for s in tracer.spans if s["op"].startswith("op")})
        tracer.write(os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    else:
        wall = statistics.median(untraced.samples)
        wall_ref = statistics.median(untraced.ratios)
        hi, pct = high_percentile(untraced.samples)
        movable = int(wl.movable_mask(topology).sum())
        provenance["wall_s"] = {"value": wall, "unit": "s"}
        provenance["wall_s_hi"] = {"value": hi, "unit": "s", "percentile": pct,
                                   "samples": len(untraced.samples)}
        provenance["vertex_iters_per_s"] = {
            "value": movable * workload.iterations / wall, "unit": "1/s"}
        provenance["ref_pass_s"] = {
            "value": statistics.median(untraced.ref_samples), "unit": "s"}
        # One value per distinct output, so the operation count does not
        # weigh the noise seeds; 180 degrees, the largest error, if none passed.
        errors = [error for error, _ in workload.verified.values()]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_ref": wall_ref,
            "vertex_iters_per_ref": movable * workload.iterations / wall_ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "msae_deg": statistics.median(errors) if errors else 180.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "provenance": provenance}, fh, indent=1)
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
