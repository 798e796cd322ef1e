"""Command-line frontend.

Subcommands: filter, metrics, noise, gen, color, curvature, smooth, bench,
stats. Each one runs as an action on a `_Run`, which loads `-i` and builds
the topology and the coloring on first use, timing every phase. `main`
resolves a mesh output's format before the action, saves the mesh the
action returns and writes the `--manifest` JSON where the subcommand takes
one. Metric reports go to stdout as JSON; traces and benchmarks are CSV.
Exit codes: 0 success, 2 parse/IO failure, 3 validation failure.
GCF_THREADS sets the default worker count of `filter`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cached_property

import numpy as np

from . import __version__
from .baselines import laplacian_smooth, taubin_smooth
from .coloring import greedy_domain_decomposition
from .curvature import gaussian_curvature, gaussian_curvature_energy
from .errors import (FaceIndexError, FormatCapabilityError, MeshError,
                     ParseError, UnsupportedFormat)
from .filtering import FilterConfig, gcf_filter
from .generate import _GENERATORS, generate_mesh
from .io import _output_format, _write_rows, load_mesh, save_mesh
from .mesh import _pin_heap_thresholds, _trim_heap, build_topology, mesh_stats
from .metrics import metrics_report
from .noise import MODES, NoiseConfig, add_noise

# 20 visually distinct colors; label -> color is a bijection even past the
# palette size thanks to the odd-multiplier hash fallback.
_PALETTE = np.array([
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 190), (0, 128, 128), (230, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
], dtype=np.int64)


def _label_colors(labels: np.ndarray) -> np.ndarray:
    extra = np.arange(len(_PALETTE), int(labels.max(initial=0)) + 1, dtype=np.int64)
    h = (extra * 2654435761) & 0xFFFFFF
    hashed = np.column_stack([h >> 16, (h >> 8) & 0xFF, h & 0xFF])
    return np.vstack([_PALETTE, hashed])[labels]


class _Run:
    """One invocation: the mesh at `source`, its topology and its coloring,
    each made on first use through this module's names (so swapping those
    names reaches every call), the wall time of every phase and the extra
    fields of the manifest."""

    def __init__(self, source):
        self.source = source
        self.timings = {}
        self.fields = {}

    def timed(self, phase, fn, *args, **kwargs):
        """fn(*args, **kwargs), with its wall time recorded under `phase`;
        then the heap pages the phase freed go back to the OS."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.timings[phase] = time.perf_counter() - start
        _trim_heap()
        return result

    @cached_property
    def mesh(self):
        return self.timed("load", load_mesh, self.source)

    @cached_property
    def topology(self):
        return self.timed("topology", build_topology, self.mesh)

    @cached_property
    def coloring(self):
        return self.timed("color", greedy_domain_decomposition, self.topology)


def _write_manifest(args, run):
    doc = {
        "tool": "gcfmesh",
        "version": __version__,
        "command": args.command,
        "arguments": {k: v for k, v in vars(args).items() if k != "func"},
        "timings_seconds": run.timings,
        **run.fields,
    }
    with open(args.manifest, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_json(doc):
    """Print a report as JSON, or raise ValueError on NaN or inf first."""
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _write_csv(path, header, values):
    """Write an `index,value` CSV of a 1-D sequence in full precision."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        _write_rows(fh, "%d,%.17g", [np.arange(len(values)), values])


def cmd_filter(args, run):
    if args.iters < 1:
        raise ValueError("--iters must be >= 1")
    result, trace = run.timed(
        "filter", gcf_filter, run.mesh, run.topology, run.coloring,
        FilterConfig(iterations=args.iters, threads=args.threads,
                     capture_trace=args.trace is not None))
    if args.trace is not None:
        _write_csv(args.trace, "iteration,gce", trace.gce_per_iteration)
    run.fields.update(input=args.input, output=args.output,
                      domains=run.coloring.domain_count)
    return result


def cmd_metrics(args, run):
    test = load_mesh(args.test)
    ref = load_mesh(args.ref)
    report = metrics_report(test, ref, bins=args.bins,
                            clip_percentile=args.clip)
    doc = dict(vars(report))
    doc["params"] = {"bins": args.bins, "clip_percentile": args.clip,
                     "notes": doc.pop("notes")}
    _print_json(doc)


def cmd_noise(args, run):
    run.fields["seed"] = args.seed
    return run.timed("noise", add_noise, run.mesh, run.topology,
                     NoiseConfig(sigma_factor=args.sigma, seed=args.seed,
                                 mode=args.mode))


# gen's optional shape parameters and their types
_GEN_PARAMS = {"subdiv": int, "segments": int, "rings": int, "res": int,
               "radius": float, "height": float, "size": float, "spacing": float}


def cmd_gen(args, run):
    renamed = {"subdiv": "subdivisions", "res": "resolution"}
    params = {renamed.get(name, name): getattr(args, name)
              for name in _GEN_PARAMS if getattr(args, name) is not None}
    mesh = run.timed("generate", generate_mesh, args.kind, **params)
    run.fields.update(vertices=mesh.vertex_count, faces=mesh.face_count)
    return mesh


def cmd_color(args, run):
    if not args.output.lower().endswith(".ply"):
        raise FormatCapabilityError("color export requires a .ply output")
    colors = _label_colors(run.coloring.color_of)
    run.timed("save", save_mesh, run.mesh, args.output, colors=colors)
    run.fields["domains"] = run.coloring.domain_count


def cmd_curvature(args, run):
    out = args.output.lower()
    if not out.endswith((".csv", ".ply")):
        raise FormatCapabilityError("curvature export requires .csv or .ply")
    field = gaussian_curvature(run.mesh, run.topology)
    if out.endswith(".csv"):
        _write_csv(args.output, "vertexIndex,K", field.curvature)
    else:
        save_mesh(run.mesh, args.output, scalars=field.curvature)
    if args.verbose:
        print(f"gce={gaussian_curvature_energy(field):.17g}")


def cmd_smooth(args, run):
    smooth, factors = ((laplacian_smooth, (args.lam,)) if args.method == "laplacian"
                       else (taubin_smooth, (args.lam, args.mu)))
    return run.timed("smooth", smooth, run.mesh, run.topology, args.iters,
                     *factors)


def cmd_bench(args, run):
    rows = ["mesh,vertices,iters,threads,seconds"]
    for path in args.input:
        source = _Run(path)
        for iters in args.iters:
            for threads in args.threads:
                source.timed("filter", gcf_filter, source.mesh, source.topology,
                             source.coloring,
                             FilterConfig(iterations=iters, threads=threads))
                rows.append(f"{path},{source.mesh.vertex_count},{iters},"
                            f"{threads},{source.timings['filter']:.6f}")
    text = "\n".join(rows) + "\n"
    if args.output is not None:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_stats(args, run):
    stats = mesh_stats(run.mesh)
    _print_json({
        "vertices": stats.vertex_count,
        "faces": stats.face_count,
        "boundary_vertices": stats.boundary_vertex_count,
        "mean_edge_length": stats.mean_edge_length,
    })


def _int_list(text):
    """argparse type of bench's comma-separated --iters and --threads."""
    return [int(t) for t in text.split(",")]


# subcommands whose action returns a mesh for main to save to -o in the
# format its suffix names; main resolves that format before the action, so
# a bad suffix fails before any work
_MESH_WRITERS = (cmd_filter, cmd_noise, cmd_gen, cmd_smooth)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcfmesh",
        description="Gaussian curvature filtering and evaluation for triangle meshes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the options several subcommands share, one parent parser each
    inp, out, manifest = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    inp.add_argument("-i", "--input", required=True)
    out.add_argument("-o", "--output", required=True)
    manifest.add_argument("--manifest", default=None,
                          help="write a JSON manifest of the run")

    def command(name, action, help, *shared):
        p = sub.add_parser(name, help=help, parents=shared)
        p.set_defaults(func=action)
        return p

    p = command("filter", cmd_filter, "run the Gaussian curvature filter",
                inp, out, manifest)
    p.add_argument("--iters", type=int, required=True,
                   help="iteration count (the filter's only parameter)")
    # a string default is converted by `type` only when filter is parsed
    p.add_argument("--threads", type=int,
                   default=os.environ.get("GCF_THREADS") or "0")
    p.add_argument("--trace", default=None, help="write iteration,gce CSV")

    p = command("metrics", cmd_metrics, "compare a mesh against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--bins", type=int, default=200)
    p.add_argument("--clip", type=float, default=99.0)

    p = command("noise", cmd_noise, "add seeded Gaussian noise",
                inp, out, manifest)
    p.add_argument("--sigma", type=float, default=0.3,
                   help="standard deviation as a multiple of the mean edge length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default="along_normal")

    p = command("gen", cmd_gen, "generate a procedural mesh", out, manifest)
    p.add_argument("--kind", required=True, choices=tuple(_GENERATORS))
    for name, kind in _GEN_PARAMS.items():
        p.add_argument(f"--{name}", type=kind, default=None)

    command("color", cmd_color, "export the domain decomposition as RGB",
            inp, out, manifest)

    p = command("curvature", cmd_curvature,
                "export per-vertex Gaussian curvature", inp, out)
    p.add_argument("-v", "--verbose", action="store_true")

    p = command("smooth", cmd_smooth,
                "run a Laplacian/Taubin baseline smoother", inp, out, manifest)
    p.add_argument("--method", choices=("laplacian", "taubin"), default="laplacian")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=-0.53)

    # bench keeps its own -i (repeatable) and -o (an optional CSV path)
    p = command("bench", cmd_bench, "time filter runs, CSV output")
    p.add_argument("-i", "--input", action="append", required=True)
    p.add_argument("--iters", type=_int_list, default="40",
                   help="comma-separated iteration counts")
    p.add_argument("--threads", type=_int_list, default="1",
                   help="comma-separated worker counts")
    p.add_argument("-o", "--output", default=None)

    command("stats", cmd_stats, "print basic mesh statistics", inp)
    return parser


def main(argv=None) -> int:
    _pin_heap_thresholds()
    args = _build_parser().parse_args(argv)
    run = _Run(getattr(args, "input", None))
    try:
        if args.func in _MESH_WRITERS:
            _output_format(args.output)
        result = args.func(args, run)
        if result is not None:
            run.timed("save", save_mesh, result, args.output)
        if getattr(args, "manifest", None) is not None:
            _write_manifest(args, run)
    except (MeshError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        io_error = (ParseError, UnsupportedFormat, FaceIndexError, OSError)
        return 2 if isinstance(exc, io_error) else 3
    return 0


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
