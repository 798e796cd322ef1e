"""Command-line frontend.

Subcommands: filter, metrics, noise, gen, color, curvature, smooth, bench.
Metric reports go to stdout as JSON; traces and benchmarks are CSV. Exit
codes: 0 success, 2 parse/IO failure, 3 validation failure. GCF_THREADS
sets the default worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .baselines import laplacian_smooth, taubin_smooth
from .coloring import greedy_domain_decomposition
from .curvature import gaussian_curvature, gaussian_curvature_energy
from .errors import (
    FaceIndexError,
    FormatCapabilityError,
    MeshError,
    ParseError,
    UnsupportedFormat,
)
from .filtering import FilterConfig, gcf_filter
from .generate import generate_mesh
from .io import _write_rows, load_mesh, save_mesh
from .mesh import build_topology, mesh_stats
from .metrics import metrics_report
from .noise import NoiseConfig, add_noise

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


def _default_threads() -> int:
    return int(os.environ.get("GCF_THREADS", "0") or 0)


def _write_manifest(path, command, args, phases, extra=None):
    doc = {
        "tool": "gcfmesh",
        "version": __version__,
        "command": command,
        "arguments": {k: v for k, v in vars(args).items() if k != "func"},
        "timings_seconds": phases,
    }
    if extra:
        doc.update(extra)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, values):
    """Write an `index,value` CSV of a 1-D sequence in full precision."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        _write_rows(fh, "%d,%.17g", [np.arange(len(values)), values])


@contextlib.contextmanager
def _timed(phases, name):
    """Record the wall time of the enclosed block as phases[name]."""
    start = time.perf_counter()
    yield
    phases[name] = time.perf_counter() - start


def cmd_filter(args) -> int:
    if args.iters < 1:
        print("error: --iters must be >= 1", file=sys.stderr)
        return 3
    phases = {}
    with _timed(phases, "load"):
        mesh = load_mesh(args.input)
    with _timed(phases, "topology"):
        topology = build_topology(mesh)
    with _timed(phases, "color"):
        coloring = greedy_domain_decomposition(topology)
    config = FilterConfig(iterations=args.iters, threads=args.threads,
                          capture_trace=args.trace is not None)
    with _timed(phases, "filter"):
        result, trace = gcf_filter(mesh, topology, coloring, config)
    with _timed(phases, "save"):
        save_mesh(result, args.output)
    if args.trace is not None:
        _write_csv(args.trace, "iteration,gce", trace.gce_per_iteration)
    if args.manifest is not None:
        _write_manifest(args.manifest, "filter", args, phases,
                        {"input": str(args.input), "output": str(args.output),
                         "domains": coloring.domain_count})
    return 0


def cmd_metrics(args) -> int:
    test = load_mesh(args.test)
    ref = load_mesh(args.ref)
    report = metrics_report(test, ref, bins=args.bins,
                            clip_percentile=args.clip)
    doc = {
        "msae_deg": report.msae_deg,
        "gce": report.gce,
        "d_mean": report.d_mean,
        "d_max": report.d_max,
        "kld": report.kld,
        "params": {
            "bins": args.bins,
            "clip_percentile": args.clip,
            "notes": report.notes,
        },
    }
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


def cmd_noise(args) -> int:
    phases = {}
    with _timed(phases, "load"):
        mesh = load_mesh(args.input)
    with _timed(phases, "topology"):
        topology = build_topology(mesh)
    config = NoiseConfig(sigma_factor=args.sigma, seed=args.seed, mode=args.mode)
    with _timed(phases, "noise"):
        noisy = add_noise(mesh, topology, config)
    with _timed(phases, "save"):
        save_mesh(noisy, args.output)
    if args.manifest is not None:
        _write_manifest(args.manifest, "noise", args, phases,
                        {"seed": args.seed})
    return 0


def cmd_gen(args) -> int:
    renamed = {"subdiv": "subdivisions", "res": "resolution"}
    params = {renamed.get(name, name): getattr(args, name)
              for name in ("subdiv", "segments", "rings", "res",
                           "radius", "height", "size", "spacing")
              if getattr(args, name) is not None}
    phases = {}
    with _timed(phases, "generate"):
        mesh = generate_mesh(args.kind, **params)
    with _timed(phases, "save"):
        save_mesh(mesh, args.output)
    if args.manifest is not None:
        _write_manifest(args.manifest, "gen", args, phases,
                        {"vertices": mesh.vertex_count, "faces": mesh.face_count})
    return 0


def cmd_color(args) -> int:
    if not str(args.output).lower().endswith(".ply"):
        raise FormatCapabilityError("color export requires a .ply output")
    mesh = load_mesh(args.input)
    topology = build_topology(mesh)
    coloring = greedy_domain_decomposition(topology)
    save_mesh(mesh, args.output, colors=_label_colors(coloring.color_of))
    if args.manifest is not None:
        _write_manifest(args.manifest, "color", args, {},
                        {"domains": coloring.domain_count})
    return 0


def cmd_curvature(args) -> int:
    mesh = load_mesh(args.input)
    topology = build_topology(mesh)
    field = gaussian_curvature(mesh, topology)
    out = str(args.output).lower()
    if out.endswith(".csv"):
        _write_csv(args.output, "vertexIndex,K", field.curvature)
    elif out.endswith(".ply"):
        save_mesh(mesh, args.output, scalars=field.curvature)
    else:
        raise FormatCapabilityError("curvature export requires .csv or .ply")
    if args.verbose:
        print(f"gce={gaussian_curvature_energy(field):.17g}")
    return 0


def cmd_smooth(args) -> int:
    mesh = load_mesh(args.input)
    topology = build_topology(mesh)
    if args.method == "laplacian":
        result = laplacian_smooth(mesh, topology, args.iters, args.lam)
    else:
        result = taubin_smooth(mesh, topology, args.iters, args.lam, args.mu)
    save_mesh(result, args.output)
    if args.manifest is not None:
        _write_manifest(args.manifest, "smooth", args, {})
    return 0


def cmd_bench(args) -> int:
    iters_list = [int(t) for t in args.iters.split(",")]
    threads_list = [int(t) for t in args.threads.split(",")]
    rows = ["mesh,vertices,iters,threads,seconds"]
    for path in args.input:
        mesh = load_mesh(path)
        topology = build_topology(mesh)
        coloring = greedy_domain_decomposition(topology)
        for iters in iters_list:
            for threads in threads_list:
                config = FilterConfig(iterations=iters, threads=threads)
                start = time.perf_counter()
                gcf_filter(mesh, topology, coloring, config)
                seconds = time.perf_counter() - start
                rows.append(f"{path},{mesh.vertex_count},{iters},{threads},{seconds:.6f}")
    text = "\n".join(rows) + "\n"
    if args.output is not None:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    mesh = load_mesh(args.input)
    stats = mesh_stats(mesh)
    json.dump({
        "vertices": stats.vertex_count,
        "faces": stats.face_count,
        "boundary_vertices": stats.boundary_vertex_count,
        "mean_edge_length": stats.mean_edge_length,
    }, sys.stdout, indent=2)
    print()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcfmesh",
        description="Gaussian curvature filtering and evaluation for triangle meshes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="run the Gaussian curvature filter")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--iters", type=int, required=True,
                   help="iteration count (the filter's only parameter)")
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--trace", default=None, help="write iteration,gce CSV")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("metrics", help="compare a mesh against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--bins", type=int, default=200)
    p.add_argument("--clip", type=float, default=99.0)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("noise", help="add seeded Gaussian noise")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sigma", type=float, default=0.3,
                   help="standard deviation as a multiple of the mean edge length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("along_normal", "isotropic"),
                   default="along_normal")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("gen", help="generate a procedural mesh")
    p.add_argument("--kind", required=True,
                   choices=("icosphere", "cylinder", "cone", "cube", "grid"))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--subdiv", type=int, default=None)
    p.add_argument("--segments", type=int, default=None)
    p.add_argument("--rings", type=int, default=None)
    p.add_argument("--res", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--height", type=float, default=None)
    p.add_argument("--size", type=float, default=None)
    p.add_argument("--spacing", type=float, default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("color", help="export the domain decomposition as RGB")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("curvature", help="export per-vertex Gaussian curvature")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("smooth", help="run a Laplacian/Taubin baseline smoother")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--method", choices=("laplacian", "taubin"), default="laplacian")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=-0.53)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("bench", help="time filter runs, CSV output")
    p.add_argument("-i", "--input", action="append", required=True)
    p.add_argument("--iters", default="40", help="comma-separated iteration counts")
    p.add_argument("--threads", default="1", help="comma-separated worker counts")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="print basic mesh statistics")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnsupportedFormat, FaceIndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
