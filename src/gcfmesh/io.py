"""ASCII OBJ / OFF / PLY readers and writers.

Readers accept polygonal faces and fan-triangulate them with a warning;
faces that would repeat a vertex after triangulation are dropped (also with
a warning) so that loaded meshes always satisfy the TriangleMesh
invariants. Writers emit LF line endings and full double precision.
Only PLY carries optional per-vertex attributes: a float `quality` scalar
channel and uchar `red`/`green`/`blue` colors.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .errors import (
    FaceIndexError,
    FormatCapabilityError,
    ParseError,
    UnsupportedFormat,
)
from .mesh import TriangleMesh, _releases_memory

_FORMATS = ("obj", "off", "ply")


def _detect_format(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in _FORMATS:
        return suffix
    with open(path, "r", errors="replace") as fh:
        for line in fh:
            token = line.strip()
            if not token or token.startswith("#"):
                continue
            if token.lower() == "ply":
                return "ply"
            if token.split()[0] in ("OFF", "COFF"):
                return "off"
            if token.split()[0] in ("v", "f", "vn", "vt", "mtllib", "o", "g"):
                return "obj"
            break
    raise UnsupportedFormat(f"{path}: cannot determine mesh format")


def _fan_triangulate(polygons, path):
    """Split polygons into triangle fans; drop degenerate triangles."""
    tris = []
    fanned = 0
    dropped = 0
    for poly in polygons:
        if len(poly) < 3:
            raise ParseError(f"face with {len(poly)} indices", path)
        if len(poly) > 3:
            fanned += 1
        for t in range(1, len(poly) - 1):
            a, b, c = poly[0], poly[t], poly[t + 1]
            if a == b or b == c or c == a:
                dropped += 1
                continue
            tris.append((a, b, c))
    if fanned:
        warnings.warn(f"{path}: fan-triangulated {fanned} non-triangle faces")
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} degenerate faces")
    return tris


def _parse_floats(tokens, count, path, lineno):
    try:
        vals = [float(t) for t in tokens[:count]]
    except ValueError:
        raise ParseError(f"expected {count} numbers, got {tokens!r}", path, lineno)
    if len(vals) < count:
        raise ParseError(f"expected {count} numbers, got {tokens!r}", path, lineno)
    return vals


def _load_obj(path: Path):
    vertices = []
    polygons = []
    for lineno, tokens in _meaningful_lines(path):
        key = tokens[0]
        if key == "v":
            vertices.append(_parse_floats(tokens[1:], 3, path, lineno))
        elif key == "f":
            poly = []
            for tok in tokens[1:]:
                head = tok.split("/")[0]
                try:
                    idx = int(head)
                except ValueError:
                    raise ParseError(f"bad face index {tok!r}", path, lineno)
                if idx > 0:
                    idx -= 1
                elif idx < 0:
                    idx += len(vertices)
                else:
                    raise ParseError("face index 0 is not valid", path, lineno)
                poly.append(idx)
            polygons.append(poly)
        # vt/vn/vp/o/g/s/usemtl/mtllib/l and unknown keywords are ignored
    return vertices, polygons, None, None


def _meaningful_lines(path):
    """Yield (lineno, tokens) for non-blank, non-comment lines."""
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split()


def _next_line(lines, path, message):
    try:
        return next(lines)
    except StopIteration:
        raise ParseError(message, path)


def _load_off(path: Path):
    lines = _meaningful_lines(path)
    lineno, tokens = _next_line(lines, path, "empty file")
    if tokens[0] != "OFF":
        raise ParseError(f"missing OFF header, got {tokens[0]!r}", path, lineno)
    if len(tokens) >= 4:
        counts = tokens[1:4]
    else:
        lineno, counts = _next_line(lines, path, "missing vertex/face counts")
    try:
        n_vert, n_face = int(counts[0]), int(counts[1])
    except (ValueError, IndexError):
        raise ParseError(f"bad count line {counts!r}", path, lineno)
    vertices = []
    for _ in range(n_vert):
        lineno, tokens = _next_line(lines, path, "unexpected end of file in vertex list")
        vertices.append(_parse_floats(tokens, 3, path, lineno))
    polygons = []
    for _ in range(n_face):
        lineno, tokens = _next_line(lines, path, "unexpected end of file in face list")
        try:
            k = int(tokens[0])
            poly = [int(t) for t in tokens[1:1 + k]]
        except ValueError:
            raise ParseError(f"bad face line {tokens!r}", path, lineno)
        if len(poly) != k:
            raise ParseError(f"face declares {k} indices, has {len(poly)}", path, lineno)
        polygons.append(poly)
    return vertices, polygons, None, None


def _load_ply(path: Path):
    with open(path, "r", errors="replace") as fh:
        lineno = 1
        magic = fh.readline().strip()
        if magic != "ply":
            raise ParseError("missing 'ply' magic", path, lineno)
        elements = []  # (name, count, [(kind, name)]) with kind 'scalar'|'list'
        fmt_seen = False
        while True:
            lineno += 1
            raw = fh.readline()
            if not raw:
                raise ParseError("unexpected end of header", path, lineno)
            tokens = raw.strip().split()
            if not tokens or tokens[0] == "comment":
                continue
            if tokens[0] == "format":
                if len(tokens) < 2 or tokens[1] != "ascii":
                    raise UnsupportedFormat(f"{path}: only ASCII PLY is supported")
                fmt_seen = True
            elif tokens[0] == "element":
                elements.append((tokens[1], int(tokens[2]), []))
            elif tokens[0] == "property":
                if not elements:
                    raise ParseError("property before element", path, lineno)
                kind = "list" if tokens[1] == "list" else "scalar"
                elements[-1][2].append((kind, tokens[-1]))
            elif tokens[0] == "end_header":
                break
            else:
                raise ParseError(f"unknown header line {raw.strip()!r}", path, lineno)
        if not fmt_seen:
            raise ParseError("missing format line", path, lineno)

        vertices = []
        polygons = []
        quality = None
        colors = None
        for name, count, props in elements:
            if name == "vertex":
                names = [p[1] for p in props]
                try:
                    xi, yi, zi = names.index("x"), names.index("y"), names.index("z")
                except ValueError:
                    raise ParseError("vertex element lacks x/y/z", path, lineno)
                qi = names.index("quality") if "quality" in names else None
                has_rgb = all(c in names for c in ("red", "green", "blue"))
                if qi is not None:
                    quality = []
                if has_rgb:
                    ri, gi, bi = (names.index(c) for c in ("red", "green", "blue"))
                    colors = []
                for _ in range(count):
                    lineno += 1
                    tokens = fh.readline().split()
                    if len(tokens) < len(names):
                        raise ParseError("short vertex row", path, lineno)
                    try:
                        vertices.append(
                            [float(tokens[xi]), float(tokens[yi]), float(tokens[zi])]
                        )
                        if qi is not None:
                            quality.append(float(tokens[qi]))
                        if has_rgb:
                            colors.append(
                                [int(tokens[ri]), int(tokens[gi]), int(tokens[bi])]
                            )
                    except ValueError:
                        raise ParseError(f"bad vertex row {tokens!r}", path, lineno)
            elif name == "face":
                if not any(kind == "list" for kind, _ in props):
                    raise ParseError("face element lacks a list property", path, lineno)
                for _ in range(count):
                    lineno += 1
                    tokens = fh.readline().split()
                    try:
                        k = int(tokens[0])
                        polygons.append([int(t) for t in tokens[1:1 + k]])
                    except (ValueError, IndexError):
                        raise ParseError(f"bad face row {tokens!r}", path, lineno)
                    if len(polygons[-1]) != k:
                        raise ParseError("face row shorter than declared", path, lineno)
            else:
                for _ in range(count):
                    lineno += 1
                    fh.readline()
    return vertices, polygons, quality, colors


_LOADERS = {"obj": _load_obj, "off": _load_off, "ply": _load_ply}


@_releases_memory
def load_mesh(path, fmt: str = "auto") -> TriangleMesh:
    """Load a triangle mesh from an ASCII OBJ, OFF, or PLY file.

    Polygonal faces are fan-triangulated. Raises ParseError on malformed
    input, FaceIndexError on out-of-range indices, NonFiniteError on NaN or
    infinite coordinates, UnsupportedFormat for unknown or binary formats.
    """
    mesh, _, _ = load_mesh_attributes(path, fmt)
    return mesh


def load_mesh_attributes(path, fmt: str = "auto"):
    """Like load_mesh but also returns (quality, colors) PLY channels (or None)."""
    path = Path(path)
    if fmt == "auto":
        fmt = _detect_format(path)
    if fmt not in _FORMATS:
        raise UnsupportedFormat(f"unknown format {fmt!r}")
    vertices, polygons, quality, colors = _LOADERS[fmt](path)
    tris = _fan_triangulate(polygons, path)
    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
        raise FaceIndexError(f"{path}: face index out of range 0..{len(verts) - 1}")
    mesh = TriangleMesh(verts, faces)
    q = np.asarray(quality, dtype=np.float64) if quality is not None else None
    c = np.asarray(colors, dtype=np.uint8) if colors is not None else None
    return mesh, q, c


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@_releases_memory
def save_mesh(mesh: TriangleMesh, path, fmt: str = "auto",
              scalars=None, colors=None) -> None:
    """Write a mesh; `scalars` (per-vertex float) and `colors` (per-vertex
    uchar RGB) are PLY-only and raise FormatCapabilityError elsewhere."""
    path = Path(path)
    if fmt == "auto":
        suffix = path.suffix.lower().lstrip(".")
        if suffix not in _FORMATS:
            raise UnsupportedFormat(f"cannot infer format from {path.name!r}")
        fmt = suffix
    if fmt not in _FORMATS:
        raise UnsupportedFormat(f"unknown format {fmt!r}")
    if scalars is not None:
        scalars = np.asarray(scalars, dtype=np.float64).ravel()
        if len(scalars) != mesh.vertex_count:
            raise ValueError("scalar channel length != vertex count")
    if colors is not None:
        colors = np.asarray(colors, dtype=np.int64).reshape(-1, 3)
        if len(colors) != mesh.vertex_count:
            raise ValueError("color channel length != vertex count")
    if fmt != "ply" and (scalars is not None or colors is not None):
        raise FormatCapabilityError(f"{fmt} files cannot carry per-vertex attributes")
    with open(path, "w", newline="\n") as fh:
        if fmt == "obj":
            for v in mesh.vertices:
                fh.write(f"v {_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n")
            for f in mesh.faces:
                fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
        elif fmt == "off":
            fh.write("OFF\n")
            fh.write(f"{mesh.vertex_count} {mesh.face_count} 0\n")
            for v in mesh.vertices:
                fh.write(f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n")
            for f in mesh.faces:
                fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")
        else:
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {mesh.vertex_count}\n")
            fh.write("property double x\nproperty double y\nproperty double z\n")
            if scalars is not None:
                fh.write("property double quality\n")
            if colors is not None:
                fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
            fh.write(f"element face {mesh.face_count}\n")
            fh.write("property list uchar int vertex_indices\n")
            fh.write("end_header\n")
            for i, v in enumerate(mesh.vertices):
                row = f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}"
                if scalars is not None:
                    row += f" {_fmt(scalars[i])}"
                if colors is not None:
                    row += f" {colors[i, 0]} {colors[i, 1]} {colors[i, 2]}"
                fh.write(row + "\n")
            for f in mesh.faces:
                fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")
