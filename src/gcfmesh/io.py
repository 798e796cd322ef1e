"""ASCII OBJ / OFF / PLY readers and writers.

Every reader takes its lines from `_lines`, which decodes UTF-8 with
undecodable bytes replaced and skips blank and `#` lines in all three
formats. Rows go straight into flat typed arrays (float64 coordinates and
quality, int64 colors and indices), and faces into a CSR pair of flat
indices and per-row sizes. Polygons are fan-triangulated with a warning;
triangles that repeat a vertex are dropped (also with a warning) so that
loaded meshes always satisfy the TriangleMesh invariants. A `COFF` file
reads as OFF with its color columns ignored. Writers emit LF line endings
and full double precision. Only PLY carries optional per-vertex attributes:
a float `quality` scalar channel and uchar `red`/`green`/`blue` colors.
"""

from __future__ import annotations

import warnings
from array import array
from itertools import count, repeat
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
_OFF_HEADERS = ("OFF", "COFF")
_OBJ_KEYS = ("v", "f", "vn", "vt", "mtllib", "o", "g")


def _lines(path):
    """Yield (lineno, tokens) for each line that is neither blank nor a `#`
    comment; past the end, yield (lineno, []) for ever, numbered on as
    readline would, so a reader short of rows sees empty ones."""
    lineno = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if tokens and not tokens[0].startswith("#"):
                yield lineno, tokens
    yield from zip(count(lineno + 1), repeat([]))


def _row(out, tokens, columns, path, lineno):
    """Append tokens[c] for each c in `columns` to the array `out`, as float
    for typecode 'd' and int for 'q'; a missing or bad token is a ParseError."""
    parse = float if out.typecode == "d" else int
    try:
        out.extend(map(parse, map(tokens.__getitem__, columns)))
    except (IndexError, ValueError, OverflowError):
        raise ParseError(f"bad row {tokens!r}", path, lineno)


def _face_size(k, path, lineno):
    if k < 3:
        raise ParseError(f"face with {k} indices", path, lineno)
    return k


def _face_row(flat, sizes, tokens, path, lineno):
    """Append an OFF/PLY face row `k i1 .. ik` to the CSR pair (flat, sizes);
    columns after i_k (face colors) are ignored."""
    _row(sizes, tokens, (0,), path, lineno)
    _row(flat, tokens, range(1, 1 + _face_size(sizes[-1], path, lineno)), path, lineno)


def _detect_format(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in _FORMATS:
        return suffix
    _, tokens = next(_lines(path))
    head = tokens[0] if tokens else ""
    if len(tokens) == 1 and head.lower() == "ply":
        return "ply"
    if head in _OFF_HEADERS:
        return "off"
    if head in _OBJ_KEYS:
        return "obj"
    raise UnsupportedFormat(f"{path}: cannot determine mesh format")


def _fan_triangulate(flat, sizes, path):
    """Split the CSR polygons into fans (i0, it, it+1) in row order; drop
    triangles that repeat a vertex."""
    flat = np.frombuffer(flat, dtype=np.int64)
    sizes = np.frombuffer(sizes, dtype=np.int64)
    first = np.cumsum(sizes) - sizes  # where each row starts in flat
    row = np.repeat(np.arange(len(sizes)), sizes - 2)  # each triangle's row
    second = np.arange(len(row)) + 2 * row + 1  # its second corner in flat
    tris = np.column_stack([flat[first[row]], flat[second], flat[second + 1]])
    a, b, c = tris.T
    keep = (a != b) & (b != c) & (c != a)
    fanned = int(np.count_nonzero(sizes > 3))
    dropped = len(tris) - int(np.count_nonzero(keep))
    if fanned:
        warnings.warn(f"{path}: fan-triangulated {fanned} non-triangle faces")
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} degenerate faces")
        tris = tris[keep]
    return tris


def _load_obj(path: Path):
    vertices, flat, sizes = array("d"), array("q"), array("q")
    for lineno, tokens in _lines(path):
        if not tokens:
            break
        key = tokens[0]
        if key == "v":
            _row(vertices, tokens, (1, 2, 3), path, lineno)
        elif key == "f":
            sizes.append(_face_size(len(tokens) - 1, path, lineno))
            n = len(vertices) // 3
            for tok in tokens[1:]:
                try:
                    idx = int(tok.partition("/")[0])
                    if idx:
                        flat.append(idx - 1 if idx > 0 else idx + n)
                except (ValueError, OverflowError):
                    raise ParseError(f"bad face index {tok!r}", path, lineno)
                if not idx:
                    raise ParseError("face index 0 is not valid", path, lineno)
        # vt/vn/vp/o/g/s/usemtl/mtllib/l and unknown keywords are ignored
    return vertices, flat, sizes, None, None


def _load_off(path: Path):
    lines = _lines(path)
    lineno, tokens = next(lines)
    if not tokens:
        raise ParseError("empty file", path, lineno)
    if tokens[0] not in _OFF_HEADERS:
        raise ParseError(f"missing OFF header, got {tokens[0]!r}", path, lineno)
    counts = tokens[1:4]
    if len(tokens) < 4:
        lineno, counts = next(lines)
        if not counts:
            raise ParseError("missing vertex/face counts", path, lineno)
    try:
        n_vert, n_face = int(counts[0]), int(counts[1])
    except (ValueError, IndexError):
        raise ParseError(f"bad count line {counts!r}", path, lineno)
    vertices, flat, sizes = array("d"), array("q"), array("q")
    for _ in range(n_vert):
        lineno, tokens = next(lines)
        if not tokens:
            raise ParseError("unexpected end of file in vertex list", path, lineno)
        _row(vertices, tokens, (0, 1, 2), path, lineno)
    for _ in range(n_face):
        lineno, tokens = next(lines)
        if not tokens:
            raise ParseError("unexpected end of file in face list", path, lineno)
        _face_row(flat, sizes, tokens, path, lineno)
    return vertices, flat, sizes, None, None


def _load_ply(path: Path):
    lines = _lines(path)
    lineno, tokens = next(lines)
    if (lineno, tokens) != (1, ["ply"]):
        raise ParseError("missing 'ply' magic", path, 1)
    elements = []  # (name, count, [(kind, name)]) with kind 'scalar'|'list'
    fmt_seen = False
    while True:
        lineno, tokens = next(lines)
        if not tokens:
            raise ParseError("unexpected end of header", path, lineno)
        if tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] != "ascii":
                raise UnsupportedFormat(f"{path}: only ASCII PLY is supported")
            fmt_seen = True
        elif tokens[0] == "element":
            try:
                elements.append((tokens[1], int(tokens[2]), []))
            except (IndexError, ValueError):
                raise ParseError(f"bad element line {tokens!r}", path, lineno)
            if [e[0] for e in elements].count("vertex") > 1:
                raise ParseError("second vertex element", path, lineno)
        elif tokens[0] == "property":
            if not elements:
                raise ParseError("property before element", path, lineno)
            if len(tokens) < 3:
                raise ParseError(f"bad property line {tokens!r}", path, lineno)
            kind = "list" if tokens[1] == "list" else "scalar"
            elements[-1][2].append((kind, tokens[-1]))
        elif tokens[0] == "end_header":
            break
        else:
            raise ParseError(f"unknown header line {tokens!r}", path, lineno)
    if not fmt_seen:
        raise ParseError("missing format line", path, lineno)

    vertices, flat, sizes = array("d"), array("q"), array("q")
    quality = colors = None
    for name, rows, props in elements:
        if name == "vertex":
            names = [p[1] for p in props]
            try:
                xyz = [names.index(c) for c in "xyz"]
            except ValueError:
                raise ParseError("vertex element lacks x/y/z", path, lineno)
            q = rgb = ()
            if "quality" in names:
                quality, q = array("d"), (names.index("quality"),)
            if all(c in names for c in ("red", "green", "blue")):
                colors = array("q")
                rgb = [names.index(c) for c in ("red", "green", "blue")]
            for _ in range(rows):
                lineno, tokens = next(lines)
                if len(tokens) < len(names):
                    raise ParseError("short vertex row", path, lineno)
                _row(vertices, tokens, xyz, path, lineno)
                if q:
                    _row(quality, tokens, q, path, lineno)
                if rgb:
                    _row(colors, tokens, rgb, path, lineno)
                    if not all(0 <= c <= 255 for c in colors[-3:]):
                        raise ParseError("color outside 0..255", path, lineno)
        elif name == "face":
            if not any(kind == "list" for kind, _ in props):
                raise ParseError("face element lacks a list property", path, lineno)
            for _ in range(rows):
                lineno, tokens = next(lines)
                _face_row(flat, sizes, tokens, path, lineno)
        else:
            for _ in range(rows):
                lineno, _ = next(lines)
    return vertices, flat, sizes, quality, colors


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
    vertices, flat, sizes, quality, colors = _LOADERS[fmt](path)
    faces = _fan_triangulate(flat, sizes, path)
    verts = np.frombuffer(vertices, dtype=np.float64).reshape(-1, 3)
    if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
        raise FaceIndexError(f"{path}: face index out of range 0..{len(verts) - 1}")
    mesh = TriangleMesh(verts, faces)
    q = None if quality is None else np.frombuffer(quality, dtype=np.float64)
    c = None if colors is None else (
        np.frombuffer(colors, dtype=np.int64).reshape(-1, 3).astype(np.uint8))
    return mesh, q, c


_ROWS_PER_WRITE = 4096


def _write_rows(fh, template, columns, base=0):
    """Write `template % row` + newline for each row of `columns` side by side
    (plus `base`), _ROWS_PER_WRITE rows per write so no copy grows with n."""
    line = template + "\n"
    for lo in range(0, len(columns[0]), _ROWS_PER_WRITE):
        chunk = np.column_stack([c[lo:lo + _ROWS_PER_WRITE] for c in columns])
        if base:
            chunk += base
        fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def _output_format(path, fmt: str = "auto") -> str:
    """The format save_mesh writes `path` in: `fmt`, or with "auto" the
    path's suffix. UnsupportedFormat unless it is obj, off or ply."""
    path = Path(path)
    if fmt == "auto":
        fmt = path.suffix.lower().lstrip(".")
    if fmt not in _FORMATS:
        raise UnsupportedFormat(f"cannot write format {fmt!r} to {path.name!r}")
    return fmt


@_releases_memory
def save_mesh(mesh: TriangleMesh, path, fmt: str = "auto",
              scalars=None, colors=None) -> None:
    """Write a mesh; `scalars` (per-vertex float) and `colors` (per-vertex
    uchar RGB) are PLY-only and raise FormatCapabilityError elsewhere."""
    fmt = _output_format(path, fmt)
    columns = [mesh.vertices]
    vertex_row = "%.17g %.17g %.17g"
    properties = "property double x\nproperty double y\nproperty double z\n"
    if scalars is not None:
        scalars = np.asarray(scalars, dtype=np.float64).ravel()
        if len(scalars) != mesh.vertex_count:
            raise ValueError("scalar channel length != vertex count")
        columns.append(scalars)
        vertex_row += " %.17g"
        properties += "property double quality\n"
    if colors is not None:
        colors = np.asarray(colors).reshape(-1, 3)
        if len(colors) != mesh.vertex_count:
            raise ValueError("color channel length != vertex count")
        if ((colors < 0) | (colors > 255)).any():
            raise ValueError("color outside 0..255")
        if (np.floor(colors) != colors).any():
            raise ValueError("color is not an integer")
        colors = colors.astype(np.int64)
        columns.append(colors)
        vertex_row += " %d %d %d"
        properties += "property uchar red\nproperty uchar green\nproperty uchar blue\n"
    if fmt != "ply" and len(columns) > 1:
        raise FormatCapabilityError(f"{fmt} files cannot carry per-vertex attributes")
    face_row, base = "3 %d %d %d", 0
    if fmt == "obj":
        header, vertex_row, face_row, base = "", "v " + vertex_row, "f %d %d %d", 1
    elif fmt == "off":
        header = f"OFF\n{mesh.vertex_count} {mesh.face_count} 0\n"
    else:
        header = (f"ply\nformat ascii 1.0\nelement vertex {mesh.vertex_count}\n"
                  f"{properties}element face {mesh.face_count}\n"
                  "property list uchar int vertex_indices\nend_header\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(header)
        _write_rows(fh, vertex_row, columns)
        _write_rows(fh, face_row, [mesh.faces], base)
