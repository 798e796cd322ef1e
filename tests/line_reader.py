"""Per-line reference readers for OBJ, OFF and PLY.

These are the readers `gcfmesh.io` used before its columnar readers: each
row is parsed token by token as it is read, with float() and int() into
`array` buffers, and OBJ indices are shifted one at a time. The columnar
readers must return bitwise-equal arrays with the same dtypes and warnings,
or raise the same exception class on the same line, except where the
readers were mended since:

- a PLY face list after scalar properties takes its count from the list's
  own column (these readers always take column 0);
- an OFF header line with one or two counts is read as the count line
  (these readers read the next line instead);
- an OBJ index outside the int64 range is a ParseError (these readers
  accept 2**63 and end with a FaceIndexError);
- a negative OFF vertex or face count, or PLY element count, is a
  ParseError on its line (these readers read no rows for it).
"""

from array import array
from itertools import count, repeat
from pathlib import Path

import numpy as np

from gcfmesh import TriangleMesh
from gcfmesh.errors import FaceIndexError, ParseError, UnsupportedFormat
from gcfmesh.io import _fan_triangulate

_OFF_HEADERS = ("OFF", "COFF")


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


def _load_obj(path):
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
    return vertices, flat, sizes, None, None


def _load_off(path):
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


def _load_ply(path):
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


def load_mesh_attributes(path):
    """(mesh, quality, colors) as `gcfmesh.load_mesh_attributes` returned
    them with these readers; the format is the path's suffix."""
    path = Path(path)
    vertices, flat, sizes, quality, colors = _LOADERS[path.suffix[1:]](path)
    faces = _fan_triangulate(flat, sizes, path)
    verts = np.frombuffer(vertices, dtype=np.float64).reshape(-1, 3)
    if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
        raise FaceIndexError(f"{path}: face index out of range 0..{len(verts) - 1}")
    mesh = TriangleMesh(verts, faces)
    q = None if quality is None else np.frombuffer(quality, dtype=np.float64)
    c = None if colors is None else (
        np.frombuffer(colors, dtype=np.int64).reshape(-1, 3).astype(np.uint8))
    return mesh, q, c
