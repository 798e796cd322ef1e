"""ASCII OBJ / OFF / PLY readers and writers.

Every reader takes its lines from `_Lines`, which decodes UTF-8 with
undecodable bytes replaced and skips blank and `#` lines in all three
formats. A reader only splits lines and routes their tokens into the
columns of a `_Columns`, which converts each column to a flat typed array
(float64 coordinates and quality, int64 colors and indices) once per chunk
of rows; faces become a CSR pair of flat indices and per-row sizes.
Polygons are fan-triangulated with a warning; triangles that repeat a
vertex are dropped (also with a warning) so that loaded meshes always
satisfy the TriangleMesh invariants. A `COFF` file reads as OFF with its
color columns ignored. Writers emit LF line endings and full double
precision. Only PLY carries optional per-vertex attributes: a float
`quality` scalar channel and uchar `red`/`green`/`blue` colors.
"""

from __future__ import annotations

import warnings
from array import array
from itertools import count
from operator import itemgetter
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
_CHUNK_ROWS = 4096


class _Lines:
    """The lines of an open text file as (text, lineno) pairs in `numbered`.

    A row is a line that is neither blank nor a `#` comment. A reader that
    runs out of lines sees empty rows, numbered on as readline would.
    """

    def __init__(self, fh):
        self._numbers = count(1)
        # zip takes from fh first, so at the end _numbers holds the next number
        self.numbered = zip(fh, self._numbers)

    def past_end(self):
        """The number of the next line past the end of the file."""
        return next(self._numbers)

    def next_row(self):
        """(lineno, tokens) of the next row, or (lineno, []) past the end."""
        for text, lineno in self.numbered:
            tokens = text.split()
            if tokens and tokens[0][0] != "#":
                return lineno, tokens
        return self.past_end(), []


def _open(path):
    return open(path, "r", encoding="utf-8", errors="replace")


def _parse(tokens, dtype):
    """(values, bad): `tokens` converted by one np.array call, which applies
    Python's own float() or int() to each. If a token fails, `values` holds
    those before it and `bad` is its index; otherwise `bad` is None."""
    try:
        return np.array(tokens, dtype=dtype), None
    except (ValueError, OverflowError):
        pass
    for bad, token in enumerate(tokens):
        try:
            np.array([token], dtype=dtype)
        except (ValueError, OverflowError):
            return np.array(tokens[:bad], dtype=dtype), bad


def _row_of(sizes, i):
    """The row that holds item `i` of rows of `sizes` items laid end to end."""
    return int(np.searchsorted(np.cumsum(sizes), i, "right"))


class _Columns:
    """The vertex and face rows of one file, held as columns of tokens and
    converted to typed arrays one chunk of at most _CHUNK_ROWS rows at a time.

    `route` only splits lines and routes their tokens: it appends the tokens
    a row needs (x y z, quality, red green blue; a face's index count and
    the index tokens after it) to one string list per column, and the row's
    line to another. `flush` converts each column with one np.array call,
    which applies Python's own float() or int() to each token, so the values
    are bitwise those of a per-token parse. A row too short for its columns
    ends the routing. `flush` raises ParseError on the first bad row of
    either kind in file order, so the reported line is always the first
    malformed one in the file.
    """

    def __init__(self, path, obj=False):
        """`obj`: OBJ rules for faces: a face's count is the number of tokens
        after `f`, and an index is 1-based, or negative to count back from
        the vertices read so far."""
        self.path = path
        self._obj = obj
        self._width = self._count = 0
        self._get_xyz = self._get_quality = self._get_rgb = None
        # converted chunks go into buffers that grow in place, so the end
        # of the load makes no second copy of a whole column
        self._vertices, self._quality, self._colors = array("d"), None, None
        self._flat, self._sizes = array("q"), array("q")
        self._vertex_total = 0  # vertex rows flushed so far
        self.xyz, self.quality, self.rgb, self.vertex_lines = [], [], [], []
        self.counts, self.spans, self.indices, self.face_lines = [], [], [], []

    def vertex_layout(self, xyz, width, quality=None, rgb=None):
        """Vertex rows hold x, y, z (and the optional quality and colors) in
        these columns and have at least `width` tokens."""
        self._get_xyz, self._width = itemgetter(*xyz), width
        if quality is not None:
            self._get_quality, self._quality = itemgetter(quality), array("d")
        if rgb is not None:
            self._get_rgb, self._colors = itemgetter(*rgb), array("q")

    def face_layout(self, count):
        """Face rows hold their index count in column `count`, then the
        indices; with `obj`, `count` is the column of the `f` key."""
        self._count = count

    def route(self, lines, key=None, rows=None, lineno=0):
        """Route the next `rows` rows of `lines` (to the end if None), each a
        vertex row if `key` is "v", a face row if it is "f", and if `key` is
        None as its first token says (other rows are skipped); then flush.
        `lineno` is the line read just before. Return the last line read."""
        obj, count, width = self._obj, self._count, self._width
        get_xyz, get_quality, get_rgb = self._get_xyz, self._get_quality, self._get_rgb
        xyz, quality, rgb, vertex_lines = self.xyz, self.quality, self.rgb, self.vertex_lines
        counts, spans, indices, face_lines = self.counts, self.spans, self.indices, self.face_lines
        # the last row is on line `stop`, one line later per blank or comment line
        stop = float("inf") if rows is None else lineno + max(rows, 0)
        chunk_end = lineno + _CHUNK_ROWS
        limit, short = min(chunk_end, stop), None
        for text, lineno in lines.numbered if stop > lineno else ():
            tokens = text.split()
            if not tokens or tokens[0][0] == "#":
                stop += 1
                limit = min(chunk_end, stop)
                continue
            kind = key or tokens[0]
            if kind == "f":
                if len(tokens) <= count:
                    short = lineno, f"face row without a count {tokens!r}"
                    break
                row = tokens[count + 1:]
                if not obj:
                    counts.append(tokens[count])
                spans.append(len(row))
                indices += row
                face_lines.append(lineno)
            elif kind == "v":
                if len(tokens) < width:
                    short = lineno, f"short vertex row {tokens!r}"
                    break
                xyz += get_xyz(tokens)
                if get_quality:
                    quality.append(get_quality(tokens))
                if get_rgb:
                    rgb += get_rgb(tokens)
                vertex_lines.append(lineno)
            if lineno >= limit:
                if lineno >= stop:
                    break
                self.flush()
                chunk_end = lineno + _CHUNK_ROWS
                limit = min(chunk_end, stop)
        else:
            if key and stop > lineno:
                short = lines.past_end(), "unexpected end of file"
        self.flush(short)
        return lineno

    def arrays(self):
        """(vertices (n, 3) float64, flat int64, sizes int64, quality float64
        or None, colors (n, 3) int64 or None) of all rows read."""
        self.flush()
        vertices, flat, sizes, quality, colors = (
            None if out is None else np.frombuffer(out, dtype=np.dtype(out.typecode))
            for out in (self._vertices, self._flat, self._sizes, self._quality, self._colors))
        return (vertices.reshape(-1, 3), flat, sizes, quality,
                None if colors is None else colors.reshape(-1, 3))

    def flush(self, short=None):
        """Convert and clear the pending rows. Raise ParseError on the first
        bad one, or else on `short`, a (line, message) after them."""
        bad = [e for e in (self._vertex_rows(), self._face_rows(), short) if e]
        if bad:
            line, message = min(bad, key=itemgetter(0))
            raise ParseError(message, self.path, line)
        self._vertex_total += len(self.vertex_lines)
        for column in (self.xyz, self.quality, self.rgb, self.vertex_lines,
                       self.counts, self.spans, self.indices, self.face_lines):
            column.clear()

    def _vertex_rows(self):
        """Convert the pending vertex rows; (line, message) of the first bad
        one, or None."""
        errors = []  # (row, message) of the first bad row of each column

        def column(tokens, dtype, width, what):
            values, bad = _parse(tokens, dtype)
            if bad is not None:
                row = bad // width
                errors.append((row, f"bad {what} {tokens[row * width:(row + 1) * width]!r}"))
            return values

        xyz = column(self.xyz, np.float64, 3, "vertex")
        if self._get_quality:
            quality = column(self.quality, np.float64, 1, "quality")
        if self._get_rgb:
            rgb = column(self.rgb, np.int64, 3, "color")
            outside = np.flatnonzero(((rgb < 0) | (rgb > 255)))
            if outside.size:
                errors.append((outside[0] // 3, "color outside 0..255"))
        if errors:
            row, message = min(errors, key=itemgetter(0))
            return self.vertex_lines[row], message
        self._vertices.frombytes(xyz.view(np.uint8))
        if self._get_quality:
            self._quality.frombytes(quality.view(np.uint8))
        if self._get_rgb:
            self._colors.frombytes(rgb.view(np.uint8))

    def _face_rows(self):
        """Convert the pending face rows; (line, message) of the first bad
        one, or None."""
        errors = []  # (row, message), in the order a per-row parse checks
        counts, bad = _parse(self.spans if self._obj else self.counts, np.int64)
        if bad is not None:
            errors.append((bad, f"bad index count {self.counts[bad]!r}"))
        spans = counts if self._obj else np.array(self.spans[:len(counts)], dtype=np.int64)
        short = np.flatnonzero((counts < 3) | (counts > spans))
        if short.size:
            row = short[0]
            errors.append((row, f"face with {counts[row]} indices" if counts[row] < 3
                           else f"face row short of its {counts[row]} indices"))
        rows = min(row for row, _ in errors) if errors else len(counts)  # good counts
        counts, spans = counts[:rows], spans[:rows]
        tokens = self.indices if rows == len(self.spans) else self.indices[:int(spans.sum())]
        if (counts != spans).any():  # columns after an index list are ignored
            ends = np.cumsum(spans)
            col = np.arange(len(tokens)) - np.repeat(ends - spans, spans)
            tokens = np.array(tokens, dtype=object)[col < np.repeat(counts, spans)]
        flat, bad = _parse(tokens, np.int64)
        if self._obj and bad is not None and "/" in tokens[bad]:
            tokens = [t.partition("/")[0] for t in tokens]
            flat, bad = _parse(tokens, np.int64)
        if bad is not None:
            errors.append((_row_of(counts, bad), f"bad face index {tokens[bad]!r}"))
        if self._obj:
            zero = np.flatnonzero(flat == 0)
            if zero.size:
                errors.append((_row_of(counts, zero[0]), "face index 0 is not valid"))
        if errors:
            row, message = min(errors, key=itemgetter(0))
            return self.face_lines[row], message
        if self._obj:
            negative = flat < 0  # counts back from the vertices read before its row
            if negative.any():
                seen = self._vertex_total + np.searchsorted(self.vertex_lines, self.face_lines)
                flat[negative] += np.repeat(seen, counts)[negative] + 1
            flat -= 1
        self._flat.frombytes(flat.view(np.uint8))
        self._sizes.frombytes(counts.view(np.uint8))


def _detect_format(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in _FORMATS:
        return suffix
    with _open(path) as fh:
        _, tokens = _Lines(fh).next_row()
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
    fanned = int(np.count_nonzero(sizes > 3))
    if fanned:
        first = np.cumsum(sizes) - sizes  # where each row starts in flat
        row = np.repeat(np.arange(len(sizes)), sizes - 2)  # each triangle's row
        second = np.arange(len(row)) + 2 * row + 1  # its second corner in flat
        tris = np.column_stack([flat[first[row]], flat[second], flat[second + 1]])
    else:  # triangles only: each row is its own fan
        tris = flat.reshape(-1, 3)
    a, b, c = tris.T
    keep = (a != b) & (b != c) & (c != a)
    dropped = len(tris) - int(np.count_nonzero(keep))
    if fanned:
        warnings.warn(f"{path}: fan-triangulated {fanned} non-triangle faces")
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} degenerate faces")
        tris = tris[keep]
    return tris


def _load_obj(path: Path):
    columns = _Columns(path, obj=True)
    columns.vertex_layout((1, 2, 3), 4)
    columns.face_layout(0)
    with _open(path) as fh:
        # vt/vn/vp/o/g/s/usemtl/mtllib/l and unknown keywords are skipped
        columns.route(_Lines(fh))
    return columns.arrays()


def _load_off(path: Path):
    with _open(path) as fh:
        lines = _Lines(fh)
        lineno, tokens = lines.next_row()
        if not tokens:
            raise ParseError("empty file", path, lineno)
        if tokens[0] not in _OFF_HEADERS:
            raise ParseError(f"missing OFF header, got {tokens[0]!r}", path, lineno)
        counts = tokens[1:]  # on the header line, or else on the next
        if not counts:
            lineno, counts = lines.next_row()
            if not counts:
                raise ParseError("missing vertex/face counts", path, lineno)
        try:
            n_vert, n_face = int(counts[0]), int(counts[1])
        except (ValueError, IndexError):
            raise ParseError(f"bad count line {counts!r}", path, lineno)
        columns = _Columns(path)
        columns.vertex_layout((0, 1, 2), 3)
        columns.face_layout(0)
        lineno = columns.route(lines, "v", n_vert, lineno)
        columns.route(lines, "f", n_face, lineno)
    return columns.arrays()


def _load_ply(path: Path):
    with _open(path) as fh:
        lines = _Lines(fh)
        elements, lineno = _ply_header(lines, path)
        columns = _Columns(path)
        for name, rows, props in elements:
            kinds = [kind for kind, _ in props]
            if name == "vertex":
                names = [p[1] for p in props]
                if not all(c in names for c in "xyz"):
                    raise ParseError("vertex element lacks x/y/z", path, lineno)
                rgb = ("red", "green", "blue")
                columns.vertex_layout(
                    [names.index(c) for c in "xyz"], len(names),
                    names.index("quality") if "quality" in names else None,
                    [names.index(c) for c in rgb] if all(c in names for c in rgb) else None)
                lineno = columns.route(lines, "v", rows, lineno)
            elif name == "face":
                if "list" not in kinds:
                    raise ParseError("face element lacks a list property", path, lineno)
                # the list's count follows the scalars before it, one token each
                columns.face_layout(kinds.index("list"))
                lineno = columns.route(lines, "f", rows, lineno)
            else:
                for _ in range(rows):
                    lineno, _ = lines.next_row()
    return columns.arrays()


def _ply_header(lines, path):
    """The elements, each (name, count, [(kind, name)]) with kind 'scalar'
    or 'list', and the line of `end_header`."""
    lineno, tokens = lines.next_row()
    if (lineno, tokens) != (1, ["ply"]):
        raise ParseError("missing 'ply' magic", path, 1)
    elements = []
    fmt_seen = False
    while True:
        lineno, tokens = lines.next_row()
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
            name, _, props = elements[-1]
            if (name == "face" and kind == "list" and tokens[-1] == "vertex_indices"
                    and any(k == "list" for k, _ in props)):
                raise ParseError("vertex_indices after another list", path, lineno)
            props.append((kind, tokens[-1]))
        elif tokens[0] == "end_header":
            break
        else:
            raise ParseError(f"unknown header line {tokens!r}", path, lineno)
    if not fmt_seen:
        raise ParseError("missing format line", path, lineno)
    return elements, lineno


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
    if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
        raise FaceIndexError(f"{path}: face index out of range 0..{len(vertices) - 1}")
    mesh = TriangleMesh(vertices, faces)
    return mesh, quality, None if colors is None else colors.astype(np.uint8)


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
