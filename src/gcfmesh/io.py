"""ASCII OBJ / OFF / PLY readers and writers.

Every reader takes its lines from `_Lines`, which decodes UTF-8 with
undecodable bytes replaced and skips blank and `#` lines in all three
formats. A reader routes each row's tokens into the columns of a `_Columns`,
which converts each column to a flat typed array (float64 coordinates and
quality, int64 colors and indices) once per chunk of rows; an OBJ chunk of
only `v x y z` and `f i j k` lines converts from one split, or if only
`f i j k` lines of ASCII digits from one np.fromstring call. Faces become a
CSR pair of flat indices and per-row sizes. Polygons are fan-triangulated
and triangles that repeat a vertex dropped, each with a warning, so loaded
meshes satisfy the TriangleMesh invariants. A `COFF` file reads as OFF with
its color columns ignored. Writers emit LF line endings and full double
precision. Only PLY carries optional per-vertex attributes: a float
`quality` scalar channel and uchar `red`/`green`/`blue` colors.
"""

from __future__ import annotations

import warnings
from array import array
from functools import partial
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
from .mesh import TriangleMesh

_FORMATS = ("obj", "off", "ply")
_OFF_HEADERS = ("OFF", "COFF")
_OBJ_KEYS = ("v", "f", "vn", "vt", "mtllib", "o", "g")
_CHUNK_ROWS = 4096


class _Lines:
    """The lines of an open text file `fh` as (text, lineno) pairs in `numbered`.

    A row is a line that is neither blank nor a `#` comment. `lineno` is the
    number of the last line read; a reader that runs out of lines sees empty
    rows, numbered on as readline would.
    """

    def __init__(self, fh):
        self.fh, self.lineno, self.numbered = fh, 0, zip(fh, count(1))

    def next_row(self):
        """The tokens of the next row, or [] past the end."""
        for text, self.lineno in self.numbered:
            tokens = text.split()
            if tokens and tokens[0][0] != "#":
                return tokens
        self.lineno += 1
        return []


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


def _digit_faces(text, n):
    """The indices of `text`, `n` OBJ rows `f i j k` of ASCII digits, from one
    np.fromstring call, which reads `f` (only the keys) as 0 and an index past
    int64 as 2**63 - 1; None unless they are 3 a row, each in 1..2**63 - 2."""
    if text.count("f") != n or text.encode().translate(None, b"0123456789 \nf"):
        return None
    rows = np.fromstring(text.replace("f", "0"), sep=" ", dtype=np.int64)
    if len(rows) != 4 * n or rows[::4].any():
        return None
    flat = rows.reshape(n, 4)[:, 1:].ravel()
    return flat if flat.min() >= 1 and flat.max() < 2**63 - 1 else None


def _row_of(sizes, i):
    """The row that holds item `i` of rows of `sizes` items laid end to end."""
    return int(np.searchsorted(np.cumsum(sizes), i, "right"))


class _Columns:
    """The vertex and face rows of one file, held as columns of tokens and
    converted to typed arrays one chunk of at most _CHUNK_ROWS rows at a time.

    `route` splits lines and appends the tokens a row needs (x y z, quality,
    red green blue; a face's index count and the indices after it) to one
    string list per column, and the row's line to another; a row too short
    for its columns ends the routing. `flush` converts each column with one
    np.array call, which applies Python's own float() or int() to each token,
    so the values are bitwise those of a per-token parse, and raises
    ParseError on the first bad row of either kind in file order. `regular`
    converts a chunk of OBJ rows from one split once it proves the rows regular.
    """

    def __init__(self, path, obj=False):
        """`obj`: OBJ rules for faces: a face's count is the number of tokens
        after `f`, and an index is 1-based, or negative to count back from
        the vertices read so far."""
        self.path, self._obj, self._width = path, obj, 0
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

    def route(self, lines, key=None, rows=None, count=0):
        """Route the next `rows` rows of `lines` (to the end if None), each a
        vertex row if `key` is "v", a face row if it is "f", skipped for any
        other key, and if `key` is None as its first token says; then flush.
        Face rows hold their index count in column `count`, then the indices;
        with `obj`, `count` is the column of the `f` key. A vertex or face
        section that the file ends before is a ParseError; the missing rows
        of a skipped one still count toward the lines after it."""
        obj, width, lineno = self._obj, self._width, lines.lineno
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
            if key in ("v", "f") and stop > lineno:
                short = lineno + 1, "unexpected end of file"
            elif key and stop > lineno:  # rows skipped past the end count on
                lineno = stop
        lines.lineno = lineno
        self.flush(short)

    def regular(self, text, lines):
        """Convert `text`, whole OBJ lines after `lines`, from one split and move `lines`
        past it if it is `v x y z` rows, then `f i j k` rows with indices >= 1. A key
        on every line, 4 tokens a line, a key every 4th and numbers between align rows;
        `f i j k` rows alone in ASCII digits convert from one np.fromstring call."""
        key = text[:2]
        if "/" in text or "#" in text or key not in ("v ", "f "):  # cheap checks first
            return False
        n = text.count("\n") + 1
        starts = text.count("\n" + key) + 1  # lines that start with `key`
        if key == "v " and starts < n:  # vertex rows, then face rows
            starts += text.count("\nf ")
        if starts != n:
            return False
        rows, xyz = 0, np.empty(0)
        flat = _digit_faces(text, n) if key == "f " else None
        if flat is None:
            tokens = text.split()
            rows = tokens[::4].count("v")  # vertex rows, which must come first
            if len(tokens) != 4 * n or tokens[4 * rows::4].count("f") != n - rows:
                return False
            del tokens[::4]
            try:
                xyz = np.array(tokens[:3 * rows], dtype=np.float64)
                flat = np.array(tokens[3 * rows:], dtype=np.int64)
            except (ValueError, OverflowError):
                return False
            if (flat <= 0).any():  # 0 is an error, and a negative index counts back
                return False
        for out, values in ((self._vertices, xyz), (self._flat, flat - 1),
                            (self._sizes, np.full(n - rows, 3, dtype=np.int64))):
            out.frombytes(values.view(np.uint8))
        self._vertex_total += rows
        lines.lineno += n
        return True

    def arrays(self):
        """(vertices (n, 3) float64, flat int64, sizes int64, quality float64
        or None, colors (n, 3) int64 or None) of all rows routed."""
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
        tokens = _Lines(fh).next_row()
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


def _whole_lines(fh):
    """Whole lines of `fh` without their last newline, one piece per read of 8 *
    _CHUNK_ROWS characters (at most _CHUNK_ROWS `v x y z` rows); last, the rest."""
    carry = ""
    for text in iter(partial(fh.read, 8 * _CHUNK_ROWS), ""):
        whole, newline, carry = (carry + text).rpartition("\n")
        if newline:
            yield whole
    yield carry


def _load_obj(lines, columns):
    columns.vertex_layout((1, 2, 3), 4)
    # vt/vn/vp/o/g/s/usemtl/mtllib/l and unknown keywords are skipped
    for text in _whole_lines(lines.fh):
        if not columns.regular(text, lines):
            lines.numbered = zip(text.split("\n"), count(lines.lineno + 1))
            columns.route(lines)


def _row_count(token):
    """The row count a header token gives; ValueError unless an integer >= 0."""
    rows = int(token)
    if rows < 0:
        raise ValueError(f"negative count {rows}")
    return rows


def _load_off(lines, columns):
    path, tokens = columns.path, lines.next_row()
    if not tokens:
        raise ParseError("empty file", path, lines.lineno)
    if tokens[0] not in _OFF_HEADERS:
        raise ParseError(f"missing OFF header, got {tokens[0]!r}", path, lines.lineno)
    counts = tokens[1:] or lines.next_row()  # on the header line, or else on the next
    if not counts:
        raise ParseError("missing vertex/face counts", path, lines.lineno)
    try:
        n_vert, n_face = _row_count(counts[0]), _row_count(counts[1])
    except (ValueError, IndexError):
        raise ParseError(f"bad count line {counts!r}", path, lines.lineno)
    columns.vertex_layout((0, 1, 2), 3)
    columns.route(lines, "v", n_vert)
    columns.route(lines, "f", n_face)


def _load_ply(lines, columns):
    path = columns.path
    for name, rows, props in _ply_header(lines, path):
        key, count = "skip", 0  # the rows of other elements are skipped
        if name == "vertex":
            names = [p[1] for p in props]
            if not all(c in names for c in "xyz"):
                raise ParseError("vertex element lacks x/y/z", path, lines.lineno)
            rgb = ("red", "green", "blue")
            columns.vertex_layout(
                [names.index(c) for c in "xyz"], len(names),
                names.index("quality") if "quality" in names else None,
                [names.index(c) for c in rgb] if all(c in names for c in rgb) else None)
            key = "v"
        elif name == "face":
            kinds = [kind for kind, _ in props]
            if "list" not in kinds:
                raise ParseError("face element lacks a list property", path, lines.lineno)
            # the list's count follows the scalars before it, one token each
            key, count = "f", kinds.index("list")
        columns.route(lines, key, rows, count)


def _ply_header(lines, path):
    """The elements, each (name, count, [(kind, name)]) with kind 'scalar'
    or 'list'; `lines` is left at `end_header`."""
    if (lines.next_row(), lines.lineno) != (["ply"], 1):
        raise ParseError("missing 'ply' magic", path, 1)
    elements, fmt_seen = [], False
    while True:
        tokens, lineno = lines.next_row(), lines.lineno
        if not tokens:
            raise ParseError("unexpected end of header", path, lineno)
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] != "ascii":
                raise UnsupportedFormat(f"{path}: only ASCII PLY is supported")
            fmt_seen = True
        elif tokens[0] == "element":
            try:
                elements.append((tokens[1], _row_count(tokens[2]), []))
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
        elif tokens[0] != "comment":
            raise ParseError(f"unknown header line {tokens!r}", path, lineno)
    if not fmt_seen:
        raise ParseError("missing format line", path, lineno)
    return elements


_LOADERS = {"obj": _load_obj, "off": _load_off, "ply": _load_ply}


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
    columns = _Columns(path, obj=fmt == "obj")
    with _open(path) as fh:
        _LOADERS[fmt](_Lines(fh), columns)
    vertices, flat, sizes, quality, colors = columns.arrays()
    faces = _fan_triangulate(flat, sizes, path)
    del columns, flat, sizes  # free the index counts before the mesh checks
    if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
        raise FaceIndexError(f"{path}: face index out of range 0..{len(vertices) - 1}")
    mesh = TriangleMesh(vertices, faces)
    return mesh, quality, None if colors is None else colors.astype(np.uint8)


def _write_rows(fh, template, columns, base=0):
    """Write `template % row` + newline for each row of `columns` side by side
    (plus `base`), _CHUNK_ROWS rows per write so no copy grows with n."""
    line = template + "\n"
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = np.column_stack([c[lo:lo + _CHUNK_ROWS] for c in columns])
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
