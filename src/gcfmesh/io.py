"""ASCII OBJ / OFF / PLY readers and writers.

Headers come from `_Lines`, bodies from `_read_rows`, which alone counts
lines: it cuts pieces of whole lines into runs of one section and hands
each to `regular` (in bulk) or `route` (row by row). All three formats skip
blank and `#` lines and decode UTF-8 with undecodable bytes replaced. Faces
are fan-triangulated and triangles that repeat a vertex dropped, each with
a warning. A `COFF` file reads as OFF with its color columns ignored.
Writers emit LF line endings and full double precision. Only PLY carries
per-vertex attributes: a float `quality` channel and uchar colors.
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
    """The lines of an open text file `fh` as (text, lineno) pairs in
    `numbered`; `lineno` is the number of the last line read."""

    def __init__(self, fh):
        self.fh, self.lineno, self.numbered = fh, 0, zip(fh, count(1))

    def next_row(self):
        """The tokens of the next line not blank nor a `#` comment, or [] past the end."""
        for text, self.lineno in self.numbered:
            tokens = text.split()
            if tokens and tokens[0][0] != "#":
                return tokens
        self.lineno += 1
        return []


def _open(path):
    return open(path, "r", encoding="utf-8", errors="replace")


def _parse(tokens, dtype):
    """(values, bad): `tokens` converted by one np.array call, which applies Python's
    float() or int() to each, or the values before `bad`, the first that fails."""
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
    """The rows of `text`, `n` lines that each start with `f ` and hold no
    other `f`, as an (n, tokens a row) int64 array from one np.fromstring call
    with -1 for each `f`, which proves the rows alike; None unless they hold
    ASCII digits alone after it, none past int64 (read as 2**63 - 1)."""
    if text.encode().translate(None, b"0123456789 \nf"):
        return None
    rows = np.fromstring(text.replace("f", "-1"), sep=" ", dtype=np.int64)
    width = len(rows) // n
    if len(rows) != width * n or (rows[::width] != -1).any() or rows.max() >= 2**63 - 1:
        return None
    return rows.reshape(n, width)


def _row_of(sizes, i):
    """The row that holds item `i` of rows of `sizes` items laid end to end."""
    return int(np.searchsorted(np.cumsum(sizes), i, "right"))


class _Columns:
    """The vertex and face rows of one file as columns of tokens (x y z, quality,
    red green blue; a face's index count and indices) and of line numbers, which
    `route` fills a row at a time and `regular` from slices of one split. `flush`
    converts them and raises ParseError on the first bad row in file order."""

    def __init__(self, path, obj=False):
        """`obj`: OBJ faces: a count is the tokens after `f`, and an index is
        1-based, or negative to count back from the vertices read so far."""
        self.path, self._obj, self._width, self._layout = path, obj, 0, (None,) * 3
        # buffers that grow in place, so the load copies no whole column
        self._vertices, self._quality, self._colors = array("d"), None, None
        self._flat, self._sizes = array("q"), array("q")
        self._vertex_total = 0  # vertex rows flushed so far
        self.xyz, self.quality, self.rgb, self.vertex_lines = [], [], [], []
        self.counts, self.spans, self.indices, self.face_lines = [], [], [], []

    def vertex_layout(self, xyz, width, quality=None, rgb=None):
        """Vertex rows hold x, y, z (quality, colors) there, in `width` tokens or more."""
        self._layout, self._width = (xyz, None if quality is None else [quality], rgb), width
        self._quality = None if quality is None else array("d")
        self._colors = None if rgb is None else array("q")

    def route(self, lines, key, count):
        """Route the (text, lineno) lines of `lines.numbered` as `key` says ("v",
        "f", None for each row's first token, any other to skip them), flush,
        and return how many were blank or `#` comments. A face row holds its
        index count in column `count` (OBJ: the `f`), then the indices."""
        width = self._width
        get_xyz, get_quality, get_rgb = (at and itemgetter(*at) for at in self._layout)
        xyz, quality, rgb, vertex_lines = self.xyz, self.quality, self.rgb, self.vertex_lines
        counts, spans, indices, face_lines = self.counts, self.spans, self.indices, self.face_lines
        skipped, short = 0, None
        for text, lineno in lines.numbered:
            tokens = text.split()
            if not tokens or tokens[0][0] == "#":
                skipped += 1
                continue
            kind = key or tokens[0]
            if kind == "f":
                if len(tokens) <= count:
                    short = lineno, f"face row without a count {tokens!r}"
                    break
                counts.append(tokens[count])
                spans.append(len(tokens) - count - 1)
                indices += tokens[count + 1:]
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
        self.flush(short)
        return skipped

    def regular(self, first, text, n, kind, count, whole):
        """Route `text`, `n` lines from line `first` on, in bulk if they are rows
        of `kind` ("v" or "f") of one width, and say whether it did. OFF and
        PLY lines get `kind` in front as the key OBJ lines carry: each line
        must start with it, no other token be it, and one split hold it every
        `width` tokens, whose slices are the columns `route` would fill. A
        `whole` piece of triangles of ASCII digits converts by _digit_faces."""
        obj = self._obj
        if "#" in text or not obj and kind in text:  # comment lines go row by row
            return False
        if not obj:
            text = f"{kind} " + text.replace("\n", f"\n{kind} ")
        elif (text.count(kind) != n or not text.startswith(kind + " ")
                or text.count(f"\n{kind} ") != n - 1):
            return False
        shift = 0 if obj else 1  # the key's column in front of the row's
        at, base = count + shift, 1 - shift  # the count's column; the lowest index
        rows = _digit_faces(text, n) if kind == "f" and whole else None
        if (rows is not None and rows.shape[1] == at + 4 and rows[:, at + 1:].min() >= base
                and (obj or (rows[:, at] == 3).all())):  # triangles that need no check
            self._flat.frombytes((rows[:, at + 1:] - base).view(np.uint8))
            self._sizes.frombytes(np.full(n, 3, dtype=np.int64).view(np.uint8))
            return True
        tokens = text.split()
        width = len(tokens) // n
        short = width - shift < self._width if kind == "v" else width <= at
        if len(tokens) != width * n or tokens[::width].count(kind) != n or short:
            return False  # a short row is `route`'s to name

        def take(columns):  # these columns of every row, row by row
            if list(columns) == list(range(1, width)):  # no take follows: drop the keys
                del tokens[::width]
                return tokens
            out = [None] * (n * len(columns))
            for j, c in enumerate(columns):
                out[j::len(columns)] = tokens[c::width]
            return out

        if kind == "v":
            self.xyz, self.quality, self.rgb = (
                places and take([c + shift for c in places]) for places in self._layout)
            self.vertex_lines = range(first, first + n)
        else:
            self.counts, self.indices = take([at]), take(range(at + 1, width))
            self.spans = np.full(n, width - at - 1)
            self.face_lines = range(first, first + n)
        self.flush()
        return True

    def arrays(self):
        """(vertices (n, 3), flat, sizes, quality or None, colors or None)."""
        vertices, flat, sizes, quality, colors = (
            None if out is None else np.frombuffer(out, dtype=np.dtype(out.typecode))
            for out in (self._vertices, self._flat, self._sizes, self._quality, self._colors))
        return (vertices.reshape(-1, 3), flat, sizes, quality,
                None if colors is None else colors.reshape(-1, 3))

    def flush(self, short=None):
        """Convert and clear the pending rows. Raise ParseError on the first
        bad one, or else on `short`, a (line, message) after them."""
        bad = [e for e in (self.vertex_lines and self._vertex_rows(),
                           self.face_lines and self._face_rows(), short) if e]
        if bad:
            line, message = min(bad, key=itemgetter(0))
            raise ParseError(message, self.path, line)
        self._vertex_total += len(self.vertex_lines)
        self.xyz, self.quality, self.rgb, self.vertex_lines = [], [], [], []
        self.counts, self.spans, self.indices, self.face_lines = [], [], [], []

    def _vertex_rows(self):
        """Convert the pending vertex rows; (line, message) of the first bad, or None."""
        errors, converted = [], []  # (row, message) of the first bad row of each column
        for tokens, out, what in ((self.xyz, self._vertices, "vertex"),
                                  (self.quality, self._quality, "quality"),
                                  (self.rgb, self._colors, "color")):
            if out is not None:
                width = len(tokens) // len(self.vertex_lines)  # tokens a row
                values, bad = _parse(tokens, np.dtype(out.typecode))
                if bad is not None:
                    row = bad // width
                    errors.append((row, f"bad {what} {tokens[row * width:(row + 1) * width]!r}"))
                outside = np.flatnonzero((values < 0) | (values > 255)) if what == "color" else ()
                if len(outside):
                    errors.append((outside[0] // width, "color outside 0..255"))
                converted.append((out, values))
        if errors:
            row, message = min(errors, key=itemgetter(0))
            return self.vertex_lines[row], message
        for out, values in converted:
            out.frombytes(values.view(np.uint8))

    def _face_rows(self):
        """Convert the pending face rows; (line, message) of the first bad, or None."""
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
    """Whole lines of `fh` without their last newline, a piece per read of 8 *
    _CHUNK_ROWS characters; last, the rest if the file ends without one."""
    carry = ""
    for text in iter(partial(fh.read, 8 * _CHUNK_ROWS), ""):
        whole, newline, carry = (carry + text).rpartition("\n")
        if newline:
            yield whole
    if carry:
        yield carry


def _cut(text, key, rows):
    """(kind, head, n, tail): the first `n` lines of `text`, rows of `kind` if
    any, and the rest or None: in OBJ (`key` None) up to the first face row
    after vertex rows, else at most the section's `rows` lines left."""
    if key is None:  # a piece that ends in a vertex row is not cut
        kind, last = text[:1], text.rfind("\n") + 1
        cut = text.find("\nf ") if kind == "v" and not text.startswith("v ", last) else -1
        head, tail = (text, None) if cut < 0 else (text[:cut], text[cut + 1:])
        return kind, head, head.count("\n") + 1, tail
    n = text.count("\n") + 1
    if n <= rows:
        return key, text, n, None
    *head, tail = text.split("\n", rows)
    return key, "\n".join(head), rows, tail


def _read_rows(lines, columns, sections):
    """Read each section, (key, rows, count), from the pieces of `_whole_lines`,
    each `_cut` run by `regular` where it can, else by `route`, and count its
    lines. The file ending before vertex or face rows is a ParseError; skipped
    ones count on."""
    pieces, text, whole = _whole_lines(lines.fh), None, False
    for key, left, at in sections:
        while left:
            if text is None:
                text, whole = next(pieces, None), True
            if text is None:
                if key in ("v", "f"):
                    raise ParseError("unexpected end of file", columns.path, lines.lineno + 1)
                lines.lineno += left  # a skipped element's missing rows count on
                break
            kind, head, n, text = _cut(text, key, left)
            first, skipped = lines.lineno + 1, 0
            if kind not in ("v", "f") or not columns.regular(first, head, n, kind, at, whole):
                lines.numbered = zip(head.split("\n"), count(first))
                skipped = columns.route(lines, key, at)
            lines.lineno, left, whole = lines.lineno + n, left - n + skipped, False


def _load_obj(lines, columns):
    columns.vertex_layout((1, 2, 3), 4)
    # vt/vn/vp/o/g/s/usemtl/mtllib/l and unknown keywords are skipped
    return [(None, float("inf"), 0)]


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
    return [("v", n_vert, 0), ("f", n_face, 0)]


def _load_ply(lines, columns):
    """(key, rows, count) of each element once the rows before it are read."""
    path = columns.path
    if (lines.next_row(), lines.lineno) != (["ply"], 1):
        raise ParseError("missing 'ply' magic", path, 1)
    elements, fmt_seen = [], False  # each (name, count, [(kind, name)])
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
    for name, rows, props in elements:
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
        yield key, rows, count


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
        lines = _Lines(fh)
        _read_rows(lines, columns, _LOADERS[fmt](lines, columns))
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
