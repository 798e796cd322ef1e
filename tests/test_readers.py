"""The columnar readers against the per-line reference in `line_reader.py`,
plus the cases where the two differ on purpose and the error order across
columns and chunks."""

import functools
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import gcfmesh as g
import line_reader
from gcfmesh import TriangleMesh, load_mesh, load_mesh_attributes, save_mesh
from gcfmesh.errors import FaceIndexError, ParseError
from gcfmesh.io import _CHUNK_ROWS

from conftest import random_meshes


def _bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes())


def _outcome(load, path):
    """What `load(path)` returns, as comparable bits, or the class and line
    of what it raises; with the warnings it gave either way."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            mesh, quality, colors = load(path)
            result = ("ok", _bits(mesh.vertices), _bits(mesh.faces),
                      _bits(quality), _bits(colors))
        except Exception as err:  # the class is what is compared
            result = ("raised", type(err), getattr(err, "line", None))
    return result, [str(w.message) for w in record]


def _strip(rows, seed):
    """A triangle strip with vertex and face rows adding up to `rows`."""
    n = (rows + 3) // 2
    rng = np.random.Generator(np.random.PCG64(seed))
    faces = [(i, i + 1, i + 2) for i in range(rows - n)]
    return TriangleMesh(rng.standard_normal((n, 3)), faces)


@functools.cache
def _base_files():
    """(suffix, text) of every save of random_meshes() in each format, PLY
    with and without quality and colors, and of strips of 4095, 4096 and
    4097 rows around the chunk size."""
    meshes = random_meshes() + [_strip(r, r) for r in (4095, 4096, 4097)]
    files = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp)
        for k, mesh in enumerate(meshes):
            rng = np.random.Generator(np.random.PCG64(k))
            quality = rng.standard_normal(mesh.vertex_count)
            colors = rng.integers(0, 256, (mesh.vertex_count, 3))
            variants = [("obj", {}), ("off", {}), ("ply", {}),
                        ("ply", {"scalars": quality}), ("ply", {"colors": colors}),
                        ("ply", {"scalars": quality, "colors": colors})]
            for fmt, extra in variants:
                save_mesh(mesh, path / f"m.{fmt}", **extra)
                files.append((fmt, (path / f"m.{fmt}").read_text()))
    return files


# Tokens a mutation writes: numbers of every kind Python's float() and int()
# accept or reject, indices out of range, and junk.
_TOKENS = ["", "x", "#", "0", "1", "2", "3", "4", "-1", "-3", "-0", "2.5",
           "1e400", "nan", "-inf", "256", "1/2", "3//1", "/2", "1_0", "٣",
           "�", str(2**64), str(2**63 - 1), str(-2**63), "0x10"]
_LINES = ["", "   ", "#", "# note", "\t"]


@st.composite
def _mutated(draw):
    suffix, text = draw(st.sampled_from(_base_files()))
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 3))):
        edges = [i for i in range(_CHUNK_ROWS - 2, _CHUNK_ROWS + 2) if i < len(lines)]
        i = draw(st.integers(0, len(lines) - 1) | st.sampled_from(edges or [0]))
        tokens = lines[i].split(" ")
        j = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["delete", "duplicate", "insert line",
                                   "replace", "delete token", "insert token"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "insert line":
            lines.insert(i, draw(st.sampled_from(_LINES)))
        elif op == "replace":
            tokens[min(j, len(tokens) - 1)] = draw(st.sampled_from(_TOKENS))
        elif op == "delete token":
            del tokens[min(j, len(tokens) - 1)]
        else:
            tokens.insert(j, draw(st.sampled_from(_TOKENS)))
        if op in ("replace", "delete token", "insert token"):
            lines[i] = " ".join(tokens)
        if not lines:
            lines = [""]
    return suffix, "\n".join(lines)


def _mended(suffix, text):
    """Whether `text` is one of the inputs the readers now read differently
    from the reference, or one on which both would run for ever."""
    rows = [t for t in (line.split() for line in text.split("\n"))
            if t and not t[0].startswith("#")]
    if suffix == "off":
        if rows and 2 <= len(rows[0]) <= 3:
            return True
        counts = rows[0][1:3] if rows and len(rows[0]) > 3 else (rows + [[], []])[1][:2]
        try:
            return min(map(int, counts)) < 0  # the reference reads no rows for it
        except ValueError:
            return False
    if suffix != "ply":
        return False
    element = None
    for tokens in rows[1:]:
        if tokens[0] == "end_header":
            break
        if tokens[0] == "element" and len(tokens) > 2:
            element = [tokens[1], []]
            try:
                if int(tokens[2]) < 0:
                    return True  # the reference reads no rows for it
                if tokens[1] not in ("vertex", "face") and int(tokens[2]) > 10**6:
                    return True  # skipping past the end takes that many rows
            except ValueError:
                pass
        elif tokens[0] == "property" and len(tokens) > 2 and element:
            element[1].append(tokens[1] == "list")
            kinds = element[1]
            if element[0] == "face" and kinds[-1] and (not kinds[0] or kinds.count(True) > 1):
                return True
    return False


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=_mutated())
def test_columnar_readers_match_line_reader(tmp_path, case):
    suffix, text = case
    assume(not _mended(suffix, text))
    path = tmp_path / f"m.{suffix}"
    path.write_text(text)
    assert _outcome(load_mesh_attributes, path) == _outcome(
        line_reader.load_mesh_attributes, path)


def test_multi_chunk_files_match_line_reader(tmp_path):
    mesh = g.cylinder(160, 156)  # 25k vertices, about 19 chunks of rows
    mesh = g.add_noise(mesh, g.build_topology(mesh), g.NoiseConfig(0.01, seed=3))
    rng = np.random.Generator(np.random.PCG64(5))
    extra = {"scalars": rng.standard_normal(mesh.vertex_count),
             "colors": rng.integers(0, 256, (mesh.vertex_count, 3))}
    for fmt in ("obj", "off", "ply"):
        path = tmp_path / f"big.{fmt}"
        save_mesh(mesh, path, **(extra if fmt == "ply" else {}))
        result, record = _outcome(load_mesh_attributes, path)
        assert result[0] == "ok"
        assert (result, record) == _outcome(line_reader.load_mesh_attributes, path)


# --- Where the readers differ from the reference on purpose -----------------

_PLY_SQUARE = ("ply\nformat ascii 1.0\nelement vertex 4\nproperty double x\n"
               "property double y\nproperty double z\nelement face 2\n{}"
               "end_header\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n{}")


def test_ply_face_count_follows_scalars_before_the_list(tmp_path):
    p = tmp_path / "flags.ply"
    p.write_text(_PLY_SQUARE.format(
        "property uchar flags\nproperty list uchar int vertex_indices\n",
        "3 3 0 1 2\n3 3 1 3 2\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_mesh(p).faces.tolist() == [[0, 1, 2], [1, 3, 2]]
    with pytest.warns(UserWarning, match="dropped 1 degenerate faces"):
        mesh, _, _ = line_reader.load_mesh_attributes(p)
    assert mesh.faces.tolist() == [[3, 0, 1]]


def test_ply_vertex_indices_after_another_list_is_parse_error(tmp_path):
    p = tmp_path / "lists.ply"
    p.write_text(_PLY_SQUARE.format(
        "property list uchar float texcoord\nproperty list uchar int vertex_indices\n",
        "2 0 0 3 0 1 2\n2 0 0 3 1 3 2\n"))
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == 9


def test_off_counts_on_the_header_line(tmp_path):
    p = tmp_path / "head.off"
    p.write_text("OFF 3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    mesh = load_mesh(p)
    assert (mesh.vertex_count, mesh.faces.tolist()) == (3, [[0, 1, 2]])
    reference, _, _ = line_reader.load_mesh_attributes(p)
    assert (reference.vertex_count, reference.face_count) == (0, 0)


def test_off_header_with_one_count_is_parse_error(tmp_path):
    p = tmp_path / "one.off"
    p.write_text("OFF 3\n1 0 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == 1


@pytest.mark.parametrize("index", [2**63, -2**63 - 1])
def test_obj_index_outside_int64_is_parse_error(tmp_path, index):
    p = tmp_path / "huge.obj"
    p.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 {index}\n")
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == 4
    with pytest.raises(FaceIndexError):
        line_reader.load_mesh_attributes(p)


_TRIANGLE_ROWS = "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


@pytest.mark.parametrize("text, line", [
    ("OFF\n3 -1 0\n" + _TRIANGLE_ROWS, 2),
    ("OFF\n-3 1 0\n" + _TRIANGLE_ROWS, 2),
    ("OFF 3 -1 0\n" + _TRIANGLE_ROWS, 1),
    (_PLY_SQUARE.replace("face 2", "face -1").format(
        "property list uchar int vertex_indices\n", "3 0 1 2\n"), 7),
    (_PLY_SQUARE.replace("vertex 4", "vertex -4").format(
        "property list uchar int vertex_indices\n", "3 0 1 2\n"), 3),
], ids=["off-faces", "off-vertices", "off-header-line", "ply-faces", "ply-vertices"])
def test_negative_count_is_parse_error_on_its_line(tmp_path, text, line):
    p = tmp_path / ("m.ply" if text.startswith("ply") else "m.off")
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == line
    assert _outcome(load_mesh_attributes, p) != _outcome(line_reader.load_mesh_attributes, p)


def test_negative_face_count_dropped_the_faces_in_the_reference(tmp_path):
    p = tmp_path / "m.off"
    p.write_text("OFF\n3 -1 0\n" + _TRIANGLE_ROWS)
    mesh, _, _ = line_reader.load_mesh_attributes(p)
    assert (mesh.vertex_count, mesh.face_count) == (3, 0)


# --- Error order across columns and chunks ----------------------------------

_PLY_HEAD = ("ply\nformat ascii 1.0\nelement vertex {}\nproperty double x\n"
             "property double y\nproperty double z\nelement face {}\n"
             "property list uchar int vertex_indices\nend_header\n")
_HEAD_LINES = {"obj": 0, "off": 2, "ply": 9}


def _text(fmt, vertices, faces):
    """A file of `vertices` rows ("x y z") then `faces` rows ("k i j ..")."""
    if fmt == "obj":
        return "".join(f"v {v}\n" for v in vertices) + "".join(
            "f " + " ".join(str(int(i) + 1) for i in f.split()[1:]) + "\n" for f in faces)
    head = (f"OFF\n{len(vertices)} {len(faces)} 0\n" if fmt == "off"
            else _PLY_HEAD.format(len(vertices), len(faces)))
    return head + "".join(f"{row}\n" for row in vertices + faces)


@pytest.mark.parametrize("fmt", ["obj", "off", "ply"])
def test_bad_vertex_before_short_face_reports_the_vertex(tmp_path, fmt):
    vertices = ["0 0 0", "0 nope 0", "1 0 0", "0 1 0"]  # then the face, on line 5 in OBJ
    p = tmp_path / f"m.{fmt}"
    p.write_text(_text(fmt, vertices, ["2 0 2"]))
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == _HEAD_LINES[fmt] + 2


@pytest.mark.parametrize("fmt", ["obj", "off", "ply"])
def test_bad_vertex_before_missing_rows_reports_the_vertex(tmp_path, fmt):
    text = _text(fmt, ["0 0 0", "1 nope 0", "0 1 0"], ["3 0 1 2"])
    cut = text.split("\n")[:_HEAD_LINES[fmt] + 2]  # the file ends after the bad row
    p = tmp_path / f"m.{fmt}"
    p.write_text("\n".join(cut) + "\n")
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == _HEAD_LINES[fmt] + 2


def test_short_face_before_bad_vertex_reports_the_face(tmp_path):
    p = tmp_path / "m.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\nv nope 0 0\n")
    with pytest.raises(ParseError, match="face with 2 indices") as err:
        load_mesh(p)
    assert err.value.line == 4
    q = tmp_path / "m.ply"
    q.write_text("ply\nformat ascii 1.0\nelement face 1\n"
                 "property list uchar int vertex_indices\nelement vertex 2\n"
                 "property double x\nproperty double y\nproperty double z\n"
                 "end_header\n2 0 1\n0 0 0\n0 nope 0\n")
    with pytest.raises(ParseError, match="face with 2 indices") as err:
        load_mesh(q)
    assert err.value.line == 10


@pytest.mark.parametrize("fmt", ["obj", "off", "ply"])
@pytest.mark.parametrize("row", [0, _CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS - 1])
@pytest.mark.parametrize("kind", ["vertex", "face"])
def test_bad_token_at_a_chunk_edge_reports_its_line(tmp_path, fmt, row, kind):
    # Each element starts a chunk, and in OBJ the faces start on line 2 * C + 1,
    # so rows 0, C - 1, C and 2 * C - 1 of either kind begin or end a chunk.
    n = 2 * _CHUNK_ROWS
    vertices = [f"{i} {i % 7} 0.5" for i in range(n)]
    faces = [f"3 {i} {(i + 1) % n} {(i + 2) % n}" for i in range(n)]
    line = _HEAD_LINES[fmt] + row + (n if kind == "face" else 0)
    lines = _text(fmt, vertices, faces).split("\n")
    lines[line] += "x"
    p = tmp_path / f"m.{fmt}"
    p.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == line + 1


# --- PLY elements the readers skip ------------------------------------------

_SQUARE_FACES = "property list uchar int vertex_indices\n"


def test_ply_rows_declared_past_the_end_are_not_read_one_by_one(tmp_path):
    plain, extra = tmp_path / "plain.ply", tmp_path / "extra.ply"
    save_mesh(g.icosphere(1), plain)
    extra.write_text(plain.read_text().replace(
        "end_header", "element extra 10000000\nproperty double w\nend_header"))
    start = time.perf_counter()
    result = _outcome(load_mesh_attributes, extra)
    assert time.perf_counter() - start < 1.0
    assert result == _outcome(load_mesh_attributes, plain)


def test_ply_skipped_element_counts_its_missing_rows(tmp_path):
    p = tmp_path / "x.ply"
    p.write_text(_PLY_SQUARE.format(_SQUARE_FACES, "3 0 1 2\n3 1 3 2\n").replace(
        "element vertex 4", "element x 256"))
    with pytest.raises(ParseError, match="unexpected end of file") as err:
        load_mesh(p)
    assert err.value.line == 266  # 9 header lines, 256 skipped rows, then the faces
    assert _outcome(load_mesh_attributes, p) == _outcome(line_reader.load_mesh_attributes, p)


def test_ply_skipped_last_element_cut_short_still_loads(tmp_path):
    p = tmp_path / "cut.ply"
    p.write_text(_PLY_SQUARE.format(
        _SQUARE_FACES + "element extra 5\nproperty double w\n", "3 0 1 2\n3 1 3 2\n1.5\n"))
    assert load_mesh(p).faces.tolist() == [[0, 1, 2], [1, 3, 2]]
    assert _outcome(load_mesh_attributes, p) == _outcome(line_reader.load_mesh_attributes, p)


# --- OBJ chunks converted from one split ------------------------------------

_READ = 8 * _CHUNK_ROWS  # characters per read of an OBJ file


@functools.cache
def _regular_obj_files():
    """(lines, edges) of the OBJ saves of random_meshes(), of strips of
    4095, 4096 and 4097 rows and of a grid, whose integer coordinates also
    convert as indices. `edges` are the lines next to a read boundary, to
    the first face row and to row _CHUNK_ROWS."""
    files = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.obj"
        strips = [_strip(r, r) for r in (4095, 4096, 4097)]
        for mesh in random_meshes() + strips + [g.grid(40)]:
            save_mesh(mesh, path)
            lines = path.read_text().split("\n")[:-1]
            starts = np.cumsum([0] + [len(line) + 1 for line in lines])
            near = [int(np.searchsorted(starts, k * _READ, "right")) - 1
                    for k in range(1, int(starts[-1]) // _READ + 1)]
            near += [_CHUNK_ROWS, sum(line.startswith("v ") for line in lines)]
            edges = sorted({i + d for i in near for d in (-1, 0, 1)
                            if 0 <= i + d < len(lines)})
            files.append((lines, edges or [0]))
    return files


_SEPARATORS = ["\t", "  ", "\x1c", "\x0b", "\x0c", "\xa0", " ", "\x85"]


@st.composite
def _irregular_obj(draw):
    """A regular OBJ save with up to three of: a token moved to the next
    row, `v` or `f` inserted as a value, an odd separator, a row moved
    elsewhere (interleaving `v` and `f` rows) and a negative index; then
    LF or CRLF endings, with or without the final one, and perhaps a
    leading comment."""
    lines, edges = draw(st.sampled_from(_regular_obj_files()))
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        i = min(draw(st.sampled_from(edges) | st.integers(0, len(lines) - 1)), len(lines) - 1)
        tokens = lines[i].split(" ")
        op = draw(st.sampled_from(["move token", "insert key", "separator",
                                   "move row", "negative index"]))
        if op == "move token" and i + 1 < len(lines) and tokens:
            moved = tokens.pop(draw(st.integers(0, len(tokens) - 1)))
            after = lines[i + 1].split(" ")
            after.insert(draw(st.integers(0, len(after))), moved)
            lines[i + 1] = " ".join(after)
        elif op == "insert key":
            tokens.insert(draw(st.integers(1, max(len(tokens), 1))), draw(st.sampled_from("vf")))
        elif op == "separator" and len(tokens) > 1:
            j = draw(st.integers(1, len(tokens) - 1))
            tokens[j - 1:j + 1] = [tokens[j - 1] + draw(st.sampled_from(_SEPARATORS)) + tokens[j]]
        elif op == "move row":
            lines.insert(draw(st.integers(0, len(lines))), lines.pop(i))
            continue
        elif op == "negative index" and tokens[0] == "f" and len(tokens) > 1:
            tokens[draw(st.integers(1, len(tokens) - 1))] = str(-draw(st.integers(1, 4)))
        lines[i] = " ".join(tokens)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return ("# comment" + end if draw(st.booleans()) else "") + text


def _same_outcome(path, text):
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_mesh_attributes, path) == _outcome(
        line_reader.load_mesh_attributes, path)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow, HealthCheck.data_too_large])
@given(text=_irregular_obj())
def test_obj_chunks_read_as_the_line_reader(tmp_path, text):
    _same_outcome(tmp_path / "m.obj", text)


@pytest.mark.parametrize("text", [
    "v 1 2 3 f\n5 6 7\n",  # as many tokens as 2 rows, but line 2 has no key
    "v 1 2 3 v\nv 1 2\nv\n",  # keys every 4th token, but line 2 is short
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 v\nf 1 2\n",
    "v 0 0 0\nv 1 0 0\nf 1 2 3\nv 3 2 1\n",  # a face before the last vertex
    "v 0 0 0 1\nv 2 3 1 0 0\nv 0 1 0\n",  # extra values, four tokens a line on average
    "v 0 0 0 1 2 3 4\nv 1 0 0\nv 0 1 0\nf\nf\n",
    "v 1 2 3 4 5 6 7\nv 1 1 1\nv 2 2 2\nf 1 2 3\n",  # 4k + 4 tokens, keys on 4k but one
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n",  # 4k - 1 tokens
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 0\n",
])
def test_misaligned_obj_chunks_read_as_the_line_reader(tmp_path, text):
    _same_outcome(tmp_path / "m.obj", text)


def test_regular_obj_chunks_skip_the_row_router(tmp_path, monkeypatch):
    """A save is regular in every read, even one that ends mid-row, so no
    row of it reaches `_Columns.route`."""
    import gcfmesh.io

    mesh = _strip(3 * _CHUNK_ROWS + 5, 0)
    path = tmp_path / "strip.obj"
    save_mesh(mesh, path)
    routed = []
    monkeypatch.setattr(gcfmesh.io._Columns, "route", lambda self, lines, *args:
                        routed.extend(text for text, _ in lines.numbered if text.strip()))
    loaded = load_mesh(path)
    assert routed == []
    assert _bits(loaded.vertices) == _bits(mesh.vertices)
    assert _bits(loaded.faces) == _bits(mesh.faces)


# --- OBJ face pieces converted by np.fromstring ------------------------------

@functools.cache
def _face_run_obj():
    """(lines, edges) of an OBJ save of 2,000 vertices and 12,000 random
    faces, whose face rows span several reads. `edges` are the face lines
    next to a read boundary."""
    rng = np.random.Generator(np.random.PCG64(11))
    faces = rng.integers(0, 2000, (15000, 3))
    faces = faces[(faces[:, 0] != faces[:, 1]) & (faces[:, 1] != faces[:, 2])
                  & (faces[:, 2] != faces[:, 0])][:12000]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.obj"
        save_mesh(TriangleMesh(rng.standard_normal((2000, 3)), faces), path)
        lines = path.read_text().split("\n")[:-1]
    starts = np.cumsum([0] + [len(line) + 1 for line in lines])
    near = [int(np.searchsorted(starts, k * _READ, "right")) - 1
            for k in range(1, int(starts[-1]) // _READ + 1)]
    edges = sorted({i + d for i in near for d in (-1, 0) if lines[i + d].startswith("f ")})
    assert len(edges) >= 8  # the face rows span at least four read boundaries
    return lines, edges


_UNICODE_DIGITS = ["٣", "३", "３", "𝟕"]
_LONG_INDICES = [str(2**63 - 1), str(2**63 - 2), "0" + str(2**63 - 1), str(10**18),
                 "0" * 19 + "7"]


@st.composite
def _face_run_mutated(draw):
    """The face-run save with up to three face-row changes, each read by
    int() as by the line reader, and most refused by the np.fromstring
    parse: a `+` sign, leading zeros, a `_`, a non-ASCII digit, a double
    space, a 19- or 20-digit index, a 0 index or an `f` after an index."""
    lines, edges = _face_run_obj()
    lines = list(lines)
    faces = [i for i, line in enumerate(lines) if line.startswith("f ")]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.sampled_from(edges) | st.sampled_from(faces))
        tokens = lines[i].split(" ")
        j = draw(st.integers(1, 3))
        op = draw(st.sampled_from(["plus", "zeros", "underscore", "unicode digit",
                                   "double space", "long index", "zero index",
                                   "key letter"]))
        if op == "plus":
            tokens[j] = "+" + tokens[j]
        elif op == "zeros":
            tokens[j] = "0" * draw(st.integers(1, 3)) + tokens[j]
        elif op == "underscore" and len(tokens[j]) > 1:
            tokens[j] = tokens[j][0] + "_" + tokens[j][1:]
        elif op == "unicode digit" and tokens[j]:
            k = draw(st.integers(0, len(tokens[j]) - 1))
            tokens[j] = tokens[j][:k] + draw(st.sampled_from(_UNICODE_DIGITS)) + tokens[j][k + 1:]
        elif op == "double space":
            tokens[j] = " " + tokens[j]
        elif op == "long index":
            tokens[j] = draw(st.sampled_from(_LONG_INDICES))
        elif op == "zero index":
            tokens[j] = "0"
        elif op == "key letter":
            tokens[j] = tokens[j] + "f"
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow, HealthCheck.data_too_large])
@given(text=_face_run_mutated())
def test_face_runs_over_several_reads_read_as_the_line_reader(tmp_path, text):
    _same_outcome(tmp_path / "m.obj", text)


@pytest.mark.parametrize("bad", ["x", "99999999999999999999"])
def test_bad_face_token_at_a_read_edge_reports_its_line(tmp_path, bad):
    """A bad token in the last face row of a read or in the first of the
    next, where the pieces split: a letter after an index, or an index past
    int64 that np.fromstring would read as 2**63 - 1."""
    lines, edges = _face_run_obj()
    path = tmp_path / "m.obj"
    for i in edges:
        tokens = lines[i].split(" ")
        tokens[-1] = tokens[-1] + bad if bad == "x" else bad
        path.write_text("\n".join(lines[:i] + [" ".join(tokens)] + lines[i + 1:]) + "\n")
        with pytest.raises(ParseError) as err:
            load_mesh(path)
        assert err.value.line == i + 1
        if bad == "x":
            assert _outcome(load_mesh_attributes, path) == _outcome(
                line_reader.load_mesh_attributes, path)


def test_saved_face_pieces_skip_the_split_conversion(tmp_path, monkeypatch):
    """Every piece of a save that holds face rows alone converts from one
    np.fromstring call, so none of them reaches the split conversion."""
    import gcfmesh.io

    mesh = _strip(3 * _CHUNK_ROWS + 5, 0)
    path = tmp_path / "strip.obj"
    save_mesh(mesh, path)
    with open(path) as fh:
        face_pieces = sum(text.startswith("f ") for text in gcfmesh.io._whole_lines(fh))
    convert, converted = gcfmesh.io._digit_faces, []
    monkeypatch.setattr(gcfmesh.io, "_digit_faces", lambda text, n:
                        converted.append(convert(text, n)) or converted[-1])
    loaded = load_mesh(path)
    assert face_pieces >= 3 and len(converted) == face_pieces
    assert all(flat is not None for flat in converted)
    assert _bits(loaded.vertices) == _bits(mesh.vertices)
    assert _bits(loaded.faces) == _bits(mesh.faces)


# --- OFF and PLY pieces routed in bulk --------------------------------------

def _piece_ends(path, header_lines):
    """The last line of each piece `_whole_lines` reads from `path` after
    its first `header_lines` lines, as the readers read them."""
    import gcfmesh.io

    ends = [header_lines]
    with open(path) as fh:
        for _ in range(header_lines):
            next(fh)
        for text in gcfmesh.io._whole_lines(fh):
            ends.append(ends[-1] + text.count("\n") + 1)
    return ends[1:]


def test_saved_off_and_ply_files_skip_the_row_router(tmp_path, monkeypatch):
    """Saves of every format, PLY with quality and colors too, are regular in
    every read, so no row of them reaches `_Columns.route`."""
    import gcfmesh.io

    mesh = _strip(3 * _CHUNK_ROWS + 5, 0)
    rng = np.random.Generator(np.random.PCG64(1))
    quality = rng.standard_normal(mesh.vertex_count)
    colors = rng.integers(0, 256, (mesh.vertex_count, 3))
    routed = []
    monkeypatch.setattr(gcfmesh.io._Columns, "route", lambda self, lines, *args:
                        routed.extend(text for text, _ in lines.numbered if text.strip()))
    for name, extra in [("m.off", {}), ("m.ply", {}),
                        ("q.ply", {"scalars": quality, "colors": colors})]:
        path = tmp_path / name
        save_mesh(mesh, path, **extra)
        lines = path.read_text().split("\n")
        head = lines.index("end_header") + 1 if name.endswith("ply") else 2
        assert len(_piece_ends(path, head)) >= 4  # the rows span several reads
        loaded, q, c = load_mesh_attributes(path)
        assert routed == []
        assert _bits(loaded.vertices) == _bits(mesh.vertices)
        assert _bits(loaded.faces) == _bits(mesh.faces)
        if extra:
            assert _bits(q) == _bits(quality)
            assert _bits(c) == _bits(colors.astype(np.uint8))


@functools.cache
def _piece_base_files():
    """(suffix, lines, header lines, edges) of OFF, COFF and PLY saves of a
    strip of 4001 vertices and 3999 faces, PLY plain and with quality and
    colors. `edges` are the lines next to a read boundary or to the first
    face row."""
    mesh = _strip(8000, 8)
    rng = np.random.Generator(np.random.PCG64(9))
    extra = {"scalars": rng.standard_normal(mesh.vertex_count),
             "colors": rng.integers(0, 256, (mesh.vertex_count, 3))}
    files = []
    with tempfile.TemporaryDirectory() as tmp:
        for suffix, kwargs in [("off", {}), ("coff", {}), ("ply", {}), ("ply", extra)]:
            path = Path(tmp) / f"m.{suffix[-3:]}"
            save_mesh(mesh, path, **kwargs)
            lines = path.read_text().split("\n")[:-1]
            head = lines.index("end_header") + 1 if suffix == "ply" else 2
            if suffix == "coff":  # RGBA after each vertex, which the readers ignore
                lines[0] = "COFF"
                for i in range(head, head + mesh.vertex_count):
                    lines[i] += f" {i % 256} 0.5 1 1"
                path.write_text("\n".join(lines) + "\n")
            near = _piece_ends(path, head) + [head + mesh.vertex_count]
            edges = sorted({i + d for i in near for d in (-1, 0, 1)
                            if head <= i + d < len(lines)})
            files.append((suffix[-3:], lines, head, edges))
    return files


@st.composite
def _piece_mutated(draw):
    """A multi-piece OFF, COFF or PLY save with up to three row changes near
    a read edge or the first face row (a comment or blank line, a row
    commented out, a tab, a token more or less, a polygon, another index
    count, a bad token, the file cut there), perhaps a skipped PLY element
    between the vertex and face rows or a scalar before the face list, and
    LF or CRLF line endings."""
    suffix, lines, head, edges = draw(st.sampled_from(_piece_base_files()))
    lines = list(lines)
    if suffix == "ply" and draw(st.booleans()):
        rows = draw(st.integers(1, 40))
        vertices = int(lines[2].split()[-1])  # `element vertex n`
        at = next(i for i, line in enumerate(lines) if line.startswith("element face"))
        lines[at:at] = [f"element extra {rows}", "property double w"]
        lines[head + 2 + vertices:head + 2 + vertices] = [f"{k / 4}" for k in range(rows)]
        head += 2
        edges = [i + 2 for i in edges]
    if suffix == "ply" and draw(st.booleans()):
        at = lines.index("property list uchar int vertex_indices")
        lines.insert(at, "property uchar flags")
        for i in range(lines.index("end_header") + 1, len(lines)):
            if lines[i].startswith("3 ") and len(lines[i].split()) == 4:
                lines[i] = "7 " + lines[i]
        head += 1
        edges = [i + 1 for i in edges]
    for _ in range(draw(st.integers(0, 3))):
        i = min(draw(st.sampled_from(edges) | st.integers(head, len(lines) - 1)), len(lines) - 1)
        tokens = lines[i].split(" ")
        op = draw(st.sampled_from(["line", "comment", "tab", "extra", "missing",
                                   "polygon", "count", "bad", "cut"]))
        if op == "line":
            lines.insert(i, draw(st.sampled_from(_LINES)))
        elif op == "comment" and tokens:
            tokens[0] = "#" + tokens[0]
        elif op == "cut":
            lines = lines[:i]
            break
        elif op == "tab" and len(tokens) > 1:
            j = draw(st.integers(1, len(tokens) - 1))
            tokens[j - 1:j + 1] = [tokens[j - 1] + "\t" + tokens[j]]
        elif op == "extra":
            extra = draw(st.sampled_from(["7", "0.5", "0"]))
            tokens.insert(draw(st.integers(0, len(tokens))), extra)
        elif op == "missing" and tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif op == "polygon" and tokens[:1] == ["3"]:
            tokens[0] = "4"
            tokens.append(draw(st.sampled_from(["0", "1", tokens[1] if len(tokens) > 1 else "0"])))
        elif op == "count" and tokens[:1] == ["3"]:
            tokens[0] = draw(st.sampled_from(["2", "4", "03", "+3", "v", "f"]))
        elif op == "bad" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
        lines[i] = " ".join(tokens)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return suffix, end.join(lines) + end


def _worded(path):
    """`_outcome` of load_mesh_attributes on `path`, and the message of what
    it raises or None."""
    message = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # `_outcome` compares them
        try:
            load_mesh_attributes(path)
        except Exception as err:  # the message is what is compared
            message = str(err)
    return _outcome(load_mesh_attributes, path), message


def _row_by_row(path):
    """`_worded(path)` with every row read by the row router."""
    import gcfmesh.io

    with mock.patch.object(gcfmesh.io._Columns, "regular", lambda *args: False):
        return _worded(path)


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=_piece_mutated())
def test_off_and_ply_pieces_read_as_the_line_reader(tmp_path, case):
    """Mutated multi-piece OFF, COFF and PLY files read as the per-line
    reference reads them, unless they are read differently on purpose, and
    with the messages of the row router alone."""
    suffix, text = case
    path = tmp_path / f"m.{suffix}"
    path.write_bytes(text.encode("utf-8"))
    result = _worded(path)
    assert result == _row_by_row(path)
    if not _mended(suffix, text):
        assert result[0] == _outcome(line_reader.load_mesh_attributes, path)


@functools.cache
def _edge_files():
    """{fmt: (lines, header lines, vertex rows, piece ends)} of saves of a
    strip of 4001 vertices and 3999 faces, whose vertex and face rows each
    span at least two reads."""
    mesh = _strip(8000, 4)
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("obj", "off", "ply"):
            path = Path(tmp) / f"m.{fmt}"
            save_mesh(mesh, path)
            lines = path.read_text().split("\n")[:-1]
            head = lines.index("end_header") + 1 if fmt == "ply" else 2 * (fmt == "off")
            files[fmt] = lines, head, mesh.vertex_count, _piece_ends(path, head)
    return files


@pytest.mark.parametrize("fmt", ["obj", "off", "ply"])
@pytest.mark.parametrize("kind", ["vertex", "face"])
@pytest.mark.parametrize("side", ["last", "first"])
def test_bad_token_on_a_read_edge_reports_its_line(tmp_path, fmt, kind, side):
    """A bad token in the last row of one read or in the first row of the
    next, in the vertex rows and in the face rows of every format. The row
    keeps its length, so the reads end where they did."""
    lines, head, vertices, ends = _edge_files()[fmt]
    rows = (head, head + vertices) if kind == "vertex" else (head + vertices, len(lines))
    edge = next(end for end in ends if rows[0] < end < rows[1])  # a read ends mid-section
    line = edge if side == "last" else edge + 1  # 1-based
    bad = list(lines)
    bad[line - 1] = bad[line - 1][:-1] + "x"
    path = tmp_path / f"m.{fmt}"
    path.write_text("\n".join(bad) + "\n")
    assert _piece_ends(path, head) == ends
    with pytest.raises(ParseError) as err:
        load_mesh(path)
    assert err.value.line == line
    assert _outcome(load_mesh_attributes, path) == _outcome(
        line_reader.load_mesh_attributes, path)


@pytest.mark.parametrize("fmt, lead", [("obj", "f 0000"), ("off", "2"), ("off", "4"),
                                       ("ply", "2")])
def test_digit_face_piece_checks_as_the_row_router(tmp_path, fmt, lead):
    """A face row of ASCII digits that np.fromstring reads but that is not a
    triangle of valid indices, first in a face piece: an OBJ index 0 or
    another index count. The row keeps its length, so the reads end where
    they did."""
    lines, head, vertices, ends = _edge_files()[fmt]
    first = next(end for end in ends if head + vertices < end < len(lines)) + 1  # 1-based
    row = lines[first - 1]
    lines = lines[:first - 1] + [lead + row[len(lead):]] + lines[first:]
    path = tmp_path / f"m.{fmt}"
    path.write_text("\n".join(lines) + "\n")
    assert _piece_ends(path, head) == ends
    result = _worded(path)
    assert result[0][0][::2] == ("raised", first)
    assert result[0] == _outcome(line_reader.load_mesh_attributes, path)
    assert result == _row_by_row(path)


@pytest.mark.parametrize("suffix, text", [
    ("off", "OFF\n3 1 0\n#0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n"),  # a row commented out
    ("off", "OFF\n2 0 0\n0 0 0 v\n1 0\n"),  # a key as a value, then a short row
    ("off", "OFF\n2 0 0\n0 0 0 7\n1 0\n"),  # a long row, then a short one
    ("off", "OFF\n2 0 0\n1 2\n3 4\n"),  # all rows short
    ("off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 f\n3 0 1\n"),
    ("ply", _PLY_SQUARE.format(_SQUARE_FACES, "3 0 1 2 3\n3 1 3\n")),
    ("obj", "v 1 2 3 v\nv 5 6\n"),
    ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 f\nf 1 2\n"),
])
def test_rows_alike_only_in_token_count_read_as_the_row_router(tmp_path, suffix, text):
    """Pieces whose tokens number a multiple of their lines although their
    rows differ: the readers raise what the row router raises, message and
    all, and what the per-line reference raises."""
    path = tmp_path / f"m.{suffix}"
    path.write_text(text)
    result = _worded(path)
    assert result[0] == _outcome(line_reader.load_mesh_attributes, path)
    assert result == _row_by_row(path)
