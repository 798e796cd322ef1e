import warnings
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gcfmesh as g
from gcfmesh import TriangleMesh, load_mesh, load_mesh_attributes, save_mesh
from gcfmesh.errors import (
    FaceIndexError,
    FormatCapabilityError,
    ParseError,
    UnsupportedFormat,
)
from gcfmesh.io import _fan_triangulate

from conftest import MALFORMED_PLY, random_meshes

OBJ_MINIMAL = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
OFF_MINIMAL = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


def test_obj_minimal(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text(OBJ_MINIMAL)
    mesh = load_mesh(p)
    assert mesh.vertex_count == 3
    assert mesh.face_count == 1
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_off_equivalent_to_obj(tmp_path):
    po = tmp_path / "tri.obj"
    po.write_text(OBJ_MINIMAL)
    pf = tmp_path / "tri.off"
    pf.write_text(OFF_MINIMAL)
    a = load_mesh(po)
    b = load_mesh(pf)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def test_quad_fan_triangulation(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.warns(UserWarning):
        mesh = load_mesh(p)
    # fan oracle: polygon (0,1,2,3) -> (0,1,2), (0,2,3)
    assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_obj_negative_indices(tmp_path):
    p = tmp_path / "neg.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    assert load_mesh(p).faces.tolist() == [[0, 1, 2]]


def test_obj_slash_indices_and_ignored_records(tmp_path):
    p = tmp_path / "tex.obj"
    p.write_text(
        "# comment\nmtllib foo.mtl\no thing\nvt 0 0\nvn 0 0 1\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/1/1 3/1/1\n"
    )
    assert load_mesh(p).faces.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("fmt", ["obj", "off", "ply"])
def test_round_trip(tmp_path, fmt):
    for k, mesh in enumerate(random_meshes()):
        p = tmp_path / f"m{k}.{fmt}"
        save_mesh(mesh, p)
        back = load_mesh(p)
        assert np.array_equal(back.faces, mesh.faces)
        assert np.array_equal(back.vertices, mesh.vertices)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


# Any finite double, with signed zero, subnormals and huge magnitudes drawn often.
_COORD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e300]),
)


@st.composite
def _attributed_meshes(draw):
    n = draw(st.integers(3, 12))
    vertices = draw(hnp.arrays(np.float64, (n, 3), elements=_COORD))
    quality = draw(hnp.arrays(np.float64, n, elements=_COORD))
    colors = draw(hnp.arrays(np.int64, (n, 3), elements=st.integers(0, 255)))
    faces = [(0, i, i + 1) for i in range(1, n - 1)]
    return TriangleMesh(vertices, faces), quality, colors


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_attributed_meshes())
def test_round_trip_bitwise_property(tmp_path, case):
    mesh, quality, colors = case
    for fmt in ("obj", "off", "ply"):
        p = tmp_path / f"m.{fmt}"
        extra = {"scalars": quality, "colors": colors} if fmt == "ply" else {}
        save_mesh(mesh, p, **extra)
        back, q, c = load_mesh_attributes(p)
        assert _bits(back.vertices) == _bits(mesh.vertices)
        assert _bits(back.faces) == _bits(mesh.faces)
        if fmt == "ply":
            assert _bits(q) == _bits(quality)
            assert _bits(c) == _bits(colors.astype(np.uint8))


def test_round_trip_preserves_winding(tmp_path):
    mesh = TriangleMesh(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 2, 1), (1, 2, 3)],  # deliberately mixed winding
    )
    for fmt in ("obj", "off", "ply"):
        p = tmp_path / f"w.{fmt}"
        save_mesh(mesh, p)
        assert load_mesh(p).faces.tolist() == mesh.faces.tolist()


def test_ply_scalar_channel_round_trip(tmp_path, tetrahedron):
    topo = g.build_topology(tetrahedron)
    field = g.gaussian_curvature(tetrahedron, topo)
    p = tmp_path / "k.ply"
    save_mesh(tetrahedron, p, scalars=field.curvature)
    back, quality, colors = load_mesh_attributes(p)
    assert np.array_equal(back.faces, tetrahedron.faces)
    assert np.array_equal(quality, field.curvature)
    assert colors is None


def test_ply_color_round_trip(tmp_path, tetrahedron):
    rgb = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255], [10, 20, 30]])
    p = tmp_path / "c.ply"
    save_mesh(tetrahedron, p, colors=rgb)
    _, quality, colors = load_mesh_attributes(p)
    assert quality is None
    assert np.array_equal(colors, rgb)


def test_scalars_rejected_outside_ply(tmp_path, tetrahedron):
    for fmt in ("obj", "off"):
        with pytest.raises(FormatCapabilityError):
            save_mesh(tetrahedron, tmp_path / f"x.{fmt}", scalars=np.zeros(4))


def test_binary_ply_rejected(tmp_path):
    p = tmp_path / "b.ply"
    p.write_text(
        "ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
        "element face 0\nproperty list uchar int vertex_indices\nend_header\n"
    )
    with pytest.raises(UnsupportedFormat):
        load_mesh(p)


def test_parse_error_has_line_number(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv nope 0 0\n")
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == 2


def test_face_index_out_of_range(tmp_path):
    p = tmp_path / "oob.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")
    with pytest.raises(FaceIndexError):
        load_mesh(p)


def test_degenerate_face_dropped(tmp_path):
    p = tmp_path / "deg.off"
    p.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 1\n")
    with pytest.warns(UserWarning):
        mesh = load_mesh(p)
    assert mesh.face_count == 1


def test_format_sniffing_without_extension(tmp_path):
    p = tmp_path / "noext"
    p.write_text(OFF_MINIMAL)
    assert load_mesh(p).vertex_count == 3
    q = tmp_path / "noext2"
    q.write_text(OBJ_MINIMAL)
    assert load_mesh(q, "auto").face_count == 1


def test_unknown_format(tmp_path):
    p = tmp_path / "data.xyz"
    p.write_text("garbage\n")
    with pytest.raises(UnsupportedFormat):
        load_mesh(p)


def test_save_golden_text(tmp_path, tetrahedron):
    p, n = "0.35355339059327373", "-0.35355339059327373"
    xyz = [f"{p} {p} {p}", f"{p} {n} {n}", f"{n} {p} {n}", f"{n} {n} {p}"]
    faces = "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
    ply_head = ("ply\nformat ascii 1.0\nelement vertex 4\n"
                "property double x\nproperty double y\nproperty double z\n")
    ply_tail = "element face 4\nproperty list uchar int vertex_indices\nend_header\n"
    expected = {
        "obj": "".join(f"v {row}\n" for row in xyz)
        + "f 1 2 3\nf 1 4 2\nf 1 3 4\nf 2 4 3\n",
        "off": "OFF\n4 4 0\n" + "".join(f"{row}\n" for row in xyz) + faces,
        "ply": ply_head + ply_tail + "".join(f"{row}\n" for row in xyz) + faces,
    }
    for fmt, text in expected.items():
        path = tmp_path / f"t.{fmt}"
        save_mesh(tetrahedron, path)
        assert path.read_bytes() == text.encode()
    path = tmp_path / "attr.ply"
    save_mesh(tetrahedron, path, scalars=[0.5, -0.0, 1 / 3, 2e-300],
              colors=[[230, 25, 75], [0, 0, 0], [255, 255, 255], [1, 2, 3]])
    extras = ["0.5 230 25 75", "-0 0 0 0", "0.33333333333333331 255 255 255",
              "2.0000000000000001e-300 1 2 3"]
    assert path.read_bytes() == (
        ply_head + "property double quality\nproperty uchar red\n"
        "property uchar green\nproperty uchar blue\n" + ply_tail
        + "".join(f"{row} {extra}\n" for row, extra in zip(xyz, extras)) + faces
    ).encode()


@pytest.mark.parametrize("text, line", MALFORMED_PLY)
def test_malformed_ply_parse_error(tmp_path, text, line):
    p = tmp_path / "bad.ply"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == line


_PLY_TRIANGLE_HEAD = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
                      "property double y\nproperty double z\n")


@pytest.mark.parametrize("text, message, line", [
    pytest.param(_PLY_TRIANGLE_HEAD + "element face 1\nproperty uchar flags\n"
                 "property list uchar int vertex_indices\nend_header\n"
                 "0 0 0\n1 0 0\n0 1 0\n7\n", "face row without a count ['7']", 14,
                 id="face-row-without-a-count"),
    pytest.param(_PLY_TRIANGLE_HEAD, "unexpected end of header", 7, id="no-end-header"),
    pytest.param("ply\nformat ascii 1.0\nproperty double x\nelement vertex 3\nend_header\n",
                 "property before element", 3, id="property-before-element"),
    # the vertex rows before the face element are read before it is checked
    pytest.param(_PLY_TRIANGLE_HEAD + "element face 1\nproperty int a\nend_header\n"
                 "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "face element lacks a list property", 12,
                 id="face-without-a-list"),
])
def test_ply_error_paths_name_their_line(tmp_path, text, message, line):
    p = tmp_path / "bad.ply"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == line
    assert str(err.value) == f"{p}:{line}: {message}"


@pytest.mark.parametrize("channel, values", [("scalar", {"scalars": np.zeros(3)}),
                                             ("color", {"colors": np.zeros((3, 3))})])
def test_save_rejects_a_channel_of_the_wrong_length(tmp_path, tetrahedron, channel, values):
    p = tmp_path / "c.ply"
    with pytest.raises(ValueError) as err:
        save_mesh(tetrahedron, p, **values)
    assert str(err.value) == f"{channel} channel length != vertex count"
    assert not p.exists()


def test_save_rejects_colors_outside_byte_range(tmp_path, tetrahedron):
    p = tmp_path / "c.ply"
    with pytest.raises(ValueError, match="0..255"):
        save_mesh(tetrahedron, p,
                  colors=[[300, 0, 0], [0, 0, 0], [0, 0, 0], [-1, 0, 0]])
    assert not p.exists()


def test_save_rejects_non_integral_colors(tmp_path, tetrahedron):
    p = tmp_path / "c.ply"
    with pytest.raises(ValueError, match="not an integer"):
        save_mesh(tetrahedron, p, colors=[[0.7, 1.9, 2.5]] * 4)
    assert not p.exists()
    save_mesh(tetrahedron, p, colors=np.full((4, 3), 7.0))
    assert np.array_equal(load_mesh_attributes(p)[2], np.full((4, 3), 7))


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("OFF\n", 2),
    ("OFF\n3 1 0\n0 0 0\n", 4),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n", 6),
], ids=["empty", "no-counts", "short-vertex-list", "short-face-list"])
def test_off_end_of_input_has_line_number(tmp_path, text, line):
    p = tmp_path / "cut.off"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == line


def test_ply_color_extremes_round_trip(tmp_path, tetrahedron):
    rgb = np.array([[0, 0, 0], [255, 255, 255], [0, 255, 0], [255, 0, 255]])
    p = tmp_path / "c.ply"
    save_mesh(tetrahedron, p, colors=rgb)
    _, _, colors = load_mesh_attributes(p)
    assert colors.dtype == np.uint8
    assert np.array_equal(colors, rgb)


COFF_TRIANGLE = ("COFF\n3 1 0\n0 0 0 255 0 0 255\n1 0 0 0 255 0 255\n"
                 "0 1 0 0 0 255 255\n3 0 1 2\n")


@pytest.mark.parametrize("name", ["tri.off", "noext"])
def test_coff_loads_like_off(tmp_path, name):
    p = tmp_path / name
    p.write_text(COFF_TRIANGLE)
    q = tmp_path / "twin.off"
    q.write_text(OFF_MINIMAL)
    a, b = load_mesh(p), load_mesh(q)
    assert _bits(a.vertices) == _bits(b.vertices)
    assert _bits(a.faces) == _bits(b.faces)


PLY_TRIANGLE = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
                "property double y\nproperty double z\nelement face 1\n"
                "property list uchar int vertex_indices\nend_header\n")

# One triangle per format; `{}` is the x of the first vertex.
TRIANGLES = {
    "obj": "v {} 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "off": "OFF\n3 1 0\n{} 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "ply": PLY_TRIANGLE + "{} 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
}


@pytest.mark.parametrize("fmt", sorted(TRIANGLES))
def test_undecodable_byte_in_comment_loads(tmp_path, fmt):
    lines = TRIANGLES[fmt].format(0).encode().split(b"\n")
    lines.insert(1, b"comment caf\xe9" if fmt == "ply" else b"# caf\xe9")
    p = tmp_path / f"latin1.{fmt}"
    p.write_bytes(b"\n".join(lines))
    assert load_mesh(p).faces.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("fmt", sorted(TRIANGLES))
def test_undecodable_byte_in_coordinate_is_parse_error(tmp_path, fmt):
    text = TRIANGLES[fmt].format("0\udce9")  # writes the lone byte 0xe9
    p = tmp_path / f"latin1.{fmt}"
    p.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == text[:text.index("\udce9")].count("\n") + 1


def test_ply_skips_blank_and_comment_lines(tmp_path):
    p = tmp_path / "blank.ply"
    head = PLY_TRIANGLE.replace("end_header", "# written by hand\nend_header")
    p.write_text(head + "0 0 0\n\n1 0 0\n# note\n0 1 0\n   \n3 0 1 2\n")
    q = tmp_path / "plain.ply"
    q.write_text(TRIANGLES["ply"].format(0))
    a, b = load_mesh(p), load_mesh(q)
    assert _bits(a.vertices) == _bits(b.vertices)
    assert _bits(a.faces) == _bits(b.faces)


# A two-index face after one triangle, in each format, and the line it is on.
SHORT_FACE = {
    "obj": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2\n", 5),
    "off": ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n2 0 1\n", 7),
    "ply": (PLY_TRIANGLE.replace("face 1", "face 2")
            + "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n2 0 1\n", 14),
}


@pytest.mark.parametrize("fmt", sorted(SHORT_FACE))
def test_short_face_has_line_number(tmp_path, fmt):
    text, line = SHORT_FACE[fmt]
    p = tmp_path / f"short.{fmt}"
    p.write_text(text)
    with pytest.raises(ParseError, match="face with 2 indices") as err:
        load_mesh(p)
    assert err.value.line == line


@pytest.mark.parametrize("fmt", sorted(SHORT_FACE))
def test_face_index_past_int64_is_parse_error(tmp_path, fmt):
    text, line = SHORT_FACE[fmt]
    big = str(2**64)
    text = text.replace("f 1 2\n", f"f 1 2 {big}\n")
    text = text.replace("2 0 1\n", f"3 0 1 {big}\n")
    p = tmp_path / f"big.{fmt}"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        load_mesh(p)
    assert err.value.line == line


@settings(max_examples=60, deadline=None)
@given(polygons=st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=7)))
def test_fan_triangulate_matches_polygon_loop(polygons):
    expected, fanned, dropped = [], 0, 0
    for poly in polygons:
        fanned += len(poly) > 3
        for t in range(1, len(poly) - 1):
            a, b, c = poly[0], poly[t], poly[t + 1]
            if a == b or b == c or c == a:
                dropped += 1
            else:
                expected.append([a, b, c])
    flat = array("q", [i for poly in polygons for i in poly])
    sizes = array("q", [len(poly) for poly in polygons])
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        tris = _fan_triangulate(flat, sizes, "p")
    assert tris.dtype == np.int64 and tris.shape == (len(expected), 3)
    assert tris.tolist() == expected
    assert [str(w.message) for w in record] == (
        [f"p: fan-triangulated {fanned} non-triangle faces"] * bool(fanned)
        + [f"p: dropped {dropped} degenerate faces"] * bool(dropped))
