import numpy as np
import pytest

import gcfmesh as g
from gcfmesh import TriangleMesh, load_mesh, load_mesh_attributes, save_mesh
from gcfmesh.errors import (
    FaceIndexError,
    FormatCapabilityError,
    ParseError,
    UnsupportedFormat,
)

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
        assert np.allclose(back.vertices, mesh.vertices, rtol=1e-9, atol=0)


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
