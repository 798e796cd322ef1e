"""One overflow rule for every quantity that squares a product of
coordinates: the mean edge length, face areas and ring areas each raise
DegenerateMeshError naming themselves, with no numpy warning, and the CLI
exits with code 3 without writing any output."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gcfmesh as g
from gcfmesh.cli import main
from gcfmesh.errors import DegenerateMeshError

TOO_LARGE = "overflows to inf (are the coordinates too large to square?)"
FACE_AREA = f"face area {TOO_LARGE}"
RING_AREA = f"ring area {TOO_LARGE}"

# a closed tetrahedron whose edges (about 2.8e100) square to finite values,
# while its cross products (about 1e200 per component) do not
_CORNERS = [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]
_FACES = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]


@pytest.fixture
def huge_tetrahedron():
    return g.TriangleMesh(np.array(_CORNERS) * 1e100, _FACES)


def _raises(message, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMeshError) as info:
            call()
    assert str(info.value) == message


def test_ring_area_overflow_raises(huge_tetrahedron):
    topo = g.build_topology(huge_tetrahedron)
    _raises(RING_AREA, lambda: g.gaussian_curvature(huge_tetrahedron, topo))


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_filter_raises_before_making_a_pool(huge_tetrahedron, threads,
                                                  monkeypatch):
    import gcfmesh.filtering

    pools = []
    monkeypatch.setattr(gcfmesh.filtering, "ThreadPoolExecutor",
                        lambda *args: pools.append(args))
    topo = g.build_topology(huge_tetrahedron)
    coloring = g.greedy_domain_decomposition(topo)
    config = g.FilterConfig(iterations=2, threads=threads, capture_trace=True)
    _raises(RING_AREA, lambda: g.gcf_filter(huge_tetrahedron, topo, coloring, config))
    assert pools == []


@pytest.mark.parametrize("threads", [1, 2])
def test_untraced_filter_raises_on_overflowing_candidate_normals(huge_tetrahedron,
                                                                 threads):
    """The kernel's candidate normals are cross products of edges; without
    the energy trace nothing else squares them, so the kernel checks them."""
    topo = g.build_topology(huge_tetrahedron)
    coloring = g.greedy_domain_decomposition(topo)
    config = g.FilterConfig(iterations=2, threads=threads)
    _raises(FACE_AREA, lambda: g.gcf_filter(huge_tetrahedron, topo, coloring, config))
    _raises(FACE_AREA, lambda: g.gcf_step(huge_tetrahedron.vertices, topo, coloring,
                                          threads=threads))


def test_face_area_overflow_raises(huge_tetrahedron):
    topo = g.build_topology(huge_tetrahedron)
    _raises(FACE_AREA, lambda: g.face_normals(huge_tetrahedron))
    _raises(FACE_AREA, lambda: g.add_noise(huge_tetrahedron, topo,
                                           g.NoiseConfig(0.1, seed=3)))
    _raises(FACE_AREA, lambda: g.metrics_report(huge_tetrahedron, huge_tetrahedron))


def _write_huge_obj(path):
    lines = [f"v {x * 1e100!r} {y * 1e100!r} {z * 1e100!r}" for x, y, z in _CORNERS]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in _FACES]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("argv, message", [
    (("curvature", "-i", "huge.obj", "-o", "k.csv"), RING_AREA),
    (("metrics", "--ref", "huge.obj", "--test", "huge.obj"), FACE_AREA),
    (("noise", "-i", "huge.obj", "-o", "n.obj"), FACE_AREA),
    (("filter", "-i", "huge.obj", "-o", "f.obj", "--iters", "1",
      "--trace", "t.csv", "--threads", "2"), RING_AREA),
    (("filter", "-i", "huge.obj", "-o", "f.obj", "--iters", "1", "--threads", "2"), FACE_AREA),
])
def test_cli_rejects_overflowing_areas(tmp_path, argv, message):
    """In a fresh interpreter with default warning filters, stderr holds one
    error line, stdout is empty and no file is written."""
    _write_huge_obj(tmp_path / "huge.obj")
    src = os.path.dirname(os.path.dirname(g.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-m", "gcfmesh.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.obj"]


def test_metrics_report_never_prints_nan(tmp_path, monkeypatch, capsys):
    import gcfmesh.cli

    path = tmp_path / "s.obj"
    g.save_mesh(g.icosphere(1), path)
    report = g.MetricsReport(msae_deg=float("nan"), gce=0.0, d_mean=0.0,
                             d_max=0.0, kld=0.0)
    monkeypatch.setattr(gcfmesh.cli, "metrics_report",
                        lambda *args, **kwargs: report)
    assert main(["metrics", "--ref", str(path), "--test", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_noise_sigma_must_be_finite(value):
    with pytest.raises(ValueError, match="sigma_factor"):
        g.NoiseConfig(value)


@pytest.mark.parametrize("name, value", [("lam", float("nan")), ("lam", float("inf")),
                                         ("mu", float("nan")), ("mu", float("-inf"))])
def test_taubin_factors_must_be_finite(name, value):
    mesh = g.icosphere(1)
    with pytest.raises(ValueError, match=name):
        g.taubin_smooth(mesh, g.build_topology(mesh), 1, **{name: value})


@pytest.mark.parametrize("argv, name", [
    (("noise", "-o", "n.obj", "--sigma", "nan"), "sigma_factor"),
    (("smooth", "-o", "s.obj", "--method", "taubin", "--mu", "nan"), "mu"),
])
def test_cli_names_non_finite_parameter(tmp_path, capsys, argv, name):
    path = tmp_path / "in.obj"
    g.save_mesh(g.icosphere(1), path)
    out = tmp_path / argv[2]
    assert main([argv[0], "-i", str(path), "-o", str(out), *argv[3:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be finite")
    assert not out.exists()


def _scaled_noisy_sphere(k):
    """A noisy icosphere(2) scaled by 2**k; at k in [257, 257.5] its face
    areas are finite but some summed area-weighted normals square to inf."""
    mesh = g.icosphere(2)
    mesh = g.add_noise(mesh, g.build_topology(mesh), g.NoiseConfig(0.3, seed=1))
    return g.TriangleMesh(mesh.vertices * 2.0 ** k, mesh.faces)


@pytest.mark.parametrize("k", [257, 257.3])
def test_vertex_normal_overflow_raises(k):
    mesh = _scaled_noisy_sphere(k)
    topo = g.build_topology(mesh)
    g.face_normals(mesh)  # the face areas alone are finite
    message = f"vertex normal {TOO_LARGE}"
    _raises(message, lambda: g.vertex_normals(mesh, topo))
    _raises(message, lambda: g.add_noise(mesh, topo, g.NoiseConfig(0.1, seed=2)))


def test_noise_moves_every_vertex_below_the_vertex_normal_band():
    mesh = _scaled_noisy_sphere(250)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        normals, degenerate = g.vertex_normals(mesh, g.build_topology(mesh))
        noisy = g.add_noise(mesh, g.build_topology(mesh), g.NoiseConfig(0.1, seed=2))
    assert not degenerate.any()
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    assert (noisy.vertices != mesh.vertices).any(axis=1).all()


@pytest.mark.parametrize("k", [257, 257.3])
def test_cli_noise_rejects_an_overflowing_vertex_normal(tmp_path, capsys, k):
    path, out = tmp_path / "big.obj", tmp_path / "n.obj"
    g.save_mesh(_scaled_noisy_sphere(k), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["noise", "-i", str(path), "-o", str(out), "--seed", "2"])
    assert status == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: vertex normal {TOO_LARGE}\n"
    assert not out.exists()
