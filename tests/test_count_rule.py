"""One rule for every public count: an integer, not a bool, of at least
its floor, else ValueError with the count's name. The filter drivers' cases
are in test_filtering.py; these are the baselines' iterations, the
histogram's bins, the noise seed and the generators' counts, which raise
BadResolution, a ValueError."""

import numpy as np
import pytest

import gcfmesh as g
from gcfmesh.errors import BadResolution


@pytest.fixture(scope="module")
def sphere():
    mesh = g.icosphere(2)
    return mesh, g.build_topology(mesh)


@pytest.mark.parametrize("smooth", [g.laplacian_smooth, g.taubin_smooth])
@pytest.mark.parametrize("iterations", [2.5, True, False, 2.0, "2", None])
def test_baseline_iterations_must_be_integers(sphere, smooth, iterations):
    mesh, topology = sphere
    with pytest.raises(ValueError, match="iterations must be an integer"):
        smooth(mesh, topology, iterations)


@pytest.mark.parametrize("smooth", [g.laplacian_smooth, g.taubin_smooth])
def test_baseline_iterations_keep_their_floor(sphere, smooth):
    mesh, topology = sphere
    with pytest.raises(ValueError, match="iterations must be >= 0"):
        smooth(mesh, topology, -1)
    assert smooth(mesh, topology, 0).vertices.tobytes() == mesh.vertices.tobytes()
    want = smooth(mesh, topology, 2).vertices
    assert smooth(mesh, topology, np.int64(2)).vertices.tobytes() == want.tobytes()


@pytest.mark.parametrize("bins", [2.5, True, 200.0, None])
def test_histogram_bins_must_be_integers(bins):
    mesh = g.icosphere(2)
    field = g.gaussian_curvature(mesh, g.build_topology(mesh))
    with pytest.raises(ValueError, match="bins must be an integer"):
        g.curvature_histogram(field, bins=bins)


def test_histogram_bins_keep_their_floor():
    mesh = g.icosphere(2)
    field = g.gaussian_curvature(mesh, g.build_topology(mesh))
    with pytest.raises(ValueError, match="bins must be >= 2"):
        g.curvature_histogram(field, bins=1)
    with pytest.raises(ValueError, match="bins must be an integer"):
        g.metrics_report(mesh, mesh, bins=2.5)
    assert len(g.curvature_histogram(field, bins=np.int32(2)).probs) == 2


@pytest.mark.parametrize("seed", [1.5, True, 1.0, "1", None])
def test_noise_seed_must_be_an_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        g.NoiseConfig(0.3, seed=seed)


def test_noise_seed_must_not_be_negative(sphere):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        g.NoiseConfig(0.3, seed=-1)
    mesh, topology = sphere
    a = g.add_noise(mesh, topology, g.NoiseConfig(0.3, seed=np.uint64(2**63)))
    b = g.add_noise(mesh, topology, g.NoiseConfig(0.3, seed=2**63))
    assert a.vertices.tobytes() == b.vertices.tobytes()


def test_cli_rejects_a_negative_seed(tmp_path, capsys):
    from gcfmesh import cli

    path = tmp_path / "s.obj"
    g.save_mesh(g.icosphere(1), path)
    code = cli.main(["noise", "-i", str(path), "-o", str(tmp_path / "n.obj"),
                     "--sigma", "0.3", "--seed", "-1"])
    assert code == 3
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "n.obj").exists()


def _call(make, *args, match):
    return pytest.param(make, args, match,
                        id=f"{make.__name__}({', '.join(map(repr, args))})")


@pytest.mark.parametrize("make, args, match", [
    _call(g.icosphere, 2.5, match="subdivisions"),
    _call(g.icosphere, True, match="subdivisions"),
    _call(g.cube, 2.0, match="resolution"),
    _call(g.cube, True, match="resolution"),
    _call(g.grid, True, match="resolution"),
    _call(g.cylinder, 8, 2.0, match="rings"),
    _call(g.cylinder, 3.5, 2, match="segments"),
    _call(g.cone, 8, 2.0, match="rings"),
])
def test_generator_counts_must_be_integers(make, args, match):
    with pytest.raises(BadResolution, match=f"{match} must be an integer"):
        make(*args)


@pytest.mark.parametrize("make, args, match", [
    _call(g.icosphere, -1, match="subdivisions must be >= 0"),
    _call(g.cylinder, 2, 4, match="segments must be >= 3"),
    _call(g.cylinder, 8, -2, match="rings must be >= 1"),
    _call(g.cone, 8, 0, match="rings must be >= 1"),
    _call(g.cube, 0, match="resolution must be >= 1"),
    _call(g.grid, 0, match="resolution must be >= 1"),
])
def test_generator_floors_raise_a_value_error(make, args, match):
    with pytest.raises(ValueError, match=match) as raised:
        make(*args)
    assert isinstance(raised.value, BadResolution)


@pytest.mark.parametrize("make, counts", [
    (g.grid, (3,)),
    (g.cylinder, (8, 2)),
    (g.cone, (8, 3)),
    (g.cube, (2,)),
    (g.icosphere, (2,)),
])
def test_generators_take_numpy_integer_counts_bitwise(make, counts):
    want = make(*counts)
    for kind in (np.int64, np.int32):
        got = make(*(kind(c) for c in counts))
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.faces.dtype == want.faces.dtype
        assert got.faces.tobytes() == want.faces.tobytes()


def test_cylinder_takes_mixed_numpy_integer_counts_bitwise():
    got, want = g.cylinder(np.int64(8), np.int32(2)), g.cylinder(8, 2)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces.tobytes() == want.faces.tobytes()
