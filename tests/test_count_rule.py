"""One rule for every public count: an integer, not a bool, of at least
its floor, else ValueError with the count's name. The filter drivers' cases
are in test_filtering.py; these are the baselines' iterations, the
histogram's bins and the noise seed."""

import numpy as np
import pytest

import gcfmesh as g


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
