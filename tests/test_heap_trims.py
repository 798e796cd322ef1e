"""Who hands freed heap pages back to the OS: the command line after each
timed phase, and the filter once after its worker pool shuts down. Library
calls on one thread never trim, so a caller's next call reuses the heap
they freed instead of faulting it back in.

The trim is counted where each caller looks it up: `mesh._trim_heap`
(where it is defined), `filtering._trim_heap` and `cli._trim_heap`.
"""

import json

import numpy as np
import pytest

import gcfmesh as g
from gcfmesh import cli, filtering, mesh


@pytest.fixture
def trims(monkeypatch):
    counts = dict.fromkeys(("mesh", "filtering", "cli"), 0)
    for module in (mesh, filtering, cli):
        name = module.__name__.rsplit(".", 1)[1]

        def trim(name=name):
            counts[name] += 1
            return 0

        monkeypatch.setattr(module, "_trim_heap", trim)
    return counts


@pytest.fixture(scope="module")
def noisy_sphere():
    clean = g.icosphere(3)
    topology = g.build_topology(clean)
    coloring = g.greedy_domain_decomposition(topology)
    noisy = g.add_noise(clean, topology, g.NoiseConfig(0.3, seed=11))
    return clean, noisy, topology, coloring


def test_library_calls_do_not_trim(tmp_path, trims):
    clean = g.icosphere(3)
    g.save_mesh(clean, tmp_path / "clean.obj")
    loaded = g.load_mesh(tmp_path / "clean.obj")
    topology = g.build_topology(loaded)
    coloring = g.greedy_domain_decomposition(topology)
    noisy = g.add_noise(loaded, topology, g.NoiseConfig(0.3, seed=5))
    out, _ = g.gcf_filter(noisy, topology, coloring, g.FilterConfig(2, threads=1))
    g.gcf_step(noisy.vertices, topology, coloring, threads=1)
    g.gaussian_curvature(out, topology)
    g.msae(out, clean)
    assert trims == {"mesh": 0, "filtering": 0, "cli": 0}


@pytest.mark.parametrize("threads, pool_trims", [(1, 0), (2, 1)])
def test_filter_trims_once_after_its_pool(noisy_sphere, trims, threads, pool_trims):
    _, noisy, topology, coloring = noisy_sphere
    config = g.FilterConfig(3, threads=threads, capture_trace=True)
    out, _ = g.gcf_filter(noisy, topology, coloring, config)
    assert trims == {"mesh": 0, "filtering": pool_trims, "cli": 0}
    step = g.gcf_step(noisy.vertices, topology, coloring, threads=threads)
    assert trims == {"mesh": 0, "filtering": 2 * pool_trims, "cli": 0}
    assert not np.array_equal(step, noisy.vertices)
    assert not np.array_equal(out.vertices, noisy.vertices)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_command_line_trims_once_per_timed_phase(noisy_sphere, tmp_path, trims, threads):
    _, noisy, _, _ = noisy_sphere
    g.save_mesh(noisy, tmp_path / "noisy.obj")
    manifest = tmp_path / "run.json"
    assert cli.main(["filter", "-i", str(tmp_path / "noisy.obj"),
                     "-o", str(tmp_path / "out.obj"), "--iters", "2",
                     "--threads", threads, "--manifest", str(manifest)]) == 0
    phases = json.loads(manifest.read_text())["timings_seconds"]
    assert sorted(phases) == ["color", "filter", "load", "save", "topology"]
    assert trims == {"mesh": 0, "filtering": int(threads == "2"), "cli": len(phases)}
