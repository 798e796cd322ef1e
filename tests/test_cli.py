import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gcfmesh as g
from gcfmesh.cli import main
from gcfmesh import load_mesh, load_mesh_attributes, save_mesh, unique_edges

from conftest import MALFORMED_PLY

TET_K = 2.4183991523122903


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_icosphere_counts(tmp_path):
    out = tmp_path / "sphere.obj"
    assert run("gen", "--kind", "icosphere", "--subdiv", "4", "-o", out) == 0
    mesh = load_mesh(out)
    assert mesh.vertex_count == 2562
    assert mesh.face_count == 5120


def test_gen_bad_resolution_exit_code(tmp_path):
    assert run("gen", "--kind", "cylinder", "--segments", "2",
               "-o", tmp_path / "c.obj") == 3


def test_filter_grid_fixed_point(tmp_path):
    grid_path = tmp_path / "grid.obj"
    out_path = tmp_path / "out.obj"
    assert run("gen", "--kind", "grid", "--res", "8", "-o", grid_path) == 0
    assert run("filter", "-i", grid_path, "-o", out_path, "--iters", "40") == 0
    a = load_mesh(grid_path)
    b = load_mesh(out_path)
    assert np.array_equal(a.faces, b.faces)
    assert np.array_equal(a.vertices, b.vertices)


def test_filter_rejects_zero_iterations(tmp_path, capsys):
    grid_path = tmp_path / "grid.obj"
    run("gen", "--kind", "grid", "--res", "2", "-o", grid_path)
    assert run("filter", "-i", grid_path, "-o", tmp_path / "o.obj",
               "--iters", "0") == 3
    assert "--iters" in capsys.readouterr().err


def test_filter_thread_invariance(tmp_path):
    sphere = tmp_path / "s.obj"
    noisy = tmp_path / "n.obj"
    run("gen", "--kind", "icosphere", "--subdiv", "3", "-o", sphere)
    run("noise", "-i", sphere, "-o", noisy, "--sigma", "0.3", "--seed", "42")
    out1 = tmp_path / "t1.obj"
    out8 = tmp_path / "t8.obj"
    assert run("filter", "-i", noisy, "-o", out1, "--iters", "10",
               "--threads", "1") == 0
    assert run("filter", "-i", noisy, "-o", out8, "--iters", "10",
               "--threads", "8") == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_filter_trace_and_manifest(tmp_path):
    sphere = tmp_path / "s.obj"
    noisy = tmp_path / "n.obj"
    run("gen", "--kind", "icosphere", "--subdiv", "2", "-o", sphere)
    run("noise", "-i", sphere, "-o", noisy, "--sigma", "0.3", "--seed", "1")
    trace = tmp_path / "trace.csv"
    manifest = tmp_path / "run.json"
    assert run("filter", "-i", noisy, "-o", tmp_path / "out.obj",
               "--iters", "5", "--trace", trace, "--manifest", manifest) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,gce"
    assert len(lines) == 7  # header + iterations + 1
    gce = [float(l.split(",")[1]) for l in lines[1:]]
    assert gce[-1] < gce[0]
    doc = json.loads(manifest.read_text())
    assert doc["tool"] == "gcfmesh"
    assert doc["command"] == "filter"
    assert doc["arguments"]["iters"] == 5
    assert set(doc["timings_seconds"]) == {"load", "topology", "color",
                                           "filter", "save"}


def test_metrics_self_report(tmp_path, capsys):
    sphere = tmp_path / "s.obj"
    run("gen", "--kind", "icosphere", "--subdiv", "2", "-o", sphere)
    assert run("metrics", "--ref", sphere, "--test", sphere) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["msae_deg"] == 0.0
    assert doc["d_mean"] == 0.0
    assert doc["d_max"] == 0.0
    assert doc["kld"] == pytest.approx(0.0, abs=1e-9)
    assert doc["params"]["bins"] == 200


def test_metrics_translation(tmp_path, capsys):
    sphere = tmp_path / "s.obj"
    run("gen", "--kind", "icosphere", "--subdiv", "1", "-o", sphere)
    mesh = load_mesh(sphere)
    moved = g.TriangleMesh(mesh.vertices + (0.0, 0.0, 0.125), mesh.faces)
    moved_path = tmp_path / "m.obj"
    save_mesh(moved, moved_path)
    assert run("metrics", "--ref", sphere, "--test", moved_path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["msae_deg"] == pytest.approx(0.0, abs=1e-9)
    assert doc["d_mean"] == pytest.approx(0.125, rel=1e-9)
    assert doc["d_max"] == pytest.approx(0.125, rel=1e-9)


def test_metrics_noisy_positive(tmp_path, capsys):
    sphere = tmp_path / "s.obj"
    noisy = tmp_path / "n.obj"
    run("gen", "--kind", "icosphere", "--subdiv", "3", "-o", sphere)
    run("noise", "-i", sphere, "-o", noisy, "--sigma", "0.3", "--seed", "2")
    assert run("metrics", "--ref", sphere, "--test", noisy) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["msae_deg"] > 0.0
    assert doc["kld"] > 0.0


def test_metrics_mismatch_exit_code(tmp_path):
    a = tmp_path / "a.obj"
    b = tmp_path / "b.obj"
    run("gen", "--kind", "grid", "--res", "2", "-o", a)
    run("gen", "--kind", "grid", "--res", "3", "-o", b)
    assert run("metrics", "--ref", a, "--test", b) == 3


def test_noise_seed_determinism(tmp_path):
    sphere = tmp_path / "s.obj"
    run("gen", "--kind", "icosphere", "--subdiv", "2", "-o", sphere)
    n1 = tmp_path / "n1.obj"
    n2 = tmp_path / "n2.obj"
    run("noise", "-i", sphere, "-o", n1, "--sigma", "0.3", "--seed", "9")
    run("noise", "-i", sphere, "-o", n2, "--sigma", "0.3", "--seed", "9")
    assert n1.read_bytes() == n2.read_bytes()


def test_curvature_csv_tetrahedron(tmp_path, tetrahedron):
    tet = tmp_path / "tet.obj"
    save_mesh(tetrahedron, tet)
    out = tmp_path / "k.csv"
    assert run("curvature", "-i", tet, "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "vertexIndex,K"
    assert len(lines) == 5
    for line in lines[1:]:
        assert float(line.split(",")[1]) == pytest.approx(TET_K, rel=1e-9)


def test_curvature_ply_scalar(tmp_path):
    sphere = tmp_path / "s.obj"
    run("gen", "--kind", "icosphere", "--subdiv", "1", "-o", sphere)
    out = tmp_path / "k.ply"
    assert run("curvature", "-i", sphere, "-o", out) == 0
    mesh, quality, _ = load_mesh_attributes(out)
    assert quality is not None and len(quality) == mesh.vertex_count


def test_color_export_proper(tmp_path):
    sphere = tmp_path / "s.off"
    run("gen", "--kind", "icosphere", "--subdiv", "2", "-o", sphere)
    out = tmp_path / "colored.ply"
    assert run("color", "-i", sphere, "-o", out) == 0
    mesh, _, colors = load_mesh_attributes(out)
    assert colors is not None
    for a, b in unique_edges(mesh.faces).tolist():
        assert tuple(colors[a]) != tuple(colors[b])


def test_smooth_runs(tmp_path):
    sphere = tmp_path / "s.obj"
    noisy = tmp_path / "n.obj"
    run("gen", "--kind", "icosphere", "--subdiv", "2", "-o", sphere)
    run("noise", "-i", sphere, "-o", noisy, "--sigma", "0.3", "--seed", "1")
    for method in ("laplacian", "taubin"):
        out = tmp_path / f"{method}.obj"
        assert run("smooth", "-i", noisy, "-o", out, "--method", method,
                   "--iters", "5") == 0
        assert load_mesh(out).vertex_count == 162


def test_bench_csv(tmp_path, capsys):
    sphere = tmp_path / "s.obj"
    run("gen", "--kind", "icosphere", "--subdiv", "2", "-o", sphere)
    assert run("bench", "-i", sphere, "--iters", "2,4", "--threads", "1") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mesh,vertices,iters,threads,seconds"
    assert len(lines) == 3
    cols = lines[1].split(",")
    assert cols[1] == "162"
    assert float(cols[4]) >= 0.0


@pytest.mark.parametrize("option,value", [("--iters", "a"), ("--threads", "1,x")])
def test_bench_bad_list_is_usage_error(tmp_path, capsys, option, value):
    with pytest.raises(SystemExit) as exit_info:
        run("bench", "-i", tmp_path / "s.obj", option, value)
    assert exit_info.value.code == 2
    assert f"argument {option}: " in capsys.readouterr().err


def test_stats_json(tmp_path, capsys):
    grid_path = tmp_path / "g.obj"
    run("gen", "--kind", "grid", "--res", "4", "-o", grid_path)
    assert run("stats", "-i", grid_path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 25
    assert doc["boundary_vertices"] == 16


def test_threads_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("GCF_THREADS", "2")
    grid_path = tmp_path / "g.obj"
    run("gen", "--kind", "grid", "--res", "4", "-o", grid_path)
    manifest = tmp_path / "m.json"
    assert run("filter", "-i", grid_path, "-o", tmp_path / "o.obj",
               "--iters", "1", "--manifest", manifest) == 0
    assert json.loads(manifest.read_text())["arguments"]["threads"] == 2


def test_missing_file_exit_code(tmp_path):
    assert run("filter", "-i", tmp_path / "nope.obj",
               "-o", tmp_path / "o.obj", "--iters", "1") == 2


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 1 2\n")
    assert run("stats", "-i", bad) == 2


def test_undecodable_byte_exit_codes(tmp_path, capsys):
    body = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    comment = tmp_path / "comment.obj"
    comment.write_bytes(b"# caf\xe9\n" + body)
    assert run("stats", "-i", comment) == 0
    coordinate = tmp_path / "coordinate.obj"
    coordinate.write_bytes(body.replace(b"v 1 0 0", b"v 1\xe9 0 0"))
    assert run("stats", "-i", coordinate) == 2
    assert "coordinate.obj:2: " in capsys.readouterr().err


def test_malformed_ply_exit_code(tmp_path, capsys):
    for k, case in enumerate(MALFORMED_PLY):
        text, line = case.values
        bad = tmp_path / f"bad{k}.ply"
        bad.write_text(text)
        assert run("stats", "-i", bad) == 2
        assert f"bad{k}.ply:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["filter", "stats"])
@pytest.mark.parametrize("token", ["inf", "nan"])
def test_non_finite_obj_exit_code(tmp_path, capsys, command, token):
    bad = tmp_path / "bad.obj"
    bad.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 {token}\nf 1 2 3\n")
    argv = ["-i", bad]
    if command == "filter":
        argv += ["-o", tmp_path / "o.obj", "--iters", "1"]
    assert run(command, *argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err
    assert not (tmp_path / "o.obj").exists()


def test_filter_coincident_vertices_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 1 2 3\nv 1 2 3\nv 1 2 3\nf 1 2 3\n")
    out, trace = tmp_path / "o.obj", tmp_path / "t.csv"
    assert run("filter", "-i", bad, "-o", out, "--iters", "1",
               "--trace", trace) == 3
    assert "edge scale 0.0" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


def test_runtime_imports_only_stdlib_and_numpy():
    # site .pth files may preload modules, so only the import's additions count
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import gcfmesh, gcfmesh.cli\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "allowed = set(sys.stdlib_module_names) | {'numpy', 'gcfmesh'}\n"
            "print(sorted(new - allowed))\n")
    src = os.path.dirname(os.path.dirname(g.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout == "[]\n"


def test_label_colors_match_palette_and_hash():
    from gcfmesh.cli import _PALETTE, _label_colors

    labels = np.arange(41, dtype=np.int32)[::-1]
    expect = []
    for lab in labels.tolist():
        if lab < len(_PALETTE):
            expect.append(tuple(_PALETTE[lab].tolist()))
        else:
            h = (lab * 2654435761) & 0xFFFFFF
            expect.append((h >> 16, (h >> 8) & 0xFF, h & 0xFF))
    got = _label_colors(labels)
    assert got.dtype == np.int64
    assert [tuple(c) for c in got.tolist()] == expect
    assert _label_colors(np.array([3, 0], dtype=np.int32)).tolist() == [
        [0, 130, 200], [230, 25, 75]]


def _domain_count(path):
    return g.greedy_domain_decomposition(g.build_topology(load_mesh(path))).domain_count


@pytest.mark.parametrize("command", ["filter", "noise", "gen", "color", "smooth"])
def test_manifest_schema(tmp_path, command):
    sphere = tmp_path / "s.obj"
    noisy = tmp_path / "n.obj"
    run("gen", "--kind", "icosphere", "--subdiv", "2", "-o", sphere)
    run("noise", "-i", sphere, "-o", noisy, "--sigma", "0.3", "--seed", "3")
    out = tmp_path / ("out.ply" if command == "color" else "out.obj")
    argv, phases, extra = {
        "filter": (["-i", noisy, "--iters", "2"],
                   {"load", "topology", "color", "filter", "save"},
                   {"input": str(noisy), "output": str(out),
                    "domains": _domain_count(noisy)}),
        "noise": (["-i", sphere, "--seed", "5"],
                  {"load", "topology", "noise", "save"}, {"seed": 5}),
        "gen": (["--kind", "icosphere", "--subdiv", "2"],
                {"generate", "save"}, {"vertices": 162, "faces": 320}),
        "color": (["-i", sphere], {"load", "topology", "color", "save"},
                  {"domains": _domain_count(sphere)}),
        "smooth": (["-i", noisy, "--method", "taubin", "--iters", "2"],
                   {"load", "topology", "smooth", "save"}, {}),
    }[command]
    manifest = tmp_path / "run.json"
    assert run(command, *argv, "-o", out, "--manifest", manifest) == 0
    doc = json.loads(manifest.read_text())
    assert set(doc) == {"tool", "version", "command", "arguments",
                        "timings_seconds"} | set(extra)
    assert doc["tool"] == "gcfmesh"
    assert doc["version"] == g.__version__
    assert doc["command"] == command
    assert doc["arguments"]["command"] == command
    assert doc["arguments"]["output"] == str(out)
    assert doc["arguments"]["manifest"] == str(manifest)
    assert "func" not in doc["arguments"]
    assert set(doc["timings_seconds"]) == phases
    assert all(t >= 0.0 for t in doc["timings_seconds"].values())
    assert {k: doc[k] for k in extra} == extra


def test_subcommand_options_are_pinned():
    import argparse

    from gcfmesh.cli import _build_parser

    common = {"-h", "--help"}
    io = {"-i", "--input", "-o", "--output"}
    want = {
        "filter": io | {"--manifest", "--iters", "--threads", "--trace"},
        "metrics": {"--ref", "--test", "--bins", "--clip"},
        "noise": io | {"--manifest", "--sigma", "--seed", "--mode"},
        "gen": {"-o", "--output", "--manifest", "--kind", "--subdiv",
                "--segments", "--rings", "--res", "--radius", "--height",
                "--size", "--spacing"},
        "color": io | {"--manifest"},
        "curvature": io | {"-v", "--verbose"},
        "smooth": io | {"--manifest", "--method", "--iters", "--lam", "--mu"},
        "bench": io | {"--iters", "--threads"},
        "stats": {"-i", "--input"},
    }
    parser = _build_parser()
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    got = {name: {s for a in p._actions for s in a.option_strings}
           for name, p in sub.choices.items()}
    assert got == {name: opts | common for name, opts in want.items()}


def test_threads_env_not_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GCF_THREADS", "abc")
    grid_path = tmp_path / "g.obj"
    assert run("gen", "--kind", "grid", "--res", "2", "-o", grid_path) == 0
    assert run("stats", "-i", grid_path) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        run("filter", "-i", grid_path, "-o", tmp_path / "o.obj", "--iters", "1")
    assert exit_info.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "o.obj").exists()


def test_threads_env_empty_means_zero(tmp_path, monkeypatch):
    monkeypatch.setenv("GCF_THREADS", "")
    grid_path = tmp_path / "g.obj"
    run("gen", "--kind", "grid", "--res", "2", "-o", grid_path)
    manifest = tmp_path / "m.json"
    assert run("filter", "-i", grid_path, "-o", tmp_path / "o.obj",
               "--iters", "1", "--manifest", manifest) == 0
    assert json.loads(manifest.read_text())["arguments"]["threads"] == 0


@pytest.mark.parametrize("command,argv,action", [
    ("filter", ["--iters", "40"], "gcf_filter"),
    ("noise", [], "add_noise"),
    ("smooth", [], "laplacian_smooth"),
    ("gen", ["--kind", "grid"], "generate_mesh"),
])
def test_bad_output_format_fails_before_the_work(tmp_path, monkeypatch, capsys,
                                                 command, argv, action):
    import gcfmesh.cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("the work ran before the output format was checked")

    for name in ("load_mesh", "build_topology", action):
        monkeypatch.setattr(gcfmesh.cli, name, must_not_run)
    if command != "gen":
        argv = ["-i", tmp_path / "in.obj"] + argv
    out = tmp_path / "out.stl"
    assert run(command, *argv, "-o", out) == 2
    assert capsys.readouterr().err == "error: cannot write format 'stl' to 'out.stl'\n"
    assert not out.exists()


def test_curvature_bad_suffix_fails_before_the_work(tmp_path, monkeypatch, capsys):
    import gcfmesh.cli

    calls = []
    for name in ("load_mesh", "build_topology", "gaussian_curvature"):
        monkeypatch.setattr(gcfmesh.cli, name,
                            lambda *args, name=name, **kwargs: calls.append(name))
    out = tmp_path / "k.txt"
    assert run("curvature", "-i", tmp_path / "in.obj", "-o", out) == 3
    assert calls == []
    assert capsys.readouterr().err == \
        "error: curvature export requires .csv or .ply\n"
    assert not out.exists()


def _huge_obj(tmp_path):
    path = tmp_path / "huge.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1e300 0\nf 1 2 3\n")
    return path


def test_stats_overflowing_edge_length_exit_code(tmp_path, capsys):
    assert run("stats", "-i", _huge_obj(tmp_path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflow" in captured.err


def test_filter_overflowing_edge_scale_exit_code(tmp_path, capsys):
    out = tmp_path / "o.obj"
    with np.errstate(over="ignore"):
        assert run("filter", "-i", _huge_obj(tmp_path), "-o", out,
                   "--iters", "1") == 3
    assert "coordinates too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".csv", ".ply"])
def test_curvature_overflowing_ring_area_exit_code(tmp_path, capsys, suffix):
    out = tmp_path / f"k{suffix}"
    assert run("curvature", "-i", _huge_obj(tmp_path), "-o", out, "-v") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: ring area overflows to inf "
                            "(are the coordinates too large to square?)\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [("stats",), ("noise", "-o", "n.obj"),
                                  ("filter", "-o", "f.obj", "--iters", "1")])
def test_overflowing_mesh_named_without_warning(tmp_path, argv):
    """In a fresh interpreter with default warning filters, stderr holds the
    one error line naming the overflow, and no output is written."""
    src = os.path.dirname(os.path.dirname(g.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run(
        [sys.executable, "-m", "gcfmesh.cli", argv[0], "-i", str(_huge_obj(tmp_path)),
         *argv[1:]], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == ("error: mean edge length overflows to inf "
                           "(are the coordinates too large to square?)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.obj"]
