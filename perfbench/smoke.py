"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py                              # tiny meshes, about a minute
    python3 perfbench/smoke.py --scale full --seconds 20    # the real sizes

Runs every workload of BENCHMARK.json untraced and traced, prints every
metric with its unit, and checks that the result line is well formed, that
every output check passed, and that each metric BENCHMARK.json names appears
with its unit. It also checks that the benchmark refuses to run, without
printing a result, when the library sources are missing. Exits non-zero on
any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=900)


def check_result(spec, workload, trace, scale, seconds):
    done = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", str(seconds),
               "--trace", str(trace), "--scale", scale)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-400:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not trace:
        hi = json.loads(lines[-2].split(" ", 1)[1])["wall_s_hi"]
        print(f"{where}  wall_s_hi {hi['value']!r} {hi['unit']} "
              f"(percentile {hi['percentile']:g} of {hi['samples']} operations)")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics/units {got} != {wanted}")
    for name, metric in result["metrics"].items():
        print(f"{where}  {name} {metric['value']!r} {metric['unit']}")
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} value {metric['value']!r}")
    return problems


def check_refuses_without_library():
    """A tree holding only BENCHMARK.json and the benchmark must not run."""
    bare = os.path.join(ROOT, ".perfbench_out", f"smoke-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run(bare, "--workload", "sweep_100k_t2", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["benchmark ran without the library sources"]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=("tiny", "full"), default="tiny")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = check_refuses_without_library()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, workload["name"], trace,
                                     args.scale, args.seconds)
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
