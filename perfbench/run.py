"""gcfmesh benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload sweep_100k_t2 --seed 1 --seconds 12 --trace 0

The library is imported from `src/` beside this directory and driven from
this one process with at most two filter threads. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it times the same operations
with and without spans around every library call and reports the per-layer
metrics. The last line of standard output is the JSON result; provenance and
the spans go to `.perfbench_out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def main(argv=None):
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gcfmesh", "__init__.py")):
        print(f"perfbench: no gcfmesh sources in {src}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, src)
    import measure
    from workloads import WORKLOADS, CheckFailed

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every mesh, for the smoke test")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measure.run(args, ROOT, OUT_DIR, workdir)
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
