"""gridpose benchmark entry point: one workload, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload infer_encoder --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

import argparse
import ctypes
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# One BLAS thread: steadier than two on a shared 2-core machine, and the same
# setting on every machine. Pinned before numpy is first imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters whose import of the benchmark (numpy and gridpose
# included) is timed; setup_s takes the median.
IMPORT_REPS = 5
# glibc mallopt parameters. By default every large numpy array is mmapped
# and unmapped again, and the page faults of one infer_crowd call (0.4-1.9 s
# of system time on a 2-core x86_64 VM) varied more than its compute. With
# mmap and trimming off, freed memory is reused and a call's time is its
# compute; memory use itself is measured by peak_rss_mb.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4


def pin_malloc():
    """Keep freed heap memory mapped; returns how malloc is configured."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None or not (mallopt(M_MMAP_MAX, 0) and mallopt(M_TRIM_THRESHOLD, 2**31 - 1)):
        return "default"
    return "glibc: mmap off, trim threshold 2 GiB"


def import_seconds(src):
    """Median wall time of `import bench` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import bench; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.abspath(__file__)), src]))
    times = []
    for _ in range(IMPORT_REPS):
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True)
        times.append(float(child.stdout))
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description="gridpose benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gridpose", "__init__.py")):
        print("perfbench: no gridpose sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    malloc = pin_malloc()
    import_s = import_seconds(src)
    sys.path.insert(0, src)
    import bench

    if args.workload not in bench.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.workloads.WORKLOADS)}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        bench.run(args.workload, args.seed, args.seconds, args.trace, workdir, import_s,
                  {"blas_threads": BLAS_THREADS, "malloc": malloc})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
