"""Benchmark of libags: end-to-end selection cost and per-layer traced times.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pool-d64 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One process imports ``libags`` from the checkout's ``src/``, builds the
workload's inputs from ``--seed``, sets up (and warms up) several times,
then repeats the workload's iteration for ``--seconds`` and checks every
iteration's output. With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced iterations on the
same inputs and prints per-layer metrics from the traced iteration with
the median wall time. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the environment, sample counts, computed memory sizes and the
sha256 digests of the reproducible reports. ``--smoke`` runs every
workload at a tiny size in both modes and asserts that each metric in
BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
TRACE_MIN_ITERATIONS = 4  # two untraced/traced pairs

END_TO_END_UNITS = {
    "wall_s": "s",
    "candidates_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MiB",
    "libags_accuracy": "fraction",
    "libags_auroc": "fraction",
}


def import_libags() -> float:
    """Import libags from this checkout's src/ and return the seconds it took."""
    package = ROOT / "src" / "libags"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a libags checkout")
    sys.path.insert(0, str(package.parent))
    start = time.perf_counter()
    import libags

    elapsed = time.perf_counter() - start
    if Path(libags.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported libags from {libags.__file__}, not from {package}")
    return elapsed


def _blas_threads(np):
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return "unknown, OPENBLAS_NUM_THREADS=" + os.environ.get("OPENBLAS_NUM_THREADS", "unset")


def host_reference() -> dict:
    """Median seconds of two fixed yardsticks of how fast the host runs right now.

    A pure-Python loop times the interpreter; strided column reads of a
    64 MiB matrix, the greedy's access pattern, time memory access, which on
    a shared host can slow down while the interpreter does not.
    """
    import numpy as np

    matrix = np.ones((2048, 4096))
    loop, memory = [], []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for k in range(1_000_000):
            total += k
        loop.append(time.perf_counter() - start)
        start = time.perf_counter()
        for j in range(0, matrix.shape[1], 4):
            matrix[:, j].sum()
        memory.append(time.perf_counter() - start)
    return {"host_python_loop_s": round(statistics.median(loop), 4), "host_memory_s": round(statistics.median(memory), 4)}


def environment() -> dict:
    """What the numbers depend on, so results from different machines are never compared silently."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "cores_available": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        **host_reference(),
    }


class Run:
    """One workload measured in one process: set-up, iterations, checks."""

    def __init__(self, workload_cls, seed: int, scale: str, workdir: Path):
        self.workload_cls = workload_cls
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.reports: dict = {}  # input key -> first reproducible report text

    def set_up(self) -> list:
        """Build the workload SETUP_REPEATS times; returns each set-up's seconds."""
        seconds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload = self.workload_cls(self.seed, self.scale, self.workdir)
            self.workload.setup()
            seconds.append(time.perf_counter() - start)
        return seconds

    def iteration(self, i: int, tracer=None):
        """Time one iteration and check its output; returns (seconds, outcome) or None on failure.

        With a tracer, only the workload's own call runs traced; the checks
        after it do not add spans.
        """
        import libags
        from workloads import check_report, digest

        self.attempted += 1
        try:
            with tracer.installed(libags, self.workload.root) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                outcome = self.workload.iterate(i)
                elapsed = time.perf_counter() - start
            self.workload.finish(outcome)
            problems = []
            for key, text in outcome.reports.items():
                problems += check_report(json.loads(text))
                self.reports.setdefault(key, text)
                if self.digests.setdefault(key, digest(text)) != digest(text):
                    problems.append(f"report for input {key} differs from an earlier iteration")
            problems += self.workload.check(outcome)
        except Exception:  # a failed iteration is counted, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print(f"iteration {i} failed its checks: {problems}", file=sys.stderr)
            self.failed += 1
            return None
        return elapsed, outcome


def _median_traced(traced):
    """The per-layer metrics of the traced iteration with the (lower) median wall time."""
    ordered = sorted(traced.values(), key=lambda metrics: metrics["trace.wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str, import_s: float) -> dict:
    """Run one workload and return the result object; prints the context lines."""
    import libags
    from spans import Tracer, per_layer_units
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload_cls, seed, scale, workdir)
        setup_seconds = run.set_up()
        workload = run.workload
        tracer = Tracer()
        walls, traced, last = {}, {}, None  # keyed by input index
        min_iterations = TRACE_MIN_ITERATIONS if trace else workload.min_iterations
        start = time.perf_counter()
        i = 0
        # Start another iteration only while it should end within --seconds.
        while i < min_iterations or (time.perf_counter() - start) * (i + 1) / i <= seconds:
            index = i // 2 if trace else i  # a traced iteration reuses the untraced one's inputs
            if trace and i % 2:
                tracer.reset()
                result = run.iteration(index, tracer)
                if result is not None:
                    traced[index] = tracer.iteration_metrics()
            else:
                result = run.iteration(index)
                if result is not None:
                    walls[index] = result[0]
                    last = result[1]
            i += 1
        if not walls or (trace and not traced):
            raise SystemExit(f"error: {name}: every iteration failed")
        wall = statistics.median(walls.values())
        print(f"wall_s {wall:.4f} s: median of {len(walls)} untraced iterations {[round(w, 3) for w in walls.values()]}")

        if trace:
            # Lower medians, so the per-layer figures come from one real
            # iteration and add up to trace.wall_s = untraced + overhead.
            metrics = _median_traced(traced)
            metrics["trace.untraced_wall_s"] = statistics.median_low(walls.values())
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
            print(f"per-layer metrics from the median of {len(traced)} traced iterations, alternated with the untraced ones on equal inputs")
            units = per_layer_units()
        else:
            # Peak memory in its own untimed pass; the tracer only reads call
            # arguments there, to state the sizes the layers compute.
            tracer.reset()
            tracemalloc.start()
            try:
                run.iteration(i, tracer)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            computed = tracer.iteration_metrics()
            accuracy, auroc = workload.quality(run.reports)
            metrics = {
                "wall_s": wall,
                "candidates_per_s": last.n_candidates / wall,
                "setup_s": import_s + statistics.median(setup_seconds),
                "peak_mem_mb": peak / 2**20,
                "libags_accuracy": accuracy,
                "libags_auroc": auroc,
            }
            print(f"candidates_per_s at M={last.n_candidates} candidates per iteration")
            print(f"setup_s: import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups "
                  f"{[round(s, 4) for s in setup_seconds]} (inputs, CSV files, warm-up at reduced size)")
            print(f"peak_mem_mb {metrics['peak_mem_mb']:.1f} MiB beside computed sizes: similarity matrix (M^2*8) "
                  f"{computed['geometry.similarity_bytes_computed'] / 2**20:.1f} MiB, k-means distance temporary (M*K*d*8) "
                  f"{computed['select.kmeans_temp_bytes_computed'] / 2**20:.1f} MiB")
            units = END_TO_END_UNITS
        for key, value in run.digests.items():
            print(f"digest input={key} sha256={value}")
        print(f"error_rate {run.failed / run.attempted:.4f}: {run.failed} of {run.attempted} iterations failed")
        return {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {metric: {"value": metrics[metric], "unit": unit} for metric, unit in units.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke(import_s: float) -> int:
    """Run every workload tiny in both modes; check each BENCHMARK.json metric and its unit."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(name, 0, 0.0, trace, "smoke", import_s)
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} of {result['attempted']} iterations failed")
            for entry in spec[section]:
                got = result["metrics"].get(entry["name"])
                if got is None:
                    problems.append(f"{name} trace={int(trace)}: {entry['name']} missing")
                elif got["unit"] != entry["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{name} trace={int(trace)}: {entry['name']} = {got}, expected unit {entry['unit']}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("pool-d64", "moons-cli", "moons-bench"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload that checks the emitted metrics")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    import_s = import_libags()
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.smoke:
        return smoke(import_s)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full", import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
