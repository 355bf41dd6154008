"""gmbayes benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, each in a fresh process

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run. The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Each run also writes its result, with a description of the
machine, and its spans to ``.perfbench/`` under the repository root. The
program is imported from ``src/``; nothing is installed.

Exit codes: 0 when every output check passed, 1 when a check failed, 2 when
the program could not be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# One BLAS thread per process, so that 2 sweep workers x 1 BLAS thread fit on
# 2 cores and the sweep's bytes do not depend on the BLAS thread count.
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_CHILDREN = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gmbayes").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def blas_threads_in_use() -> int | None:
    """Ask the OpenBLAS bundled with numpy for its thread count, if it is there."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def child_import_seconds() -> float:
    """Time ``import gmbayes`` in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import gmbayes; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def run_one(args) -> int:
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import gmbayes  # noqa: F401  (timed: the import is part of setup_s)

    # The import is timed here and in IMPORT_CHILDREN fresh interpreters; setup_s takes the median.
    import_s = statistics.median(
        [time.perf_counter() - start] + [child_import_seconds() for _ in range(IMPORT_CHILDREN)]
    )

    import suite
    from metrics import unit

    result = suite.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    checks = result.checks
    env = environment()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for note in result.notes:
        print(f"  # {note}")
    for name, value in result.metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit(name)}")
    print(f"  {'error_rate':<44} {checks.failed / checks.attempted:>16.6g} "
          f"({checks.failed} failed of {checks.attempted} checked)")
    for message in checks.messages:
        print(f"  FAILED {message}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "notes": result.notes,
        "attempted": checks.attempted, "failed": checks.failed, "failures": checks.messages,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in result.metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write(OUT_DIR / f"{stem}-spans.json")

    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    worst, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        print(proc.stdout, end="")
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1):
            summary["correct"] = False
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gmbayes" / "__init__.py").is_file():
        print(f"error: the program's source is not at {SRC / 'gmbayes'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
