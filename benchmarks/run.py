"""Benchmark of wavegplm: one workload per run, one JSON result line.

    python3 benchmarks/run.py --workload mc-gaussian-n256 --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports ``wavegplm`` from its
``src/``. With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, whose spans go to ``benchmarks/out/``. ``correct`` in the
result says whether every output passed its checks. A checkout without
``src/wavegplm`` exits with code 2 and prints no result. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Fix the BLAS thread count before numpy is imported: n is at most 65536
# and p at most 2, so BLAS threads would add noise and no speed.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-ups measured per untraced run (one in this process, the rest in
#: fresh interpreters, so that the import of wavegplm is cold each time)
SETUP_SAMPLES = 7


def fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import wavegplm from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wavegplm
    except ImportError as exc:
        fail(f"cannot import wavegplm from {src}: {exc}")
    if not Path(wavegplm.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"wavegplm imported from {wavegplm.__file__}, not from {src}")
    return wavegplm


def set_up(name: str, seed: int, workdir: str, tracer=None):
    """Import the package, make the workload's inputs, make one warm-up call."""
    started = time.perf_counter()
    import_package()
    if tracer is not None:
        tracer.install()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        fail(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]()
    workload.setup(seed, workdir)
    return workload, time.perf_counter() - started


def setup_sample(name: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        fail(f"set-up failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def timed_rounds(workload, seconds: float):
    """Repeat whole rounds while the next one is expected to end within
    ``seconds`` of timed work; at least one round."""
    times, rounds = [], []
    while True:
        started = time.perf_counter()
        output = workload.run_round()
        times.append(time.perf_counter() - started)
        rounds.append(workload.check(output))
        if sum(times) + times[-1] > seconds:
            return times, rounds


def machine() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            workload, setup_s = set_up(args.workload, args.seed, workdir)
            print(repr(setup_s))
            return 0
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        workload, setup_s = set_up(args.workload, args.seed, workdir, tracer)
        setups = [setup_s]
        if not args.trace:
            setups += [setup_sample(args.workload, args.seed)
                       for _ in range(SETUP_SAMPLES - 1)]
        if tracer is not None:
            tracer.reset()
        times, rounds = timed_rounds(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    # The fastest round and the fastest set-up: the host's speed drifts
    # with the load of other tenants, and the fastest sample is the one
    # that load touched least.
    wall_s = min(times)
    print(f"# {args.workload} seed {args.seed}: {len(times)} rounds of "
          f"{wall_s:.4g} to {max(times):.4g} s (median {statistics.median(times):.4g} s), "
          f"{attempted} fits attempted, {failed} failed, machine {json.dumps(machine())}")
    if tracer is not None:
        figures = tracer.layer_metrics(len(rounds))
        figures["cli.output_bytes"] = (sum(r.output_bytes for r in rounds) / len(rounds), "bytes")
        figures["trace.wall_s"] = (wall_s, "s")
        tracer.write(OUT / f"trace-{args.workload}.tsv")
    else:
        returned = (attempted - failed) / len(rounds)
        figures = {
            "setup_s": (min(setups), "s"),
            "wall_s": (wall_s, "s"),
            "fits_per_s": (returned / wall_s, "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    for name, (value, unit) in figures.items():
        print(f"{name} {value:.6g} {unit}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
