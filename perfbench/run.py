"""Benchmark of logsurf: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports logsurf from ``src/`` of
that checkout.  Workloads, metrics and units are listed in
``BENCHMARK.json``; the workloads themselves are in ``workloads.py``.

Each run is a single-threaded closed loop with one client in a fresh
worker process (``worker.py``).  BLAS and OpenMP thread counts are set
to 1 for the benchmark's processes only.  Every reported time is scaled
to a nominal machine speed by a reference computation timed next to it
(``speed.py``); the unscaled figures go to stderr.

* ``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the
  median over ``SETUP_PROBES`` extra fresh processes and the measuring
  one, each timed from before ``import logsurf`` until its inputs are
  ready.  ``pass_ratio`` is passed ops over attempted ops, so that a
  metric which is 0 on a working program (the fail ratio) is not given
  a relative bound; the failed count itself is the result's ``failed``.
* ``--trace 1`` runs half the time untraced and half with
  ``layertrace`` installed, then the kernel sweep of ``kernels.py``,
  and reports the per-layer metrics.  End-to-end numbers never come
  from a traced run.

Before the result it prints one line ``{"environment": {...}}`` with
the python and numpy versions, CPU count and model, load average at
start, git commit (when the checkout is a git repository) and seed.
The last stdout line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="logsurf benchmark: one workload, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    try:
        if args.seed < 0 or args.seconds < 1:
            raise BenchError("need --seed >= 0 and --seconds >= 1")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        for needed in ("src/logsurf/__init__.py", "scenarios"):
            if not (ROOT / needed).exists():
                raise BenchError(f"{ROOT / needed} is missing; run from a checkout of the repository")

        for var in THREAD_VARS:
            os.environ[var] = "1"
        print(json.dumps({"environment": environment(args.seed)}), flush=True)

        common = ["--workload", args.workload, "--seed", str(args.seed)]
        probes = [
            run_worker(common + ["--setup-only"], deadline)
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        result = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        metrics = result["metrics"]
        if not args.trace:
            probes.append(result)
            metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
            raw = statistics.median(p["setup_raw_s"] for p in probes)
            print(f"unscaled: setup_s={raw:.4g}", file=sys.stderr)

        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for gate in result["gates"]:
        print(f"gate failed: {gate}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["gates"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
