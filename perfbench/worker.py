"""One benchmark process: set-up, then a closed loop of ops (see run.py).

    python3 perfbench/worker.py --workload NAME --seed N [--seconds S] [--trace 0|1] [--setup-only]

Prints one JSON object on its last stdout line.  The clock for set-up
starts before ``import logsurf`` and stops when the workload's inputs
are ready.  Every time is scaled to nominal machine speed (speed.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_TRACEBACKS = 3


class Loop:
    """A single client that sends op i + 1 only after op i completed."""

    def __init__(self, workload):
        self.workload = workload
        self.next_op = 0
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float) -> tuple[list[float], list[float], list[float]]:
        """Run ops for `seconds`, then up to the end of the current group.

        The reference runs before the first op and after each op; an op's
        time is scaled by the samples on either side of it.  Returns the
        scaled and the raw latency of each op in seconds, and every
        reference sample.
        """
        import speed

        clock = time.perf_counter
        scaled, raw, refs = [], [], []
        deadline = clock() + seconds
        before = speed.sample()
        while True:
            t = clock()
            try:
                ok = self.workload.op(self.next_op)
            except Exception:
                ok = False
                if self.failed < MAX_TRACEBACKS:
                    traceback.print_exc()
            elapsed = clock() - t
            after = speed.sample()
            raw.append(elapsed)
            scaled.append(speed.scale(elapsed, before, after))
            refs.extend(after)
            before = after
            self.next_op += 1
            self.attempted += 1
            self.failed += not ok
            if clock() >= deadline and self.next_op % self.workload.group == 0:
                return scaled, raw, refs


def latency_metrics(latencies: list[float], group: int) -> dict:
    """p50 is the median over groups of each group's median.

    With group 1 that is the plain median.  scenario_batch cycles
    through files whose costs lie 5-80 ms apart, so the plain median of
    the mix falls in the gap between the fourth and fifth file and jumps
    with the last few samples; the median over whole passes does not.
    """
    medians = [statistics.median(latencies[j:j + group]) for j in range(0, len(latencies), group)]
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    return {
        "latency_p50_ms": statistics.median(medians) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
    }


def plain_run(loop: Loop, seconds: float) -> dict:
    scaled, raw, refs = loop.run(seconds)
    if len(scaled) < 100:
        print(f"warning: {len(scaled)} ops; p90 wants at least 100", file=sys.stderr)
    group = loop.workload.group
    metrics = latency_metrics(scaled, group)
    metrics["pass_ratio"] = (loop.attempted - loop.failed) / loop.attempted
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unscaled = latency_metrics(raw, group)
    print(
        "unscaled: " + " ".join(f"{k}={v:.4g}" for k, v in unscaled.items())
        + f" reference_median_ms={statistics.median(refs) * 1e3:.4f}",
        file=sys.stderr,
    )
    return {"metrics": metrics, "gates": []}


def traced_run(loop: Loop, seconds: float, seed: int) -> dict:
    """Untraced half, traced half, then the kernel sweep with no trace installed."""
    import kernels
    import layertrace
    import speed
    from logsurf import config

    plain, _, _ = loop.run(seconds / 2)
    trace = layertrace.LayerTrace()
    trace.install()
    try:
        traced, _, refs = loop.run(seconds / 2)
    finally:
        trace.restore()
    gates = [f"wrapper left bound at {name}" for name in layertrace.bound_wrappers()]

    metrics = trace.metrics(len(traced), speed.scale(1.0, refs))
    metrics.update(kernels.sweep(seed))
    if config.get_trunc_order() != config.DEFAULT_TRUNC_ORDER:
        gates.append(f"truncation order left at {config.get_trunc_order()}")
    wl = loop.workload
    metrics["trace_overhead_ratio"] = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
    metrics["reflect.oracle_rel_err_max"] = wl.worst_err
    metrics["cli.bytes_written_per_op"] = wl.bytes_written / loop.attempted
    metrics["fail_ratio"] = loop.failed / loop.attempted
    for line in trace.report():
        print(line, file=sys.stderr)
    return {"metrics": metrics, "gates": gates}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if not Path(workloads.ls.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: logsurf imported from {workloads.ls.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    setup_raw = time.perf_counter() - start
    # Imported only now: it loads numpy, whose import set-up must pay for.
    import speed

    setup_s = speed.scale(setup_raw, speed.sample(9))
    loop = Loop(wl)
    try:
        if args.setup_only:
            result = {"metrics": {}, "gates": []}
        elif args.trace:
            result = traced_run(loop, args.seconds, args.seed)
        else:
            result = plain_run(loop, args.seconds)
    finally:
        wl.close()
    result.update(setup_s=setup_s, setup_raw_s=setup_raw, attempted=loop.attempted, failed=loop.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
