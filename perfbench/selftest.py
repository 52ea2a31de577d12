"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

* Runs each workload for one second on two seeds, untraced and traced,
  and checks that no op failed and that every metric named in
  BENCHMARK.json is printed with its unit.
* Installs the trace in this process around one op of each workload and
  checks that afterwards every logsurf module attribute is bound to the
  same object as before.
* Runs the benchmark in a directory holding only BENCHMARK.json and the
  benchmark's files, where it must fail without printing a result.

Exits 0 when every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {msg}")


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )


def check_runs(spec: dict) -> None:
    for w in spec["workloads"]:
        for seed in SEEDS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                what = f"{w['name']} seed {seed} trace {trace}"
                proc = bench(ROOT, w["name"], seed, trace)
                check(proc.returncode == 0, f"{what}: exit code {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(result)}")
                check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                      f"{what}: {result['attempted']} attempted, {result['failed']} failed")
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                check(printed == {m["name"]: m["unit"] for m in spec[key]}, f"{what}: metric names or units differ")
                metrics = result["metrics"]
                if trace:
                    check(metrics["fail_ratio"]["value"] == 0, f"{what}: fail_ratio is not 0")
                else:
                    check(metrics["pass_ratio"]["value"] == 1, f"{what}: pass_ratio is not 1")
                print(f"ok  {what}: {result['attempted']} ops")


def check_trace_restores(spec: dict) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import layertrace
    import workloads

    def bindings():
        return {(mod.__name__, attr): val for mod in layertrace.logsurf_modules() for attr, val in vars(mod).items()}

    for w in spec["workloads"]:
        wl = workloads.WORKLOADS[w["name"]](ROOT, SEEDS[0])
        try:
            before = bindings()
            trace = layertrace.LayerTrace()
            trace.install()
            try:
                check(wl.op(0), f"{w['name']}: traced op failed")
            finally:
                trace.restore()
            after = bindings()
        finally:
            wl.close()
        check(trace.calls["cli.run"] > 0 or trace.calls["reflect.extend_eval"] > 0, f"{w['name']}: trace saw no calls")
        check(not layertrace.bound_wrappers(), f"{w['name']}: wrappers left bound")
        changed = [key for key, val in before.items() if after.get(key) is not val]
        check(not changed, f"{w['name']}: bindings changed: {changed[:5]}")
        print(f"ok  {w['name']}: trace restored every binding")


def check_bare_directory() -> None:
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=out_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "scenario_batch", SEEDS[0], 0)
        check(proc.returncode != 0, "a directory without the program must fail")
        check('"correct"' not in proc.stdout, "a directory without the program must print no result")
        print("ok  bare directory: exit code", proc.returncode)
    finally:
        shutil.rmtree(bare)
        try:
            out_root.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_trace_restores(spec)
    check_bare_directory()
    check_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
