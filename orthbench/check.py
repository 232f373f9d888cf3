"""Self-test of the benchmark itself; run from the checkout root:

    python3 orthbench/check.py

1. Every workload runs at the tiny scope, untraced and traced, and prints
   exactly the metric names and units that BENCHMARK.json declares.
2. The correctness gate accepts real outputs and trips when a stored
   reference is altered.
3. Self times come out right on a synthetic span tree.
4. Without the orthdet sources the benchmark exits non-zero and prints no
   result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from spans import Tracer, self_times, summarize
from workloads import WORKLOADS, check_output, commands, reference_key

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "orthbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scope", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metric_names(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            proc = run_bench(workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {result['failed']} of "
                     f"{result['attempted']} commands failed: {proc.stderr}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared:
                fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json {key}: "
                     f"{sorted(set(printed) ^ set(declared))}")
            if not trace and not all(m["value"] > 0 for m in result["metrics"].values()):
                fail(f"{workload}: an end-to-end metric is not positive")
        print(f"ok: every workload prints its {key} metrics with their units")


def check_gate_trips() -> None:
    refs = json.loads((HERE / "references.json").read_text())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for workload in WORKLOADS:
        cmd = commands(workload, 5, "tiny")[0]
        proc = subprocess.run([sys.executable, "-m", "orthdet.cli", *cmd.full_argv()],
                              capture_output=True, text=True, env=env)
        errors = check_output(workload, cmd, "tiny", proc.returncode, proc.stdout, refs)
        if errors:
            fail(f"gate rejects a correct {workload} output: {errors}")
        corrupted = copy.deepcopy(refs)
        if workload == "classify":
            q = cmd.argv[cmd.argv.index("--q") + 1].split(",")[0]
            corrupted["classify"]["shape_21_class"][q]["squarefree"] += "1"
        else:
            entry = corrupted["commands"][reference_key(workload, cmd, "tiny")]
            entry["sha256"] = entry["sha256"][::-1]
        errors = check_output(workload, cmd, "tiny", proc.returncode, proc.stdout, corrupted)
        if "stdout differs from the recorded reference" not in errors:
            fail(f"gate accepts {workload} output against a corrupted reference")
        bad_exit = check_output(workload, cmd, "tiny", 2, proc.stdout, refs)
        if "exit code 2" not in bad_exit:
            fail("gate accepts a non-zero exit code")
        if not check_output(workload, cmd, "tiny", 0, "{}\n", refs):
            fail("gate accepts an empty JSON object")
    print("ok: the gate accepts real outputs and trips on corrupted references")


def check_self_times() -> None:
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    spans = [["x.a", 0.0, 10.0, -1], ["x.b", 1.0, 4.0, 0], ["y.c", 2.0, 3.0, 1],
             ["x.d", 5.0, 9.0, 0]]
    if self_times(spans) != [3.0, 2.0, 1.0, 4.0]:
        fail(f"self times {self_times(spans)}")
    if summarize(spans) != ({"x.a": 3.0, "x.b": 2.0, "y.c": 1.0, "x.d": 4.0},
                            {"x.a": 1, "x.b": 1, "y.c": 1, "x.d": 1}):
        fail(f"summary {summarize(spans)}")

    tracer = Tracer()
    inner = tracer.wrap("t.inner", lambda v: v + 1)
    outer = tracer.wrap("t.outer", lambda v: inner(v) + inner(v))
    if outer(1) != 4 or [(s[0], s[3]) for s in tracer.spans] != [
        ("t.outer", -1), ("t.inner", 0), ("t.inner", 0)
    ]:
        fail(f"wrapped spans {tracer.spans}")
    own = self_times(tracer.spans)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    if abs(sum(own) - total) > 1e-9 or min(own) < 0:
        fail(f"self times {own} do not partition the root's {total} s")
    print("ok: self times on synthetic span trees")


def check_fails_without_sources() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "orthbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("sweep", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("the benchmark succeeded without orthdet sources")
    print("ok: without sources the benchmark exits", proc.returncode, "and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_self_times()
    check_gate_trips()
    check_fails_without_sources()
    check_metric_names(spec)
    print("all benchmark checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
