"""Record the correctness references the benchmark compares outputs against.

Run from the checkout root, at a commit whose outputs are known good:

    python3 orthbench/record.py

It runs every fixed command of every workload at both scopes (seed 0) and
stores the sha256 of its JSON stdout with its `checked` count. For
`classify`, whose q values depend on the seed, it stores per q the class of
the first witness (shape (2, 1)) and the per-q `checked` count, from which
`workloads.expected_stdout` rebuilds the expected output for any draw.
Rewrites `orthbench/references.json`; review its diff before committing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import (
    CLASSIFY_Q_COUNT, Q_POOL_LIMIT, SIZES, WORKLOADS, canonical, check_output, commands,
    odd_prime_powers, reference_key, sha256,
)

HERE = Path(__file__).resolve().parent
WITNESS_LIMIT = 8  # the CLI's default --witness-limit


def run_cli(argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path.cwd() / "src")}
    proc = subprocess.run([sys.executable, "-m", "orthdet.cli", *argv, "--format", "json"],
                          capture_output=True, text=True, env=env, check=True)
    payload = json.loads(proc.stdout)
    if canonical(payload) != proc.stdout:
        raise SystemExit(f"non-canonical JSON from {argv}")
    return payload


def git_commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def main() -> int:
    if min(CLASSIFY_Q_COUNT.values()) < WITNESS_LIMIT:
        raise SystemExit("classify draws fewer q values than the witness limit")
    pool = odd_prime_powers(Q_POOL_LIMIT)
    rows = run_cli(["verify-parker", "--family", "unipotent", "--n-max", "3",
                    "--q", ",".join(map(str, pool)), "--witness-limit", str(len(pool)),
                    "--jobs", "1"])["witnesses"]
    if [r["shapes"] for r in rows] != [[[2, 1]]] * len(pool) or [r["q"] for r in rows] != pool:
        raise SystemExit("unexpected witnesses for n <= 3")
    refs = {
        "recorded_at": git_commit(),
        "commands": {},
        "classify": {
            "witness_limit": WITNESS_LIMIT,
            "checked_per_q": {
                scope: run_cli(["verify-parker", "--family", "unipotent", "--n-max",
                                str(SIZES[scope]["classify_n"]), "--q", "3"])["checked"]
                for scope in SIZES
            },
            "shape_21_class": {str(r["q"]): r["class"] for r in rows},
        },
    }
    for scope in SIZES:
        for workload in WORKLOADS:
            if workload == "classify":
                continue
            for cmd in commands(workload, 0, scope):
                payload = run_cli(list(cmd.argv))
                refs["commands"][reference_key(workload, cmd, scope)] = {
                    "sha256": sha256(canonical(payload)),
                    "checked": payload.get("checked", 0),
                }
    # Every recorded reference must accept the output it was made from.
    for scope in SIZES:
        for workload in WORKLOADS:
            for cmd in commands(workload, 0, scope):
                stdout = canonical(run_cli(list(cmd.argv)))
                errors = check_output(workload, cmd, scope, 0, stdout, refs)
                if errors:
                    raise SystemExit(f"{scope}/{workload}/{cmd.name}: {errors}")
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(refs['commands'])} commands and {len(pool)} classify q values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
