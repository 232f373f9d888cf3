"""Workload definitions and the correctness gate.

A workload is a fixed list of `orthdet` CLI commands. Every command runs
with `--format json`; its stdout is checked against the package's own
invariants (ok flags, zero mismatches, odd parity of every reported class,
the pinned `checked` count) and against a reference recorded from an
earlier commit (`references.json`, written by `record.py`), since identical
invocations must print byte-identical JSON.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# `classify` draws this many q values, one from each of as many consecutive
# strata of the sorted pool. Strata keep the factorization cost of a draw
# near the pool average, so a new draw changes the inputs more than the load.
CLASSIFY_Q_COUNT = {"full": 89, "tiny": 8}
Q_POOL_LIMIT = 1000


def odd_prime_powers(limit: int) -> list[int]:
    """Odd prime powers p^k with 3 <= p^k < limit, ascending."""
    return [m for m in range(3, limit, 2) if _is_odd_prime_power(m)]


def _is_odd_prime_power(m: int) -> bool:
    p = next(d for d in range(3, m + 1, 2) if m % d == 0)  # smallest prime factor
    while m % p == 0:
        m //= p
    return m == 1


def classify_q(rng: random.Random, scope: str) -> list[int]:
    pool = odd_prime_powers(Q_POOL_LIMIT)
    count = CLASSIFY_Q_COUNT[scope]
    bounds = [round(i * len(pool) / count) for i in range(count + 1)]
    return [rng.choice(pool[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `name` is also its per-command metric stem."""

    name: str
    argv: tuple[str, ...]
    has_jobs_flag: bool

    def full_argv(self, jobs_one: bool = False) -> list[str]:
        extra = ["--jobs", "1"] if jobs_one and self.has_jobs_flag else []
        return [*self.argv, "--format", "json", *extra]


def _csv(values) -> str:
    return ",".join(map(str, values))


def _sweep(name: str, family: str, n_max: int, q=None) -> Command:
    argv = ["verify-parker", "--family", family, "--n-max", str(n_max)]
    if q is not None:
        argv += ["--q", _csv(q)]
    return Command(name, tuple(argv), True)


def _oracle(name: str, method: str, n_max: int, q, seed: int = 0) -> Command:
    argv = ["oracle-check", "--n-max", str(n_max), "--q", _csv(q), "--method", method]
    if method == "skew":
        argv += ["--seed", str(seed)]
    return Command(name, tuple(argv), False)


# Command sizes per scope. "full" is what the benchmark measures; "tiny"
# runs the same code paths in well under a second each, for check.py.
SIZES = {
    "full": {
        "symmetric": 11, "unipotent": 10, "sgnpair": 10, "sweep_q": (3, 5, 7, 9),
        "classify_n": 10, "gram": (7, (1, 3)), "skew": (5, (3, 5, 7)),
        "selftest": (),
    },
    "tiny": {
        "symmetric": 6, "unipotent": 5, "sgnpair": 4, "sweep_q": (3, 5),
        "classify_n": 4, "gram": (4, (1, 3)), "skew": (4, (3,)),
        "selftest": ("--cyclotomic-max", "20", "--parity-max", "50", "--relations-max", "3"),
    },
}


def commands(workload: str, seed: int, scope: str = "full", pass_index: int = 0) -> list[Command]:
    """The workload's commands for one pass of a seeded run, in run order.

    The seed and pass index shuffle the order of independent commands, set
    the skew oracle's seed and draw the `classify` q values. A fresh draw per
    pass lets a run's median average over several q sets instead of
    resting on one.
    """
    size = SIZES[scope]
    rng = random.Random(f"{seed}:{pass_index}")
    if workload == "sweep":
        cmds = [
            _sweep("verify_parker_symmetric", "symmetric", size["symmetric"]),
            _sweep("verify_parker_unipotent", "unipotent", size["unipotent"], size["sweep_q"]),
            _sweep("verify_parker_sgnpair", "sgnpair", size["sgnpair"], size["sweep_q"]),
        ]
    elif workload == "classify":
        return [
            _sweep("verify_parker_unipotent", "unipotent", size["classify_n"],
                   classify_q(rng, scope))
        ]
    elif workload == "oracle":
        selftest = Command("selftest", ("selftest", *size["selftest"]), False)
        cmds = [
            _oracle("oracle_check_gram", "gram", *size["gram"]),
            _oracle("oracle_check_skew", "skew", *size["skew"], seed=seed + pass_index),
            selftest,
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cmds)
    return cmds


WORKLOADS = ("sweep", "classify", "oracle")


# --- correctness gate ----------------------------------------------------------

def canonical(payload: dict) -> str:
    """The CLI's JSON serialisation (sorted keys, indent 2, trailing newline)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_key(workload: str, cmd: Command, scope: str) -> str:
    return f"{scope}/{workload}/{cmd.name}"


def expected_stdout(workload: str, cmd: Command, scope: str, refs: dict) -> tuple[str, int]:
    """(sha256 of the expected stdout, expected `checked` count)."""
    if workload == "classify":
        # The q list is drawn per seed, so the expected output is rebuilt
        # from per-q references: the sweep reports the first witnesses in
        # shape-major order, and with at least `limit` values of q these are
        # all the shape (2, 1), once per q.
        q_values = [int(v) for v in cmd.argv[cmd.argv.index("--q") + 1].split(",")]
        table = refs["classify"]
        limit = table["witness_limit"]
        if len(q_values) < limit:
            raise ValueError("classify needs at least witness_limit values of q")
        payload = {
            "checked": table["checked_per_q"][scope] * len(q_values),
            "failures": [],
            "family": "unipotent",
            "n_max": int(cmd.argv[cmd.argv.index("--n-max") + 1]),
            "ok": True,
            "q": q_values,
            "witnesses": [
                {"class": table["shape_21_class"][str(q)], "q": q, "shapes": [[2, 1]]}
                for q in q_values[:limit]
            ],
        }
        return sha256(canonical(payload)), payload["checked"]
    ref = refs["commands"][reference_key(workload, cmd, scope)]
    return ref["sha256"], ref["checked"]


def _invariant_errors(cmd: Command, payload: dict) -> list[str]:
    """The package's own success flags, and Parker's theorem: every class is odd."""
    errors = []
    if cmd.argv[0] == "verify-parker":
        if payload["ok"] is not True:
            errors.append("ok is not true")
        if payload["failures"]:
            errors.append(f"{len(payload['failures'])} parity failures")
        for row in payload["witnesses"] + payload["failures"]:
            if row["class"]["parity"] != "odd":
                errors.append(f"class of {row['shapes']} at q={row['q']} is not odd")
    elif cmd.argv[0] == "oracle-check":
        if payload["mismatches"]:
            errors.append(f"{len(payload['mismatches'])} oracle mismatches")
        for row in payload["results"]:
            if row["match"] is not True or row["formula"] != row["oracle"]:
                errors.append(f"oracle disagrees on {row['shape']} at q={row['q']}")
            if row["oracle"]["parity"] != "odd":
                errors.append(f"class of {row['shape']} at q={row['q']} is not odd")
    elif cmd.argv[0] == "selftest":
        if payload["ok"] is not True:
            errors.append("selftest ok is not true")
        for check in payload["checks"]:
            if check["ok"] is not True:
                errors.append(f"selftest check {check['name']} failed")
    return errors


def _normalised(cmd: Command, payload: dict) -> dict:
    # The skew oracle echoes its seed; the reference is recorded at seed 0.
    if "--seed" in cmd.argv and isinstance(payload, dict):
        return {**payload, "seed": 0}
    return payload


def check_output(
    workload: str, cmd: Command, scope: str, returncode: int, stdout: str, refs: dict
) -> list[str]:
    """Every way the command's result misses; empty when it is correct."""
    errors = []
    if returncode != 0:
        errors.append(f"exit code {returncode}")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return errors + [f"stdout is not JSON: {exc}"]
    if canonical(payload) != stdout:
        errors.append("stdout is not in the CLI's canonical JSON form")
    try:
        errors += _invariant_errors(cmd, payload)
    except (AttributeError, KeyError, TypeError) as exc:
        errors.append(f"unexpected JSON layout: {exc!r}")
    digest, checked = expected_stdout(workload, cmd, scope, refs)
    if isinstance(payload, dict) and payload.get("checked", 0) != checked:
        errors.append(f"checked {payload.get('checked')}, expected {checked}")
    if sha256(canonical(_normalised(cmd, payload))) != digest:
        errors.append("stdout differs from the recorded reference")
    return errors

