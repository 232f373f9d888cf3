"""Benchmark of the orthdet CLI: end-to-end runs and a traced per-layer run.

Run from the root of a source checkout (the directory holding `src/orthdet`):

    python3 orthbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists): `sweep`, `classify`, `oracle`.
One closed-loop client runs the workload's commands one after another, each
in a fresh interpreter with `--format json`, so every command starts with
cold caches, as a user's does. With `--trace 0` the passes repeat until
`--seconds` have elapsed and the end-to-end metrics are medians over the
passes. With `--trace 1` the per-layer metrics come from running each
command in-process through `orthdet.cli.main(argv + ["--jobs", "1"])` with
the public functions of every layer wrapped by `spans.Tracer`.

The last line of stdout is one JSON object with keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it record the run
conditions and per-command details. Exits 2 without a result when the
checkout holds no orthdet sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import LAYERS, TARGETS, Tracer, lru_caches, summarize
from workloads import WORKLOADS, Command, check_output, commands, expected_stdout

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
OUT_DIR = ".bench_out"
SETUP_SAMPLES_PER_PASS = 3
# Keep every run inside the 180 s a run may take, whatever the machine.
RUN_LIMIT_S = 165.0
# The speed probe: a fixed pure-Python loop, timed before and after every
# child. CALIBRATION_REFERENCE_S is its usual time on the reference machine
# (2-core x86_64 VM, CPython 3.11.7), both cores probing at once; see `Child`.
CALIBRATION_LOOPS = 200_000
CALIBRATION_REFERENCE_S = 0.0215

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COMMAND_NAMES = (
    "verify_parker_symmetric",
    "verify_parker_unipotent",
    "verify_parker_sgnpair",
    "oracle_check_gram",
    "oracle_check_skew",
    "selftest",
)


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    units = {}

    def add(unit, *names):
        for name in names:
            units[name] = unit

    add("count", "tableaux.enumerate_syt.calls")
    add("s", "tableaux.enumerate_syt.self_s")
    add("ratio", "tableaux.enumerate_syt.distinct_frac")
    add("count", "tableaux.nodes")
    add("s", "hecke.tableau_polynomials.self_s")
    add("count", "hecke.det_poly_factored.calls")
    add("ratio", "hecke.det_poly_factored.distinct_frac")
    add("s", "hecke.square_class.self_s")
    add("count", "squareclass.factorize.calls")
    add("s", "squareclass.factorize.self_s")
    add("bits", "squareclass.factorize.max_bits")
    add("ratio", "squareclass.factorize.distinct_frac")
    add("count", "squareclass.is_probable_prime.calls")
    add("s", "intpoly.cyclotomic.self_s", "intpoly.gaussian_binomial.self_s")
    add("count", "gl.unipotent_degree.calls")
    add("s", "gl.unipotent_degree.self_s", "gl.unipotent_determinant.self_s",
        "gl.sign_pair_determinant.self_s")
    add("s", "parker.self_s")
    add("ratio", "parker.pool_speedup")
    add("s", "oracle.build_seminormal.self_s", "oracle.verify_relations.self_s",
        "oracle.gram_form.self_s", "oracle.all_word_images.self_s",
        "oracle.determinant_via_skew_element.self_s")
    add("count", "oracle.dim_sum")
    add("ratio", "oracle.skew_success_frac")
    add("count", "linalg.mat_mul.calls")
    add("s", "linalg.mat_mul.self_s", "linalg.bareiss_determinant.self_s")
    add("count", "linalg.rational_determinant.calls")
    add("s", "linalg.rational_determinant.self_s")
    add("count", "linalg.IntegerKernelSolver.add_equation.calls")
    add("s", "linalg.IntegerKernelSolver.add_equation.self_s")
    add("s", "cli.main.self_s")
    add("s", *(f"{layer}.self_s" for layer in
               ("gl", "hecke", "tableaux", "squareclass", "intpoly", "oracle", "linalg")))
    add("s", *(f"{name}_s" for name in COMMAND_NAMES))
    add("ratio", "trace.overhead_frac", "trace.unattributed_frac")
    return units


class Harness:
    """Runs one workload's commands and checks every output."""

    def __init__(self, root: Path, workload: str, seed: int, scope: str, probe: SpeedProbe):
        self.root = root
        self.src = root / "src"
        self.out = root / OUT_DIR
        self.out.mkdir(exist_ok=True)
        self.workload = workload
        self.seed = seed
        self.scope = scope
        self.refs = json.loads(REFERENCES.read_text())
        pythonpath = [str(self.src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.live_children = 0
        self.max_live_children = 0
        self.probe = probe
        self.last_probe = probe()

    def cmds(self, pass_index: int) -> list[Command]:
        return commands(self.workload, self.seed, self.scope, pass_index)

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion; the closed loop never overlaps two.

        The child is reaped with wait4, whose resource usage covers the
        child and every process it reaped, such as pool workers.
        """
        self.live_children += 1
        self.max_live_children = max(self.max_live_children, self.live_children)
        with open(self.out / "stdout", "w+") as out, open(self.out / "stderr", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.time_left()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                self.live_children -= 1
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            before, self.last_probe = self.last_probe, self.probe()
            return Child(wall, proc.returncode, out.read(), err.read(),
                         usage.ru_maxrss / 1024,
                         CALIBRATION_REFERENCE_S / ((before + self.last_probe) / 2))

    def record(self, cmd: Command, code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        errors = check_output(self.workload, cmd, self.scope, code, stdout, self.refs)
        if errors:
            tail = stderr.strip().splitlines()[-1:]
            self.failures.append(f"orthdet {' '.join(cmd.full_argv())}: {'; '.join(errors)} {tail}")

    def build(self) -> None:
        """Byte-compile the sources, as an installation would."""
        child = self.spawn([sys.executable, "-m", "compileall", "-q", str(self.src / "orthdet")])
        if child.code != 0:
            raise SystemExit(f"byte-compiling {self.src / 'orthdet'} failed: {child.stderr}")

    def setup_samples(self, count: int) -> list[float]:
        """Seconds from spawning an interpreter to `import orthdet.cli` done.

        The child prints its monotonic clock after the import; on Linux
        perf_counter reads CLOCK_MONOTONIC, shared by all processes.
        """
        probe = "import time, orthdet.cli; print(repr(time.perf_counter()))"
        samples = []
        for _ in range(count):
            start = time.perf_counter()
            child = self.spawn([sys.executable, "-c", probe])
            if child.code != 0:
                raise SystemExit(f"importing orthdet.cli failed: {child.stderr}")
            samples.append((float(child.stdout) - start) * child.scale)
        return samples

    def cli_pass(self, cmds: list[Command], jobs_one: bool = False) -> dict[str, Child] | None:
        """One pass over the commands, each in a fresh interpreter.

        Returns the child of each command, or None when time ran out.
        """
        children = {}
        for cmd in cmds:
            if self.time_left() <= 0:
                return None
            child = self.spawn([sys.executable, "-m", "orthdet.cli", *cmd.full_argv(jobs_one)])
            self.record(cmd, child.code, child.stdout, child.stderr)
            children[cmd.name] = child
        return children

    def items(self, cmds: list[Command]) -> int:
        """Characters and oracle comparisons the commands check."""
        return sum(expected_stdout(self.workload, c, self.scope, self.refs)[1] for c in cmds)


# A probe worker times the loop three times per request line on stdin and
# answers with the median; it exits when its stdin closes.
PROBE_WORKER = f"""
import statistics, sys, time
def loop():
    start = time.perf_counter()
    acc = 0
    for i in range({CALIBRATION_LOOPS}):
        acc += i * i % 7
    return time.perf_counter() - start
for _ in sys.stdin:
    print(repr(statistics.median(loop() for _ in range(3))), flush=True)
"""


class SpeedProbe:
    """Times the calibration loop on every usable core at once.

    One idle worker process per core waits on its stdin; a probe wakes them
    all, so it sees the machine as a command's process pool does. Between
    probes the workers block and use no processor time.
    """

    def __init__(self, workers: int):
        self._procs = [
            subprocess.Popen([sys.executable, "-c", PROBE_WORKER], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(workers)
        ]

    def __call__(self) -> float:
        """Mean over the cores of the median of three calibration loops."""
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        return statistics.mean(float(proc.stdout.readline()) for proc in self._procs)

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


@dataclass(frozen=True)
class Child:
    """A finished child process.

    `scale` is CALIBRATION_REFERENCE_S over the mean of the speed probes
    taken just before and just after the child: wall * scale is the time the
    child would have taken on the reference machine at its usual speed. The
    machines this runs on are shared, and their speed drifts by a third
    within a minute; the probes track most of that drift, so that scaled
    times vary far less with the neighbours than wall times do.
    """

    wall: float
    code: int
    stdout: str
    stderr: str
    maxrss_mb: float
    scale: float

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


def timed_run(h: Harness, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for `seconds`; medians of the end-to-end metrics.

    Set-up samples are spread over the run, a few before each pass, so
    that they meet the same machine conditions as the passes.
    """
    setup = h.setup_samples(SETUP_SAMPLES_PER_PASS)
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        cmds = h.cmds(len(passes))
        children = h.cli_pass(cmds)
        if children is None:
            break
        passes.append((h.items(cmds), children))
        if time.perf_counter() >= deadline:
            break
        setup += h.setup_samples(SETUP_SAMPLES_PER_PASS)
    if not passes:
        raise SystemExit("no complete pass within the run limit")
    walls = [sum(c.wall for c in children.values()) for _, children in passes]
    scaled = [sum(c.scaled for c in children.values()) for _, children in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(items / t for (items, _), t in zip(passes, scaled)),
        "peak_rss_mb": statistics.median(
            max(c.maxrss_mb for c in children.values()) for _, children in passes
        ),
    }
    names = [c.name for c in h.cmds(0)]
    detail = {
        "passes": len(passes),
        "setup_samples": len(setup),
        "pass_wall_s": {"median": statistics.median(walls), "min": min(walls),
                        "max": max(walls)},
        "raw_items_per_s": statistics.median(
            items / t for (items, _), t in zip(passes, walls)),
        "speed_scale": statistics.median(
            c.scale for _, children in passes for c in children.values()),
        "per_command_s": {
            n: statistics.median(children[n].scaled for _, children in passes) for n in names
        },
        "per_command_wall_s": {
            n: statistics.median(children[n].wall for _, children in passes) for n in names
        },
        "per_command_rss_mb": {
            n: statistics.median(children[n].maxrss_mb for _, children in passes) for n in names
        },
    }
    return metrics, detail


def in_process_pass(h: Harness, cmds: list[Command], caches) -> float:
    """All commands through `orthdet.cli.main`, caches cleared before each."""
    import orthdet.cli

    wall = 0.0
    for cmd in cmds:
        for cache in caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = orthdet.cli.main(cmd.full_argv(jobs_one=True))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        wall += time.perf_counter() - start
        h.record(cmd, code, out.getvalue(), err.getvalue())
    return wall


def _ratio(num: float, den: float, name: str, na: set) -> float:
    if den:
        return num / den
    na.add(name)
    return 0.0


def traced_cycle(h: Harness, index: int, tracer, caches) -> tuple[dict[str, float], set[str]]:
    """One cycle of the four runs the per-layer metrics are computed from.

    The untraced and traced in-process passes swap order every cycle, so
    that warm-up of the benchmark process does not bias the overhead.
    """
    cmds = h.cmds(index)
    default = h.cli_pass(cmds)
    jobs_one = h.cli_pass(cmds, jobs_one=True)
    if default is None or jobs_one is None:
        raise SystemExit("run limit reached before the traced cycle finished")

    def traced_pass() -> float:
        tracer.reset()
        tracer.install()
        try:
            return in_process_pass(h, cmds, caches)
        finally:
            tracer.uninstall()

    if index % 2:
        traced = traced_pass()
        untraced = in_process_pass(h, cmds, caches)
    else:
        untraced = in_process_pass(h, cmds, caches)
        traced = traced_pass()

    na: set[str] = set()
    self_s, calls = summarize(tracer.spans)
    m: dict[str, float] = {}
    for name, *_ in TARGETS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        if not calls.get(name):
            na.update({f"{name}.calls", f"{name}.self_s"})
    for name in ("tableaux.enumerate_syt", "hecke.det_poly_factored", "squareclass.factorize"):
        m[f"{name}.distinct_frac"] = _ratio(
            len(tracer.distinct.get(name, ())), calls.get(name, 0), f"{name}.distinct_frac", na
        )
    m["squareclass.factorize.max_bits"] = tracer.max_bits
    if not calls.get("squareclass.factorize"):
        na.add("squareclass.factorize.max_bits")
    for name in ("tableaux.nodes", "oracle.dim_sum"):
        m[name] = tracer.sums.get(name, 0)
        if not m[name]:
            na.add(name)
    m["oracle.skew_success_frac"] = _ratio(
        calls.get("oracle.determinant_via_skew_element", 0),
        calls.get("linalg.rational_determinant", 0), "oracle.skew_success_frac", na,
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    flagged = [c.name for c in cmds if c.has_jobs_flag]
    m["parker.pool_speedup"] = _ratio(
        sum(jobs_one[n].wall for n in flagged), sum(default[n].wall for n in flagged),
        "parker.pool_speedup", na,
    )
    for name in COMMAND_NAMES:
        m[f"{name}_s"] = default[name].wall if name in default else 0.0
        if name not in default:
            na.add(f"{name}_s")
    m["trace.overhead_frac"] = traced / untraced - 1
    m["trace.unattributed_frac"] = 1 - sum(self_s.values()) / traced
    return m, na


def traced_run(h: Harness, seconds: float) -> tuple[dict, dict]:
    """Repeat traced cycles for `seconds`; medians of the per-layer metrics."""
    sys.path.insert(0, str(h.src))
    import orthdet.cli  # noqa: F401  (imports every layer)

    caches = lru_caches()
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    cycles = []
    while True:
        start = time.perf_counter()
        cycles.append(traced_cycle(h, len(cycles), tracer, caches))
        now = time.perf_counter()
        # Stop at the deadline, or when another cycle would not fit the run limit.
        if now >= deadline or h.time_left() < 1.5 * (now - start):
            break
    spans_file = h.out / f"spans-{h.workload}-seed{h.seed}.json"
    tracer.dump(spans_file)
    units = per_layer_units()
    metrics = {name: statistics.median(c[0][name] for c in cycles) for name in units}
    na = sorted(set().union(*(c[1] for c in cycles)) & set(units))
    detail = {"cycles": len(cycles), "spans": len(tracer.spans),
              "spans_file": str(spans_file.relative_to(h.root)), "not_applicable": na}
    return metrics, detail


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "orthdet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def conditions(h: Harness, samples: int, trace: bool) -> dict:
    """Machine, interpreter, code and sampling of this run."""
    nproc = len(os.sched_getaffinity(0))
    cpu_count = os.cpu_count() or 1
    # The closed loop runs one command at a time; a command's process pool
    # (default --jobs 0) has os.cpu_count() workers while its parent waits.
    # The nproc speed-probe workers run only between commands.
    busy = max(nproc, h.max_live_children * cpu_count)
    if busy > nproc:
        print(f"warning: up to {busy} busy processes on {nproc} usable cores", file=sys.stderr)
    return {
        "workload": h.workload,
        "seed": h.seed,
        "scope": h.scope,
        "trace": int(trace),
        "samples": samples,
        "nproc": nproc,
        "os_cpu_count": cpu_count,
        "max_live_children": h.max_live_children,
        "probe_workers": nproc,
        "max_busy_processes": busy,
        "within_nproc": busy <= nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_commit": git_commit(h.root),
        "source_sha256": source_digest(h.src),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scope", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own self-test (check.py)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "orthdet" / "cli.py").is_file():
        print(f"error: no orthdet sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    probe = SpeedProbe(len(os.sched_getaffinity(0)))
    try:
        h = Harness(root, args.workload, args.seed, args.scope, probe)
        h.build()
        if args.trace:
            metrics, detail = traced_run(h, args.seconds)
            units = per_layer_units()
            samples = detail["cycles"]
        else:
            metrics, detail = timed_run(h, args.seconds)
            units = END_TO_END_UNITS
            samples = detail["passes"]
    finally:
        probe.close()
    for failure in h.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"conditions": conditions(h, samples, bool(args.trace))}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not h.failures,
        "attempted": h.attempted,
        "failed": len(h.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
