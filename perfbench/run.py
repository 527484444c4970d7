"""Benchmark of dirackernel's theorem path, oracle path and cold CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload theorem-batch --seed 1 --seconds 10 --trace 0

Workloads: theorem-batch, oracle-ladder, cli-cold (or ``all``).  The library
is imported from ``src/`` of the working directory.  Every worker and every
CLI command is a fresh child process (at most one at a time), so library
caches start empty.  With ``--trace 0`` the last stdout line is a JSON
object holding the end-to-end metrics; with ``--trace 1`` the work runs once
untraced and once traced and the object holds the per-layer metrics.  The
line before it holds the run metadata.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import tracing
import workloads
from cli_child import MARKER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("theorem-batch", "oracle-ladder", "cli-cold")
MIN_OPS = 100  # every workload has this many, so p90 has ten beyond it
CLI_SETUP_SAMPLES = 15  # in-process workloads get one per worker
# cli-cold runs its 40-command ladder this many times (120 ops).
CLI_ROUNDS = 3
CHILD_TIMEOUT = 170
IMPORT_TIMER = ("import time; t = time.perf_counter(); import dirackernel.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(values, q: int):
    """Nearest-rank q-th percentile and the number of samples above its
    rank."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, (q * len(ordered) + 99) // 100)
    return ordered[rank - 1], len(ordered) - rank


def child(cmd: list, stdin: str = "") -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, input=stdin.encode(), capture_output=True,
                              env=workloads.child_env(), timeout=CHILD_TIMEOUT,
                              check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT} s: "
                         f"{cmd}") from None


class Tally:
    """What one run has measured so far."""

    def __init__(self, each_execution_an_op: bool = False) -> None:
        # cli-cold counts every execution as an op; in-process workloads
        # count each distinct input once, however often it ran.
        self.each_execution_an_op = each_execution_an_op
        self.samples = {}  # input key -> scaled seconds of each execution
        self.setups = []
        self.failures = []
        self.summaries = []
        self.wall = {False: 0.0, True: 0.0}  # traced? -> scaled wall seconds
        self.bursts = []  # median reference burst of each worker or command

    def add(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)

    def executions(self) -> int:
        return sum(map(len, self.samples.values()))

    def op_latencies(self) -> list:
        """Per op, its scaled wall time: for cli-cold every execution on
        its own, in-process the median among the run's executions of the
        same input."""
        if self.each_execution_an_op:
            return [s for v in self.samples.values() for s in v]
        return [statistics.median(v) for v in self.samples.values()]

    def host_slowdown(self) -> float:
        """How much slower than nominal the host ran the reference loop."""
        return statistics.median(self.bursts) / hostspeed.NOMINAL_S


# -- in-process workloads ------------------------------------------------------

# theorem-batch splits its time over this many workers, one set-up each.
THEOREM_WORKERS = 3
# oracle-ladder times each op of its small sample cold in this many workers.
ORACLE_SAMPLE_WORKERS = 6


def worker_jobs(workload: str, seed: int, seconds: float) -> list:
    """(label, job) for every worker of one measured round.  Workers with
    the same label run the same ops, whose timings are pooled per op."""
    if workload == "theorem-batch":
        job = {"kind": "kernel", "pairs": workloads.THEOREM_PAIRS,
               "ops": workloads.theorem_ops(seed),
               "seconds": seconds / THEOREM_WORKERS}
        return [("batch", job)] * THEOREM_WORKERS
    job = {"kind": "euler", "pairs": workloads.ORACLE_PAIRS,
           "ops": workloads.oracle_sample(), "seconds": 0}
    return [("sample", job)] * ORACLE_SAMPLE_WORKERS


def rung_jobs() -> list:
    """The ROADMAP baseline rungs, each cold in a process that sets up its
    own pair only, as in the ROADMAP table."""
    return [(f"{name} {mu}", {"kind": "euler", "pairs": [name],
                              "ops": [[name, mu]], "seconds": 0})
            for name, mu in workloads.RUNGS]


def run_worker(label: str, job: dict, tally: Tally, spans: str = "") -> None:
    proc = child([sys.executable, os.path.join(HERE, "worker.py")],
                 json.dumps({**job, "spans": spans or None,
                             "proc": len(tally.summaries)}))
    if proc.returncode != 0:
        raise BenchError("worker failed:\n" + proc.stderr.decode(errors="replace"))
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    tally.setups.append(out["setup_s"])
    for latencies in out["passes"]:
        for i, seconds in enumerate(latencies):
            tally.add(f"{label} #{i}", seconds)
    tally.failures += out["failures"]
    tally.wall[bool(spans)] += out["scaled_wall_s"]
    tally.bursts.append(out["burst_s"])
    if spans:
        tally.summaries.append(out["trace"])


def measure_inprocess(workload: str, seed: int, seconds: float,
                      tally: Tally) -> None:
    start = time.perf_counter()
    jobs = worker_jobs(workload, seed, seconds)
    while not tally.samples or time.perf_counter() - start < seconds:
        for label, job in jobs:
            run_worker(label, job, tally)


def trace_inprocess(workload: str, seed: int, tally: Tally, spans: str) -> None:
    """Each distinct worker, and for oracle-ladder each rung, once untraced
    and once traced, one pass each."""
    work = list(dict(worker_jobs(workload, seed, 0)).items())
    if workload == "oracle-ladder":
        work += rung_jobs()
    for label, job in work:
        run_worker(label, job, tally)
        run_worker(label, job, tally, spans)


# -- cli-cold ------------------------------------------------------------------

def run_cli(argv: list, goldens: dict, tally: Tally, spans: str = "") -> None:
    if spans:
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans,
               str(len(tally.summaries)), *argv]
    else:
        cmd = [sys.executable, "-c", workloads.CONSOLE, *argv]
    before = hostspeed.burst()
    start = time.perf_counter()
    proc = child(cmd)
    elapsed = time.perf_counter() - start
    after = hostspeed.burst()
    tally.bursts.append((before + after) / 2)
    elapsed *= hostspeed.scale(before, after)
    key = workloads.ladder_key(argv)
    tally.add(key, elapsed)
    tally.wall[bool(spans)] += elapsed
    stderr = proc.stderr.decode("utf-8", errors="replace")
    if spans:
        stderr, marker, line = stderr.rpartition(MARKER)
        if not marker:
            raise BenchError(f"traced CLI process gave no trace: {argv}\n"
                             + line)
        tally.summaries.append(json.loads(line))
    want = goldens[key]
    if proc.returncode != want["code"]:
        tally.failures.append(f"{key}: exit {proc.returncode}, expected "
                              f"{want['code']}")
    elif proc.stdout != want["stdout"].encode("utf-8"):
        tally.failures.append(f"{key}: stdout differs from the golden")
    elif "Traceback" in stderr:
        tally.failures.append(f"{key}: traceback on stderr")


def time_import() -> float:
    before = hostspeed.burst()
    proc = child([sys.executable, "-c", IMPORT_TIMER])
    after = hostspeed.burst()
    if proc.returncode != 0:
        raise BenchError("import dirackernel.cli failed:\n"
                         + proc.stderr.decode(errors="replace"))
    return float(proc.stdout.decode()) * hostspeed.scale(before, after)


def load_goldens() -> dict:
    with open(workloads.GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def cli_rounds(seed: int):
    """The whole ladder again and again, each round in a seeded order."""
    rng = random.Random(seed)
    ladder = workloads.cli_ladder()
    while True:
        rng.shuffle(ladder)
        yield list(ladder)


def measure_cli(seed: int, seconds: float, tally: Tally) -> None:
    """Whole rounds, so every command runs equally often: at least
    CLI_ROUNDS of them, and more while ``seconds`` have not passed."""
    goldens = load_goldens()
    start = time.perf_counter()
    rounds = cli_rounds(seed)
    done = 0
    while done < CLI_ROUNDS or time.perf_counter() - start < seconds:
        for argv in next(rounds):
            run_cli(argv, goldens, tally)
        done += 1
    tally.setups = [time_import() for _ in range(CLI_SETUP_SAMPLES)]


def trace_cli(seed: int, tally: Tally, spans: str) -> None:
    goldens = load_goldens()
    ladder = next(cli_rounds(seed))
    for argv in ladder:
        run_cli(argv, goldens, tally)
    for argv in ladder:
        run_cli(argv, goldens, tally, spans)


# -- reporting -----------------------------------------------------------------

def git_sha() -> str:
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=60, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def end_to_end(tally: Tally) -> dict:
    latencies = tally.op_latencies()
    p50, _ = percentile(latencies, 50)
    p90, _ = percentile(latencies, 90)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    values = {
        "setup_s": (statistics.median(tally.setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    tally = Tally(each_execution_an_op=workload == "cli-cold")
    problem = ""
    if trace:
        os.makedirs(".perfbench", exist_ok=True)
        spans = os.path.join(".perfbench", f"spans-{workload}-seed{seed}.jsonl")
        open(spans, "w", encoding="utf-8").close()
        if workload == "cli-cold":
            trace_cli(seed, tally, spans)
        else:
            trace_inprocess(workload, seed, tally, spans)
        total = tracing.merge_summaries(tally.summaries)
        problem = tracing.accounting_error(total)
        metrics = tracing.layer_metrics(
            total, tally.wall[True] / tally.wall[False])
    elif workload == "cli-cold":
        measure_cli(seed, seconds, tally)
        metrics = end_to_end(tally)
    else:
        measure_inprocess(workload, seed, seconds, tally)
        metrics = end_to_end(tally)

    attempted, failed = tally.executions(), len(tally.failures)
    latencies = tally.op_latencies()
    _, beyond_p50 = percentile(latencies, 50)
    _, beyond_p90 = percentile(latencies, 90)
    runs_per_op = [len(v) for v in tally.samples.values()]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "ops": len(latencies), "executions": attempted,
        "executions_per_op": [min(runs_per_op), max(runs_per_op)],
        "latency_samples": len(latencies),
        "samples_beyond_p50": beyond_p50, "samples_beyond_p90": beyond_p90,
        "setup_samples": len(tally.setups),
        "host_slowdown": tally.host_slowdown(),
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        # untraced, the first execution of each rung
        "rung_seconds": {label: tally.samples[f"{label} #0"][0]
                         for label, _ in rung_jobs()
                         if f"{label} #0" in tally.samples},
        "failures": tally.failures[:5] + ([problem] if problem else []),
    }
    result = {"correct": not failed and not problem, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, meta


def print_table(workload: str, metrics: dict, meta: dict) -> None:
    rows = dict(metrics)
    if not meta["trace"]:
        rows["failed_ratio"] = meta["failed_ratio"]
    for name, m in rows.items():
        print(f"{workload:14} {name:52} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dirackernel", "__init__.py")):
        print("error: run from the root of a dirackernel checkout "
              "(src/dirackernel not found)", file=sys.stderr)
        return 2
    # In a child: compiling would raise this process's peak resident set,
    # which every child it starts inherits in its own peak.
    if child([sys.executable, "-m", "compileall", "-q", "src"]).returncode:
        print("error: src/ does not compile", file=sys.stderr)
        return 2
    hostspeed.pin()

    if args.workload == "all":
        results = {}
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                return proc.returncode
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            results[name] = json.loads(lines[-1])
        print(json.dumps({"workloads": results}))
        return 0

    try:
        result, meta = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_table(args.workload, result["metrics"], meta)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
