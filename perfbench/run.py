#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of polcheck.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0

Run from the repository root; polcheck is imported from ./src. The workload
generator writes the seeded input files under perfbench/_work/, then one
process drives `polcheck.cli.main(argv)` in-process (no threads, no workers)
in a closed loop: round after round of the same five operations

    setup     load every input through the public loaders
    validate  polcheck validate ...
    refine    polcheck refine ...
    check     polcheck check ... --format json
    explain   polcheck explain ... ATOM

until --seconds have passed, so every operation is sampled across the whole
run. Each answer is checked against the generator's constructed answers,
and stdout must be byte-identical across repetitions.

--trace 0 reports the end-to-end metrics: the median time of each operation
at reference speed (see below) and the peak traced heap of one `check`,
measured in its own pass after the loop. --trace 1 alternates an untraced `check` with a traced round and
reports the per-layer metrics (medians over traced rounds) plus the tracing
overhead; its spans go to perfbench/_work/<workload>-<size>-seed<seed>/spans.jsonl.

Reference speed: on a shared host this machine's speed swings by up to 2x
within a minute (one `check` took 0.52 s and 1.15 s in the same run), which
no number of samples averages out. So each timed operation is bracketed by a
fixed pure-Python reference loop, and its wall time is scaled by
REFERENCE_SECONDS / (mean of the two loop times): the time the operation
would take when the loop runs in REFERENCE_SECONDS, about this machine's
fastest. Raw wall-time medians are printed and saved beside them.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

COMMANDS = ("validate", "refine", "check", "explain")
OPERATIONS = ("setup",) + COMMANDS

REFERENCE_ITERATIONS = 6_000
REFERENCE_SECONDS = 0.02
_NAMES = tuple(f"p{i}" for i in range(64))


@dataclass(frozen=True)
class _Node:
    name: str
    args: tuple


def reference_loop() -> float:
    """Seconds taken by a fixed amount of the work polcheck does most:
    building nested frozen dataclasses and hashing them into a set."""
    seen = set()
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        node = _Node(_NAMES[i & 63], (_Node("c", (i & 255,)), _Node("d", (i & 15, "x"))))
        if node not in seen:
            seen.add(node)
    return time.perf_counter() - start


def import_polcheck():
    src = ROOT / "src"
    if not (src / "polcheck" / "cli.py").is_file():
        sys.exit(f"error: polcheck sources not found under {src}")
    sys.path.insert(0, str(src))
    import polcheck.actions
    import polcheck.cli
    import polcheck.loading

    return polcheck


class Bench:
    def __init__(self, pc, workload: workloads.Workload, paths: dict):
        self.pc = pc
        self.w = workload
        self.paths = paths
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_output = {}
        self.reference = None  # the loop time measured after the last operation
        common = [
            "--onto", paths["onto"], "--facts", paths["facts"],
            "--high", paths["high"], "--patterns", paths["patterns"],
        ]
        with_low = common + ["--low", paths["low"]]
        self.argv = {
            "validate": ["validate"] + with_low + ["--state", paths["state"]],
            "refine": ["refine"] + common,
            "check": ["check"] + with_low + ["--state", paths["state"], "--format", "json"],
            "explain": ["explain"] + with_low + [workload.explain_atom],
        }

    def setup(self):
        """Load every input the way each subcommand does before it answers.
        Loaders are looked up at call time so a tracer can wrap them."""
        ld, p = self.pc.loading, self.paths
        onto = ld.load_ontology(p["onto"])
        ds = ld.load_facts(p["facts"], onto)
        high = ld.load_policy(p["high"], onto)
        low = ld.load_policy(p["low"], onto)
        patterns = ld.load_patterns(p["patterns"], onto)
        sigma = ld.load_state(p["state"], onto)
        return onto, ds, high, low, patterns, sigma

    def run(self, op: str, tracer=None, command_id=None, timed=True, counted=True):
        """One operation: returns (seconds at reference speed, wall seconds,
        stdout). Failures are counted and their problems recorded; a failed
        operation has no times. Untimed runs skip the reference loop;
        uncounted ones are checked but left out of attempted and failed."""
        self.attempted += counted
        out, err = io.StringIO(), io.StringIO()
        if op == "setup":
            call = self.setup
        else:
            call = lambda: self.pc.cli.main(self.argv[op])  # noqa: E731
        if tracer is not None:
            untraced = call
            call = lambda: tracer.root(f"bench.{op}", command_id, untraced)  # noqa: E731
        gc.collect()  # start every operation from the same clean heap
        if timed:  # the loop that ended the previous operation also starts this one
            before = self.reference or reference_loop()
        self.reference = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                result = call()
                elapsed = time.perf_counter() - start
        except Exception as e:  # an operation that raises counts as failed
            return self._fail([f"{op} raised {type(e).__name__}: {e}"], counted)
        if timed:
            self.reference = reference_loop()
            seconds = elapsed * 2 * REFERENCE_SECONDS / (before + self.reference)
        else:
            seconds = elapsed
        stdout = out.getvalue()
        problems = checks.check_stderr(err.getvalue())
        if op != "setup":  # loading is correct when it neither raises nor warns
            if op not in self.first_output:
                self.first_output[op] = (stdout, self._check_answer(op, stdout, result))
            first, first_problems = self.first_output[op]
            if stdout == first:
                problems += first_problems
            else:
                problems.append(f"{op} output differs from its first repetition")
        if problems:
            return self._fail(problems, counted)
        return seconds, elapsed, stdout

    def _fail(self, problems, counted):
        self.failed += counted
        self.problems.extend(p for p in problems if p not in self.problems)
        return None, None, ""

    def _check_answer(self, op, stdout, rc):
        exp = self.w.expected
        if op == "validate":
            return checks.check_validate(stdout, rc, self.paths, exp)
        if op == "refine":
            return checks.check_refine(stdout, rc, exp)
        if op == "check":
            return checks.check_check(stdout, rc, exp)
        return checks.check_explain(stdout, rc, self.w.explain_atom, exp)

    def check_oracle(self):
        """`validate` must agree with the trace-replay oracle on every pattern."""
        onto, _, _, _, patterns, _ = self.setup()
        for pattern in patterns:
            verdict = self.pc.actions.oracle_well_formed(pattern, onto)
            if not verdict.ok:
                self.problems.append(
                    f"oracle rejects pattern {pattern.pattern_id} that validate accepts"
                )

    def peak_heap_mb(self) -> float:
        """Peak traced Python heap during one `check`, after the loop has
        already warmed it up."""
        tracemalloc.start()
        try:
            self.run("check", timed=False, counted=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 1e6


def measure(bench: Bench, seconds: float) -> dict:
    """Closed loop of whole rounds; per-operation medians of successful
    samples."""
    for op in OPERATIONS:  # warm-up round, checked but not timed
        bench.run(op, timed=False)
    samples = {op: [] for op in OPERATIONS}
    walls = {op: [] for op in OPERATIONS}
    deadline = time.perf_counter() + seconds
    while True:
        for op in OPERATIONS:
            seconds_at_ref, wall, _ = bench.run(op)
            if wall is not None:
                samples[op].append(seconds_at_ref)
                walls[op].append(wall)
        if time.perf_counter() >= deadline:
            break
    heap = bench.peak_heap_mb()
    bench.check_oracle()
    metrics = {
        f"{op}_s": {
            "value": statistics.median(s),
            "unit": "s",
            "samples": len(s),
            "wall_median": statistics.median(walls[op]),
            "values": s,
        }
        for op, s in samples.items()
        if s
    }
    metrics["check_peak_heap_mb"] = {"value": heap, "unit": "MB", "samples": 1}
    return metrics


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> dict:
    """Alternate an untraced `check` with a traced round; per-layer medians
    over traced rounds, and the tracing overhead on `check`."""
    for op in ("check",) + OPERATIONS:  # warm-up, the same operations as a round
        bench.run(op, timed=False)
    tracer = Tracer()
    rounds, plain_check, traced_check = [], [], []
    deadline = time.perf_counter() + seconds
    command_id = 0
    while True:
        seconds_at_ref, _, _ = bench.run("check")
        if seconds_at_ref is not None:
            plain_check.append(seconds_at_ref)
        first_span = len(tracer.spans)
        tracer.counts.clear()
        tracer.totals.clear()
        output_bytes = 0
        tracer.install()
        try:
            for op in OPERATIONS:
                command_id += 1
                seconds_at_ref, _, stdout = bench.run(op, tracer, command_id)
                output_bytes += len(stdout.encode("utf-8"))
                if op == "check" and seconds_at_ref is not None:
                    traced_check.append(seconds_at_ref)
        finally:
            tracer.uninstall()
        rounds.append(
            layer_metrics(tracer.spans[first_span:], tracer.counts, tracer.totals, output_bytes)
        )
        if time.perf_counter() >= deadline:
            break
    tracer.write(spans_path)
    metrics = {
        name: {"value": statistics.median(r[name] for r in rounds), "unit": unit_of(name)}
        for name in rounds[0]
    }
    if plain_check and traced_check:
        overhead = statistics.median(traced_check) - statistics.median(plain_check)
        metrics["trace.check_overhead_s"] = {"value": overhead, "unit": "s"}
    for m in metrics.values():
        m["samples"] = len(rounds)
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "datalog.derived_per_probe":
        return "atoms/probe"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    pc = import_polcheck()
    workload = workloads.generate(args.workload, args.seed, args.size)
    # One directory per input set, so that runs started side by side never
    # read each other's files.
    directory = WORK / f"{args.workload}-{args.size}-seed{args.seed}"
    paths = workload.write(directory)
    bench = Bench(pc, workload, paths)
    if args.trace:
        metrics = measure_traced(bench, args.seconds, directory / "spans.jsonl")
    else:
        metrics = measure(bench, args.seconds)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": workload.size,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "metrics": metrics,
    }
    name = "layers.json" if args.trace else "end_to_end.json"
    (directory / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in bench.problems:
        print(f"problem: {problem}")
    for key, m in metrics.items():
        wall = f", wall {m['wall_median']:.6g} s" if "wall_median" in m else ""
        print(f"{args.workload} {key}: {m['value']:.6g} {m['unit']} (median of {m['samples']}{wall})")
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
