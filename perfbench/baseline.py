#!/usr/bin/env python3
"""Re-measure the ROADMAP baseline rows with the benchmark's generators.

    python3 perfbench/baseline.py            # every row, about five minutes
    python3 perfbench/baseline.py deep-100   # one row

Each row generates a workload at the given size (seed 1), loads it through
the public loaders, and times one call of the library function the ROADMAP
row names: `check_compliance`, `evaluate` on the refined policy, or
`parse_ontology`. One sample per row; the table goes to stdout and to
perfbench/_work/baseline.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from polcheck.compliance import check_compliance  # noqa: E402
from polcheck.datalog import evaluate  # noqa: E402
from polcheck.loading import (  # noqa: E402
    load_facts,
    load_ontology,
    load_patterns,
    load_policy,
    load_state,
    parse_ontology,
)
from polcheck.refinement import refine_policy  # noqa: E402

# name -> (workload, generator size, what is timed)
ROWS = {
    "wide-100": ("wide", {"subjects": 100}, "check_compliance"),
    "wide-200": ("wide", {"subjects": 200}, "check_compliance"),
    "deep-100": ("deep", {"depth": 100}, "evaluate"),
    "deep-150": ("deep", {"depth": 150}, "evaluate"),
    "deep-300": ("deep", {"depth": 300}, "evaluate"),
    "branchy-8x5": ("branchy", {"rules": 8, "subjects": 5}, "check_compliance"),
    "branchy-8x20": ("branchy", {"rules": 8, "subjects": 20}, "check_compliance"),
    "branchy-10x5": ("branchy", {"rules": 10, "subjects": 5}, "check_compliance"),
    "state-256": ("state-heavy", {"variables": 8}, "parse_ontology"),
    "state-1024": ("state-heavy", {"variables": 10}, "parse_ontology"),
}


def measure(row: str) -> float:
    name, size, timed = ROWS[row]
    w = workloads.GENERATORS[name](1, **size)
    paths = w.write(HERE / "_work" / "baseline" / row)
    if timed == "parse_ontology":
        text = Path(paths["onto"]).read_text(encoding="utf-8")
        start = time.perf_counter()
        parse_ontology(text)
        return time.perf_counter() - start
    onto = load_ontology(paths["onto"])
    ds = load_facts(paths["facts"], onto)
    high = load_policy(paths["high"], onto)
    patterns = load_patterns(paths["patterns"], onto)
    if timed == "evaluate":
        policy = refine_policy(high, patterns, onto, ds).branches[0].policy
        start = time.perf_counter()
        evaluate(policy, ds, onto)
        return time.perf_counter() - start
    low = load_policy(paths["low"], onto)
    sigma = load_state(paths["state"], onto)
    start = time.perf_counter()
    check_compliance(high, low, ds, patterns, sigma, onto)
    return time.perf_counter() - start


def main(argv) -> int:
    rows = argv or list(ROWS)
    unknown = [r for r in rows if r not in ROWS]
    if unknown:
        sys.exit(f"error: unknown rows {unknown}; choose from {list(ROWS)}")
    results = {}
    for row in rows:
        results[row] = measure(row)
        name, size, timed = ROWS[row]
        print(f"{row:14s} {timed:17s} {json.dumps(size):32s} {results[row]:8.2f} s", flush=True)
    out = HERE / "_work" / "baseline.json"
    out.write_text(
        json.dumps({"python": sys.version.split()[0], "seconds": results}, indent=2) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
