"""Output checks: compare what each polcheck subcommand printed with the
answers the workload generator constructed.

Every check returns a list of problems; an empty list means the output is
correct. The checks read the CLI's documented output formats only: the text
report of `validate`, `refine` and `explain`, and the JSON report of `check`.
"""

from __future__ import annotations

import json

# File roles in the order `polcheck validate` reports them.
VALIDATE_ORDER = ("onto", "facts", "high", "low", "patterns", "state")


def check_validate(stdout: str, rc: int, paths: dict, expected) -> list:
    problems = []
    if rc != 0:
        problems.append(f"validate exited {rc}, expected 0")
    want = [f"{paths[role]}: ok" for role in VALIDATE_ORDER]
    if stdout.splitlines() != want:
        problems.append(f"validate printed {stdout!r}, expected every file ok")
    return problems


def _branch_headers(lines: list) -> list:
    """[(header line, [choice log entry, ...]), ...] from `% branch` blocks."""
    blocks = []
    for line in lines:
        if line.startswith("% branch ") or line.startswith("% derived in "):
            blocks.append((line, []))
        elif line.startswith("%   ") and blocks:
            blocks[-1][1].append(line[4:].split(" "))
    return blocks


def check_refine(stdout: str, rc: int, expected) -> list:
    problems = []
    if rc != 0:
        problems.append(f"refine exited {rc}, expected 0")
    blocks = _branch_headers(stdout.splitlines())
    headers = [h for h, _ in blocks]
    want = [f"% branch {i}" for i in range(1, expected.branches + 1)]
    if headers != want:
        problems.append(f"refine printed {len(headers)} branches, expected {expected.branches}")
    elif [log for _, log in blocks] != expected.branch_logs:
        problems.append("refine choice logs differ from the constructed branches")
    return problems


def mustdo_atoms(report: dict) -> set:
    """Every mustdo atom of the reported branch that the report names: the
    ones the low view enforces, the ones the state releases, and the pending
    ones that appear as conflict witnesses."""
    stats = report.get("stats", {})
    atoms = set(stats.get("enforced_by_low_view", ()))
    atoms.update(stats.get("released_obligations", ()))
    for conflict in report.get("conflicts", ()):
        atoms.update(w for w in conflict["witness"] if w.startswith("mustdo("))
    return atoms


def check_check(stdout: str, rc: int, expected) -> list:
    problems = []
    if rc != expected.check_exit:
        problems.append(f"check exited {rc}, expected {expected.check_exit}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as e:
        return problems + [f"check printed no JSON report: {e}"]
    if report.get("verdict") != expected.verdict:
        problems.append(f"verdict {report.get('verdict')!r}, expected {expected.verdict!r}")
    if report.get("matched_branch") != expected.matched_branch:
        problems.append(
            f"matched branch {report.get('matched_branch')}, expected {expected.matched_branch}"
        )
    got = [(c["category"], c["witness"]) for c in report.get("conflicts", ())]
    want = [(category, list(witness)) for category, witness in expected.conflicts]
    if got != want:
        problems.append(f"conflicts {got}, expected {want}")
    stats = report.get("stats", {})
    if stats.get("branches_examined") != expected.branches_examined:
        problems.append(
            f"branches_examined {stats.get('branches_examined')}, expected {expected.branches_examined}"
        )
    if list(stats.get("released_obligations", ())) != expected.released:
        problems.append(
            f"released {stats.get('released_obligations')}, expected {expected.released}"
        )
    if mustdo_atoms(report) != set(expected.mustdo):
        problems.append("the mustdo atoms of the reported branch differ from the constructed set")
    return problems


def derivation_depth(tree_lines: list) -> int:
    """Node levels of a rendered derivation tree. A node at level d is
    indented by 4*d spaces; its `by rule` lines by 4*d + 2."""
    depth = 0
    for line in tree_lines:
        body = line.lstrip(" ")
        if body.startswith("by "):
            continue
        depth = max(depth, (len(line) - len(body)) // 4 + 1)
    return depth


def check_explain(stdout: str, rc: int, atom: str, expected) -> list:
    problems = []
    if rc != 0:
        problems.append(f"explain exited {rc}, expected 0")
    lines = stdout.splitlines()
    blocks = _branch_headers([line for line in lines if line.startswith("%")])
    want = f"% derived in refinement branch {expected.explain_branch} of {expected.branches}"
    if not blocks or blocks[0][0] != want:
        return problems + [f"explain header {lines[:1]}, expected {want!r}"]
    if blocks[0][1] != expected.branch_logs[expected.explain_branch - 1]:
        problems.append("explain names a different choice log for its branch")
    tree = [line for line in lines if not line.startswith("%")]
    if not tree or tree[0] != atom:
        problems.append(f"derivation root {tree[:1]}, expected {atom!r}")
    depth = derivation_depth(tree)
    if depth != expected.explain_depth:
        problems.append(f"derivation depth {depth}, expected {expected.explain_depth}")
    return problems


LOAD_WARNINGS = ("unchecked", "skipped")


def check_stderr(stderr: str) -> list:
    """Load-time transformer checks must all have run: polcheck logs a
    warning containing one of these words when it skips one."""
    return [f"load warning: {line}" for line in stderr.splitlines() if any(w in line for w in LOAD_WARNINGS)]
