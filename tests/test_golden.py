"""Golden outputs, byte for byte: the CLI's stdout and exit code on samples/,
and the stdout of every script in demos/.

The README promises that the same inputs give byte-identical output. These
cases pin that output so a refactor of the core cannot change it unnoticed.
Paths are passed relative to the repository root, as a user would type them.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from polcheck.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def _inputs(name, high, low=None, state=None):
    argv = [
        "--onto", f"samples/{name}.onto",
        "--facts", f"samples/{name}.facts",
        "--high", f"samples/{high}.pol",
        "--patterns", f"samples/{name}.rp",
    ]
    if low:
        argv += ["--low", f"samples/{low}.pol"]
    if state:
        argv += ["--state", f"samples/{state}.state"]
    return argv


AUDIT = _inputs("audit", "audit_high", "audit_low", "audit")
PROTECT = _inputs("protect", "protect_high")
COMPOSE = _inputs("compose", "compose_high")
NESTED = _inputs("nested", "nested_high", "nested_low")
LABELED = _inputs("labeled", "labeled_high", "labeled_low")
# The audit domain with a low policy in which one atom has several supports:
# two rules, each with two instances.
TWOPATHS = _inputs("audit", "audit_high", "audit_twopaths_low")

_COMMANDS = [
    ("audit", "validate", AUDIT, []),
    ("audit", "refine", AUDIT, []),
    ("audit", "check", AUDIT, []),
    ("audit", "explain", AUDIT, ["do(report1, eve, -read)"]),
    ("protect", "validate", PROTECT, []),
    ("protect", "refine", PROTECT, []),
    ("compose", "validate", COMPOSE, []),
    ("compose", "refine", COMPOSE, []),
    ("nested", "validate", NESTED, []),
    ("nested", "refine", NESTED, []),
    ("nested", "check", NESTED, []),
    ("nested", "explain", NESTED, ["mustdo(carol, BoardReview((target,sys1)), true)"]),
    ("labeled", "validate", LABELED, []),
    ("labeled", "refine", LABELED, []),
    ("labeled", "check", LABELED, []),
    ("labeled", "explain", LABELED, ["derhasObligation(carol, Prepare((target,sys1)), true)"]),
    ("twopaths", "explain", TWOPATHS, ["do(Backup((target,report1)), bob, +execute)"]),
]

CASES = {
    f"{sample}_{command}_{fmt}": [command, *inputs, "--format", fmt, *extra]
    for sample, command, inputs, extra in _COMMANDS
    for fmt in ("text", "json")
}


DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(argv, **env_overrides):
    """The stdout of a Python process run at the repository root with
    polcheck and the tests on the path."""
    env = {k: v for k, v in os.environ.items() if k != "POLCHECK_COLOR"}
    path = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    env.update(env_overrides)
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def run_case(argv):
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    monkeypatch.delenv("POLCHECK_COLOR", raising=False)
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = run_case(CASES[name])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == expected_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


# Every CLI case in one process: {name: [exit code, stdout]} as JSON.
_ALL_CASES = (
    "import json; from test_golden import CASES, run_case; "
    "print(json.dumps({name: run_case(argv) for name, argv in CASES.items()}))"
)


@pytest.mark.parametrize("seed", ["0", "1"])
def test_cli_output_does_not_depend_on_the_hash_seed(seed):
    # Atoms and supports are kept in the order sets and dicts give them, so
    # only the sorting where the output reads them keeps it byte-identical.
    outputs = json.loads(run_python(["-c", _ALL_CASES], PYTHONHASHSEED=seed))
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert sorted(outputs) == sorted(CASES)
    for name, (code, out) in outputs.items():
        assert code == expected_codes[name], name
        assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), name


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(script):
    expected = (GOLDEN / f"demo_{script.stem}.out").read_text(encoding="utf-8")
    assert run_python([str(script)]) == expected


if __name__ == "__main__":
    os.environ.pop("POLCHECK_COLOR", None)
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        codes[name], out = run_case(CASES[name])
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for script in DEMOS:
        out = run_python([str(script)])
        (GOLDEN / f"demo_{script.stem}.out").write_text(out, encoding="utf-8")
    print(f"recorded {len(codes)} cases and {len(DEMOS)} demos in {GOLDEN}", file=sys.stderr)
