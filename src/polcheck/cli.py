"""Command-line front end.

    polcheck validate --onto F --facts F --high F --patterns F [--low F] ...
    polcheck refine   --onto F --facts F --high F --patterns F [--out DIR]
    polcheck check    --onto F --facts F --high F --patterns F --low F [--state F]
    polcheck explain  --onto F --facts F --high F --patterns F [--low F] ATOM

Exit codes: 0 success (check: compliant), 1 check found the low-level policy
non-compliant, 2 any input error, validation failure, inconsistency, or
internal error.
Set POLCHECK_COLOR=1 to color verdict lines in text output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .actions import check_well_formed_complex
from .compliance import CurrentState, check_compliance
from .datalog import derivation_tree, evaluate, render_derivation
from .errors import PolcheckError
from .loading import load_facts, load_ontology, load_patterns, load_policy, load_state
from .policy import _parse_atom, check_stratification, to_text, validate_high_level
from .refinement import refine_policy
from .terms import TokenStream, is_ground, render
from .ontology import render_state


def _positive(value: str) -> int:
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _paint(text: str, code: str) -> str:
    if os.environ.get("POLCHECK_COLOR") == "1":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polcheck",
        description="Validate, refine, and audit security policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, low_required: bool = False):
        p.add_argument("--onto", required=True, help="ontology file (.onto)")
        p.add_argument("--facts", required=True, help="data-system facts file (.facts)")
        p.add_argument("--high", required=True, help="high-level policy (.pol)")
        p.add_argument("--patterns", required=True, help="refinement patterns (.rp)")
        p.add_argument("--low", required=low_required, help="low-level policy (.pol)")
        p.add_argument("--state", help="current-state file (.state)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-branches", type=_positive, default=1024)
        p.add_argument("--oracle-bound", type=_positive, default=4096)
        p.add_argument(
            "--mode",
            choices=("dispensation-precedence", "custom"),
            default="dispensation-precedence",
            help="conflict resolution installed during refinement",
        )
        p.add_argument("--out", help="directory for generated files")

    p_validate = sub.add_parser("validate", help="static checks on every input file")
    common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_refine = sub.add_parser("refine", help="enumerate refinement branches")
    common(p_refine)
    p_refine.set_defaults(func=cmd_refine)

    p_check = sub.add_parser("check", help="audit a low-level policy for compliance")
    common(p_check, low_required=True)
    p_check.set_defaults(func=cmd_check)

    p_explain = sub.add_parser("explain", help="derivation tree for a ground atom")
    common(p_explain)
    p_explain.add_argument("atom", help="ground atom, e.g. 'mustdo(alice, A((p,v)), true)'")
    p_explain.set_defaults(func=cmd_explain)

    return parser


def _load_inputs(args):
    """Every input file named on the command line, in dependency order:
    (ontology, facts, high policy, low policy or None, patterns, state).
    Without a state file the current state is empty."""
    onto = load_ontology(args.onto, state_bound=args.oracle_bound)
    ds = load_facts(args.facts, onto)
    ph = load_policy(args.high, onto)
    pl = load_policy(args.low, onto) if args.low else None
    patterns = load_patterns(args.patterns, onto)
    sigma = load_state(args.state, onto) if args.state else CurrentState()
    return onto, ds, ph, pl, patterns, sigma


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    onto, _, ph, pl, patterns, _ = _load_inputs(args)
    entries = [(args.onto, []), (args.facts, [])]  # (file, messages)

    messages = []
    strat = check_stratification(ph, onto)
    messages.extend(f"{v.rule_id}: {v.message}" for v in strat.violations)
    messages.extend(f"{v.rule_id}: {v.message}" for v in validate_high_level(ph))
    entries.append((args.high, messages))

    if pl is not None:
        strat_l = check_stratification(pl, onto)
        entries.append((args.low, [f"{v.rule_id}: {v.message}" for v in strat_l.violations]))

    messages = []
    for pat in patterns:
        verdict = check_well_formed_complex(pat, onto, state_bound=args.oracle_bound)
        for v in verdict.violations:
            where = f" at {render_state(v.witness)}" if v.witness is not None else ""
            messages.append(f"{pat.pattern_id} {v.node_path}: violates {v.constraint_id}{where}")
        for w in verdict.warnings:
            print(f"warning: {pat.pattern_id}: {w}", file=sys.stderr)
    entries.append((args.patterns, messages))

    if args.state:
        entries.append((args.state, []))

    ok = all(not msgs for _, msgs in entries)
    if args.format == "json":
        doc = {
            "ok": ok,
            "files": [
                {"file": f, "status": "ok" if not msgs else "violations", "messages": msgs}
                for f, msgs in entries
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for f, msgs in entries:
            if msgs:
                print(f"{f}: {_paint('violations', '31')}")
                for m in msgs:
                    print(f"  {m}")
            else:
                print(f"{f}: {_paint('ok', '32')}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------


def cmd_refine(args) -> int:
    onto, ds, ph, _, patterns, _ = _load_inputs(args)
    result = refine_policy(
        ph, patterns, onto, ds, mode=args.mode, max_branches=args.max_branches
    )
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)

    def log_lines(branch):
        return [f"{rid} {pid} {tag}" for rid, pid, tag in branch.choice_log]

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for i, branch in enumerate(result.branches, start=1):
            (out / f"branch_{i:03d}.pol").write_text(to_text(branch.policy), encoding="utf-8")
            text = "\n".join(log_lines(branch))
            (out / f"branch_{i:03d}.choices").write_text(
                text + ("\n" if text else ""), encoding="utf-8"
            )
        print(f"{len(result.branches)} branches written to {out}")
        return 0
    if args.format == "json":
        doc = {
            "branches": [
                {
                    "policy": to_text(branch.policy),
                    "choice_log": [list(entry) for entry in branch.choice_log],
                }
                for branch in result.branches
            ],
            "warnings": list(result.warnings),
        }
        print(json.dumps(doc, indent=2))
    else:
        for i, branch in enumerate(result.branches, start=1):
            print(f"% branch {i}")
            for line in log_lines(branch):
                print(f"%   {line}")
            sys.stdout.write(to_text(branch.policy))
            print()
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    onto, ds, ph, pl, patterns, sigma = _load_inputs(args)
    report = check_compliance(
        ph, pl, ds, patterns, sigma, onto, mode=args.mode, max_branches=args.max_branches
    )
    if args.format == "json":
        body = report.to_json()
    else:
        body = report.to_text()
        color = {"compliant": "32", "non-compliant": "31"}.get(report.verdict, "33")
        body = body.replace(
            f"verdict: {report.verdict}", f"verdict: {_paint(report.verdict, color)}", 1
        )
    sys.stdout.write(body)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        name = "report.json" if args.format == "json" else "report.txt"
        (out / name).write_text(
            report.to_json() if args.format == "json" else report.to_text(), encoding="utf-8"
        )
    if report.verdict == "compliant":
        return 0
    if report.verdict == "non-compliant":
        return 1
    return 2


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


def cmd_explain(args) -> int:
    onto, ds, ph, pl, patterns, _ = _load_inputs(args)

    ts = TokenStream(args.atom)
    atom = _parse_atom(ts, onto)
    if not ts.at_end():
        ts.fail("trailing input after the atom")
    if not is_ground(atom):
        raise PolcheckError(f"explain takes a ground atom; {render(atom)} has variables")

    if pl is not None:
        model_l = evaluate(pl, ds, onto)
        if model_l.holds(atom):
            print(f"% derived by the low-level policy {args.low}")
            print(render_derivation(derivation_tree(model_l, atom)))
            return 0

    result = refine_policy(
        ph, patterns, onto, ds, mode=args.mode, max_branches=args.max_branches
    )
    for i, branch in enumerate(result.branches, start=1):
        model = evaluate(branch.policy, ds, onto)
        if model.holds(atom):
            print(f"% derived in refinement branch {i} of {len(result.branches)}")
            for rid, pid, tag in branch.choice_log:
                print(f"%   {rid} {pid} {tag}")
            print(render_derivation(derivation_tree(model, atom)))
            return 0
    print("not derivable")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolcheckError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault inside polcheck, never a verdict
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
