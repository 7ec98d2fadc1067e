"""Every comma-separated list of the input grammars, read the same way.

For each list site the table pins what an empty list, one item, two items, a
trailing comma, a missing closing bracket, input that ends inside the list,
and a duplicate item followed by a later syntax error give: the exception's
type, message, line and column, or "ok". Each outcome is the same over the
token stream and over the reference tokenizer's tokens.
"""

from pathlib import Path

import pytest

from polcheck.errors import PolcheckError
from polcheck.loading import parse_facts, parse_ontology, parse_patterns, parse_state
from polcheck.policy import parse_policy

from test_tokenize import reference_streams

SAMPLES = Path(__file__).resolve().parents[1] / "samples"
COMPOSE = parse_ontology((SAMPLES / "compose.onto").read_text(encoding="utf-8"))

VARS = """% two variables
class Entity
prop pa dom Entity range Entity
prop pb dom Entity range Entity
var a maps box.pa range {lo, hi}
var b maps box.pb range {lo, hi}
"""

PARSERS = {
    "pol": parse_policy,
    "onto": parse_ontology,
    "facts": parse_facts,
    "rp": lambda text: parse_patterns(text, COMPOSE),
    "state": lambda text: parse_state(text, COMPOSE),
}

_GUARDED = " /\\ [avv=none] InstallAntiVirus(target:$x)\n    type=adv-flex-conj\n"

# site -> (format, text before the list, an item, another item, closing bracket, text after)
SITES = {
    "action-term": ("pol", "% terms\nhasObligation(e, Backup(", "(target, x)", "(mode, y)", ")", ", true).\n"),
    "formula-atom": ("pol", "% formulas\nhasObligation(e, act, archived(", "x", "$t", ")", ").\n"),
    "policy-atom": ("pol", "% atoms\nover(", "a", "b", ")", ".\n"),
    "ground-atom": ("facts", "% facts\nowns(", "a", '"b"', ")", ".\n"),
    "state-atom": ("state", "% facts\nowns(", "a", "b", ")", ".\n"),
    "constraints": ("onto", VARS + "action X init {", "a=lo", "b=hi|lo", "}", " final {}\n"),
    "guard": ("rp", "refine Protect(target:$x)\n    := InstallFirewall(target:$x) /\\ [", "avv=none",
              "fwv=none|installed", "]", " InstallAntiVirus(target:$x)\n    type=adv-flex-conj\n"),
    "object": ("facts", "% objects\nobj x : A {", "p=1", 'q="v"', "}", "\nobj y : A\n"),
    "pattern-bindings": ("rp", "refine Protect(", "target:$x", "mode:$y", ")",
                         "\n    := InstallFirewall(target:$x)" + _GUARDED),
    "leaf-bindings": ("rp", "refine Protect(target:$x)\n    := InstallFirewall(", "target:$x", "mode:$y", ")",
                      _GUARDED),
    "params": ("onto", "% params\naction X(", "p", "q", ")", " init {} final {}\n"),
    "range": ("onto", VARS + "var c maps box.pc range {", "lo", "hi", "}", "\nvar d maps box.pd range {lo}\n"),
    "transform": ("onto", VARS + "action X init {} final {}\ntransform X when {} set {", "a=lo", "b=hi", "}",
                  "\n"),
    "state": ("state", "% current\nstate {", "fwv=none", "avv=installed", "}", ".\nowns(dana, nb1).\n"),
}


def variants(prefix: str, item: str, other: str, close: str, suffix: str) -> dict:
    return {
        "empty": prefix + close + suffix,
        "one": prefix + item + close + suffix,
        "two": prefix + item + ", " + other + close + suffix,
        "trailing-comma": prefix + item + "," + close + suffix,
        "missing-close": prefix + item + suffix,
        "ends-inside": prefix + item,
        "duplicate-then-error": prefix + item + ", " + item + ", ," + close + suffix,
    }


CASES = {
    (site, variant): (kind, text)
    for site, (kind, *parts) in SITES.items()
    for variant, text in variants(*parts).items()
}


def outcome(kind: str, text: str):
    try:
        PARSERS[kind](text)
    except PolcheckError as e:
        return type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "column", None)
    return "ok"


EXPECTED = {
    ("action-term", "duplicate-then-error"):
        ("ParseError", "line 2, col 39: Backup binds property 'target' twice", 2, 39),
    ("action-term", "empty"): "ok",
    ("action-term", "ends-inside"): ("ParseError", "line 2, col 36: expected ')', found ''", 2, 36),
    ("action-term", "missing-close"): ("ParseError", "line 2, col 38: expected '(', found 'true'", 2, 38),
    ("action-term", "one"): "ok",
    ("action-term", "trailing-comma"): ("ParseError", "line 2, col 37: expected '(', found ')'", 2, 37),
    ("action-term", "two"): "ok",
    ("constraints", "duplicate-then-error"):
        ("SchemaError", "variable 'a' is listed twice in one block; write alternatives as a=v1|v2", None, None),
    ("constraints", "empty"): "ok",
    ("constraints", "ends-inside"): ("ParseError", "line 7, col 20: expected '}', found ''", 7, 20),
    ("constraints", "missing-close"): ("ParseError", "line 7, col 21: expected '}', found 'final'", 7, 21),
    ("constraints", "one"): "ok",
    ("constraints", "trailing-comma"): ("ParseError", "line 7, col 21: expected ident, found '}'", 7, 21),
    ("constraints", "two"): "ok",
    ("formula-atom", "duplicate-then-error"):
        ("ParseError", "line 2, col 38: expected a term, found ','", 2, 38),
    ("formula-atom", "empty"): "ok",
    ("formula-atom", "ends-inside"): ("ParseError", "line 2, col 33: expected ')', found ''", 2, 33),
    ("formula-atom", "missing-close"): ("ParseError", "line 2, col 34: expected ')', found '.'", 2, 34),
    ("formula-atom", "one"): "ok",
    ("formula-atom", "trailing-comma"): ("ParseError", "line 2, col 34: expected a term, found ')'", 2, 34),
    ("formula-atom", "two"): "ok",
    ("ground-atom", "duplicate-then-error"):
        ("ParseError", "line 2, col 12: expected a term, found ','", 2, 12),
    ("ground-atom", "empty"): "ok",
    ("ground-atom", "ends-inside"): ("ParseError", "line 2, col 7: expected ')', found ''", 2, 7),
    ("ground-atom", "missing-close"): ("ParseError", "line 2, col 7: expected ')', found '.'", 2, 7),
    ("ground-atom", "one"): "ok",
    ("ground-atom", "trailing-comma"): ("ParseError", "line 2, col 8: expected a term, found ')'", 2, 8),
    ("ground-atom", "two"): "ok",
    ("guard", "duplicate-then-error"):
        ("SchemaError", "variable 'avv' is listed twice in one block; write alternatives as avv=v1|v2", None, None),
    ("guard", "empty"): "ok",
    ("guard", "ends-inside"): ("ParseError", "line 2, col 47: expected ']', found ''", 2, 47),
    ("guard", "missing-close"):
        ("ParseError", "line 2, col 48: expected ']', found 'InstallAntiVirus'", 2, 48),
    ("guard", "one"): "ok",
    ("guard", "trailing-comma"): ("ParseError", "line 2, col 48: expected ident, found ']'", 2, 48),
    ("guard", "two"): "ok",
    ("leaf-bindings", "duplicate-then-error"):
        ("ParseError", "line 2, col 35: InstallFirewall binds property 'target' twice", 2, 35),
    ("leaf-bindings", "empty"): "ok",
    ("leaf-bindings", "ends-inside"): ("ParseError", "line 2, col 33: expected ')', found ''", 2, 33),
    ("leaf-bindings", "missing-close"): ("ParseError", "line 2, col 34: expected ')', found '/\\\\'", 2, 34),
    ("leaf-bindings", "one"): "ok",
    ("leaf-bindings", "trailing-comma"): ("ParseError", "line 2, col 34: expected ident, found ')'", 2, 34),
    ("leaf-bindings", "two"): "ok",
    ("object", "duplicate-then-error"): ("ParseError", "line 2, col 22: expected ident, found ','", 2, 22),
    ("object", "empty"): "ok",
    ("object", "ends-inside"): ("ParseError", "line 2, col 15: expected '}', found ''", 2, 15),
    ("object", "missing-close"): ("ParseError", "line 3, col 1: expected '}', found 'obj'", 3, 1),
    ("object", "one"): "ok",
    ("object", "trailing-comma"): ("ParseError", "line 2, col 16: expected ident, found '}'", 2, 16),
    ("object", "two"): "ok",
    ("params", "duplicate-then-error"): ("ParseError", "line 2, col 16: expected ident, found ','", 2, 16),
    ("params", "empty"): "ok",
    ("params", "ends-inside"): ("ParseError", "line 2, col 11: expected ')', found ''", 2, 11),
    ("params", "missing-close"): ("ParseError", "line 2, col 12: expected ')', found 'init'", 2, 12),
    ("params", "one"): "ok",
    ("params", "trailing-comma"): ("ParseError", "line 2, col 12: expected ident, found ')'", 2, 12),
    ("params", "two"): "ok",
    ("pattern-bindings", "duplicate-then-error"):
        ("ParseError", "line 1, col 27: Protect binds property 'target' twice", 1, 27),
    ("pattern-bindings", "empty"): "ok",
    ("pattern-bindings", "ends-inside"): ("ParseError", "line 1, col 25: expected ')', found ''", 1, 25),
    ("pattern-bindings", "missing-close"): ("ParseError", "line 2, col 5: expected ')', found ':'", 2, 5),
    ("pattern-bindings", "one"): "ok",
    ("pattern-bindings", "trailing-comma"):
        ("ParseError", "line 1, col 26: expected ident, found ')'", 1, 26),
    ("pattern-bindings", "two"): "ok",
    ("policy-atom", "duplicate-then-error"):
        ("ParseError", "line 2, col 12: expected a term, found ','", 2, 12),
    ("policy-atom", "empty"): ("ParseError", "r1: over takes at least one argument", None, None),
    ("policy-atom", "ends-inside"): ("ParseError", "line 2, col 7: expected ')', found ''", 2, 7),
    ("policy-atom", "missing-close"): ("ParseError", "line 2, col 7: expected ')', found '.'", 2, 7),
    ("policy-atom", "one"): "ok",
    ("policy-atom", "trailing-comma"): ("ParseError", "line 2, col 8: expected a term, found ')'", 2, 8),
    ("policy-atom", "two"): "ok",
    ("range", "duplicate-then-error"):
        ("SchemaError", "value 'lo' is listed twice in the range of 'c'", None, None),
    ("range", "empty"): ("ParseError", "line 7, col 26: expected a value, found '}'", 7, 26),
    ("range", "ends-inside"): ("ParseError", "line 7, col 28: expected '}', found ''", 7, 28),
    ("range", "missing-close"): ("ParseError", "line 8, col 1: expected '}', found 'var'", 8, 1),
    ("range", "one"): "ok",
    ("range", "trailing-comma"): ("ParseError", "line 7, col 29: expected a value, found '}'", 7, 29),
    ("range", "two"): "ok",
    ("state", "duplicate-then-error"):
        ("SchemaError", "variable 'fwv' is listed twice in one block; write alternatives as fwv=v1|v2", None, None),
    ("state", "empty"):
        ("SchemaError", "state block must assign every declared variable; missing: fwv, avv", None, None),
    ("state", "ends-inside"): ("ParseError", "line 2, col 16: expected '}', found ''", 2, 16),
    ("state", "missing-close"): ("ParseError", "line 2, col 16: expected '}', found '.'", 2, 16),
    ("state", "one"):
        ("SchemaError", "state block must assign every declared variable; missing: avv", None, None),
    ("state", "trailing-comma"): ("ParseError", "line 2, col 17: expected ident, found '}'", 2, 17),
    ("state", "two"): "ok",
    ("state-atom", "duplicate-then-error"):
        ("ParseError", "line 2, col 12: expected a term, found ','", 2, 12),
    ("state-atom", "empty"): "ok",
    ("state-atom", "ends-inside"): ("ParseError", "line 2, col 7: expected ')', found ''", 2, 7),
    ("state-atom", "missing-close"): ("ParseError", "line 2, col 7: expected ')', found '.'", 2, 7),
    ("state-atom", "one"): "ok",
    ("state-atom", "trailing-comma"): ("ParseError", "line 2, col 8: expected a term, found ')'", 2, 8),
    ("state-atom", "two"): "ok",
    ("transform", "duplicate-then-error"):
        ("SchemaError", "variable 'a' is listed twice in one block; write alternatives as a=v1|v2", None, None),
    ("transform", "empty"): "ok",
    ("transform", "ends-inside"): ("ParseError", "line 8, col 30: expected '}', found ''", 8, 30),
    ("transform", "missing-close"): ("ParseError", "line 9, col 1: expected '}', found ''", 9, 1),
    ("transform", "one"): "ok",
    ("transform", "trailing-comma"): ("ParseError", "line 8, col 31: expected ident, found '}'", 8, 31),
    ("transform", "two"): "ok",
}


@pytest.mark.parametrize("case", sorted(CASES), ids="/".join)
def test_a_list_reads_as_pinned_over_both_token_streams(case):
    kind, text = CASES[case]
    assert outcome(kind, text) == EXPECTED[case]
    with reference_streams():
        assert outcome(kind, text) == EXPECTED[case]
