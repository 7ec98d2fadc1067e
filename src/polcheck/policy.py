"""Policy language: concrete syntax, rule AST, and static validation.

A policy file holds `.`-terminated statements: `scope` and `env` directives
and rules `head :- lit & lit.` (facts drop the body). Variables are
`$`-prefixed, action terms carry parenthesized property bindings, and the
third argument of the obligation family and mustdo is a postcondition
formula (a conjunction of atoms, or a variable ranging over such formulas).

Static validation covers predicate shapes, the stratification table, the
sign discipline for recursive predicates, safety, and the high-level-policy
restriction on authored positive authorizations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import ParseError, PolicyError
from .ontology import Ontology
from .terms import (
    ActionTerm,
    Atom,
    Formula,
    Literal,
    Signed,
    TokenStream,
    Var,
    free_vars,
    render,
)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Predicate shapes and strata
# ---------------------------------------------------------------------------

# name -> (arity, formula position or None, signed-action position or None)
BUILTIN_SHAPES = {
    "hasObligation": (3, 2, None),
    "hasDispensation": (2, None, None),
    "derhasObligation": (3, 2, None),
    "derhasDispensation": (2, None, None),
    "mustdo": (3, 2, None),
    "cando": (3, None, 2),
    "dercando": (3, None, 2),
    "do": (3, None, 2),
    "done": (4, None, None),
    "done_act": (2, None, None),
    "error": (0, None, None),
}

OVER_PREDICATES = ("over", "over_AS", "over_AO")

# Table rows: head predicate -> (stratum, admitted body kinds in the order
# the row's message lists them, hie and rel last, positive-only kinds)
_OBLIGATIONS = ("hasObligation", "hasDispensation", "derhasObligation", "derhasDispensation")
_ROWS = {
    "hasObligation": (1, ("done", "hie", "rel"), ()),
    "hasDispensation": (1, ("done", "hie", "rel"), ()),
    "derhasDispensation": (
        2,
        ("hasObligation", "hasDispensation", "derhasDispensation", "over", "done", "hie", "rel"),
        ("derhasDispensation",),
    ),
    "derhasObligation": (3, (*_OBLIGATIONS, "over", "done", "hie", "rel"), ("derhasObligation",)),
    "mustdo": (
        4,
        ("hasObligation", "derhasObligation", "hasDispensation", "derhasDispensation", "done", "hie", "rel"),
        (),
    ),
    "cando": (5, ("mustdo", "done", "hie", "rel"), ()),
    "dercando": (6, ("mustdo", "cando", "dercando", "done", "hie", "rel"), ("dercando",)),
    "do+": (7, ("cando", "dercando", "done", "hie", "rel"), ()),
    "do-": (8, None, None),  # exactly one literal, checked specially
    "error": (9, ("mustdo", *_OBLIGATIONS, "do", "cando", "dercando", "done", "hie", "rel"), ()),
}


def predicate_kind(name: str, onto: Ontology = None) -> str:
    """Classify a body predicate for stratification: its own name for the
    policy predicates, 'done' for both done forms, 'over' for the override
    relations, else the ontology-declared hie/rel family."""
    if name in ("done", "done_act"):
        return "done"
    if name in OVER_PREDICATES:
        return "over"
    if name in BUILTIN_SHAPES:
        return name
    if onto is not None:
        pdef = onto.properties.get(name)
        if pdef is None:
            raise ParseError(f"unknown predicate {name!r}")
        return pdef.family
    return "rel"


def head_stratum(head: Atom) -> int:
    name = head.pred
    if name == "do":
        sign = head.args[2]
        return 7 if isinstance(sign, Signed) and sign.sign == "+" else 8
    if name in _ROWS:
        return _ROWS[name][0]
    return 0


# ---------------------------------------------------------------------------
# Rules and policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    rule_id: str
    head: Atom
    body: tuple = ()  # tuple[Literal, ...]


@dataclass(frozen=True)
class Policy:
    rules: tuple = ()
    scope: tuple = ()
    environment: tuple = ()  # ((key, value), ...)

    def with_rules(self, rules) -> "Policy":
        return Policy(tuple(rules), self.scope, self.environment)

    def rule(self, rule_id: str) -> Rule:
        for r in self.rules:
            if r.rule_id == rule_id:
                return r
        raise PolicyError(f"no rule {rule_id!r}")


def render_rule(r: Rule) -> str:
    head = render(r.head)
    if not r.body:
        return f"{head}."
    return f"{head} :- " + " & ".join(render(l) for l in r.body) + "."


def to_text(p: Policy) -> str:
    lines = []
    if p.scope:
        lines.append("scope " + ", ".join(p.scope) + ".")
    for k, v in p.environment:
        lines.append(f"env {k} {v}.")
    lines.extend(render_rule(r) for r in p.rules)
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_policy(text: str, onto: Ontology = None) -> Policy:
    ts = TokenStream(text)
    tokens = ts.tokens
    rules: list[Rule] = []
    scope: list[str] = []
    env: list = []
    while tok := tokens[ts.pos]:
        if tok == "scope":
            ts.pos += 1
            scope += ts.expect_idents()
        elif tok == "env":
            ts.pos += 1
            env.append((ts.expect_ident(), ts.expect_value()))
        else:  # a rule: head, or head :- lit & lit
            head = _parse_atom(ts)
            body: list[Literal] = []
            while tokens[ts.pos] == ("&" if body else ":-"):
                negated = tokens[ts.pos + 1] == "~"
                ts.pos += 1 + negated
                body.append(Literal(negated, _parse_atom(ts)))
            rules.append(Rule(f"r{len(rules) + 1}", head, tuple(body)))
        ts.expect(".")
    policy = Policy(tuple(rules), tuple(scope), tuple(env))
    del ts, tokens  # freed before the shape set below, which then adds no heap peak
    checked = set()  # a property or over* atom's check reads only its shape
    for r in policy.rules:
        for atom in [r.head] + [l.atom for l in r.body]:
            if atom.pred in BUILTIN_SHAPES or atom._shape not in checked:
                _check_atom_shape(atom, r.rule_id, onto)
                checked.add(atom._shape)
        _check_safety(r)
    return policy


def _parse_atom(ts: TokenStream) -> Atom:
    name = ts.expect_ident()
    shape = BUILTIN_SHAPES.get(name)
    return Atom(name, ts.arguments(shape and shape[1]) if name != "error" or ts.at("(") else ())


# ---------------------------------------------------------------------------
# Shape and safety validation
# ---------------------------------------------------------------------------


def _check_atom_shape(atom: Atom, rule_id: str, onto: Ontology) -> None:
    name = atom.pred
    shape = BUILTIN_SHAPES.get(name)
    if shape is None:
        if name in OVER_PREDICATES:
            if not atom.args:
                raise ParseError(f"{rule_id}: {name} takes at least one argument")
        else:
            predicate_kind(name, onto)  # raises on unknown when onto is given
            if len(atom.args) != 2:
                raise ParseError(f"{rule_id}: property predicate {name!r} is binary")
    else:
        arity, formula_pos, signed_pos = shape
        if len(atom.args) != arity:
            raise ParseError(
                f"{rule_id}: {name} takes {arity} argument(s), got {len(atom.args)}"
            )
        for i, arg in enumerate(atom.args):
            if isinstance(arg, Signed) and i != signed_pos:
                raise ParseError(
                    f"{rule_id}: signed actions belong only in cando/dercando/do"
                )
        if signed_pos is not None and not isinstance(atom.args[signed_pos], Signed):
            raise ParseError(f"{rule_id}: {name} requires a signed (+/-) action argument")
        if formula_pos is not None:
            q = atom.args[formula_pos]
            if isinstance(q, Formula):
                if any(c.negated for c in q.conjuncts):
                    log.warning(
                        "%s: negation inside a postcondition formula is experimental", rule_id
                    )
            elif not isinstance(q, Var):
                raise ParseError(
                    f"{rule_id}: third argument of {name} must be a formula or variable"
                )


def _is_row8(rule: Rule) -> bool:
    head = rule.head
    return (
        head.pred == "do"
        and len(head.args) == 3
        and isinstance(head.args[2], Signed)
        and head.args[2].sign == "-"
    )


def _check_safety(rule: Rule) -> None:
    """Every head variable (postcondition-internal ones aside) and every
    negated literal's variable must occur in a positive body literal, so a
    rule with neither passes at once. The one-literal do(o,s,-a) form is
    exempt: its grounding domain is the finite authorization triple set."""
    if not rule.head._vars and not any(l.negated and l._vars for l in rule.body) or _is_row8(rule):
        return
    bound = set()
    for lit in rule.body:
        if not lit.negated:
            bound |= free_vars(lit.atom, include_formulas=True)
    unbound = free_vars(rule.head, include_formulas=False) - bound
    if unbound:
        names = ", ".join(sorted("$" + v for v in unbound))
        raise PolicyError(f"{rule.rule_id}: unsafe head variable(s) {names}")
    for lit in rule.body:
        if lit.negated:
            loose = free_vars(lit.atom, include_formulas=False) - bound
            if loose:
                names = ", ".join(sorted("$" + v for v in loose))
                raise PolicyError(
                    f"{rule.rule_id}: negated literal uses unbound variable(s) {names}"
                )


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StratificationViolation:
    rule_id: str
    literal: str  # rendered offending literal (or head)
    row: int  # the Table row of the head predicate
    message: str


@dataclass(frozen=True)
class StratificationResult:
    ok: bool
    strata: tuple = ()  # ((rule_id, stratum), ...)
    violations: tuple = ()


def check_stratification(p: Policy, onto: Ontology = None) -> StratificationResult:
    strata = []
    violations: list[StratificationViolation] = []
    for rule in p.rules:
        row = head_stratum(rule.head)
        strata.append((rule.rule_id, row))
        if row == 0:
            violations.append(
                StratificationViolation(
                    rule.rule_id,
                    render(rule.head),
                    0,
                    f"row 0: {rule.head.pred} is a base relation, defined by facts not rules",
                )
            )
            continue
        if row == 8:
            violations.extend(_check_row8(rule))
            continue
        key = "do+" if row == 7 else rule.head.pred
        _, allowed, positive_only = _ROWS[key]
        for lit in rule.body:
            kind = predicate_kind(lit.atom.pred, onto)
            if kind not in allowed:
                message = (
                    f"row {row} bodies admit {', '.join(allowed[:-2])}, hie- and rel- literals; "
                    f"found {lit.atom.pred}"
                )
            elif lit.negated and kind in positive_only:
                message = f"row {row}: {lit.atom.pred} literals in {rule.head.pred} bodies must be positive"
            else:
                if lit.atom.pred == rule.head.pred:
                    violations.extend(_growth_violations(rule, lit, row))
                continue
            violations.append(StratificationViolation(rule.rule_id, render(lit), row, message))
    return StratificationResult(not violations, tuple(strata), tuple(violations))


def _nesting_depths(value) -> dict:
    """The deepest action-term nesting at which each variable occurs."""
    depths: dict = {}
    stack = [(value, 0)]
    while stack:
        v, depth = stack.pop()
        if v.__class__ is Var:
            depths[v.name] = max(depth, depths.get(v.name, 0))
        below = depth + (v.__class__ is ActionTerm)
        stack.extend((p, below) for p in v._parts if p._fvars)
    return depths


def _growth_violations(rule: Rule, lit: Literal, row: int) -> list:
    """A recursive rule (rows 2, 3 and 6) may not nest a variable of its
    recursive literal deeper in the head than the literal does: each round
    would derive a deeper term than the last, and the fixpoint never comes."""
    body = _nesting_depths(lit.atom)
    head = _nesting_depths(rule.head)
    return [
        StratificationViolation(
            rule.rule_id,
            render(lit),
            row,
            f"row {row}: the head nests ${name} deeper than the recursive literal "
            f"{render(lit)} does, so its terms would grow without bound",
        )
        for name in sorted(body)
        if head.get(name, 0) > body[name]
    ]


def _check_row8(rule: Rule):
    head = rule.head
    form = "row 8: do(o, s, -a) rules contain just the one literal ~do(o, s, +a)"
    if len(rule.body) != 1:
        return [StratificationViolation(rule.rule_id, render(head), 8, form)]
    lit = rule.body[0]
    ok = (
        lit.negated
        and lit.atom.pred == "do"
        and len(lit.atom.args) == 3
        and lit.atom.args[0] == head.args[0]
        and lit.atom.args[1] == head.args[1]
        and isinstance(lit.atom.args[2], Signed)
        and lit.atom.args[2].sign == "+"
        and lit.atom.args[2].term == head.args[2].term
    )
    if ok:
        return []
    return [StratificationViolation(rule.rule_id, render(lit), 8, form)]


# ---------------------------------------------------------------------------
# High-level policy restriction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HighLevelViolation:
    rule_id: str
    message: str


def validate_high_level(p: Policy):
    """A high-level policy must not author positive authorizations: no
    cando/dercando/do rule whose head action is positively signed. Negative
    (prohibition) heads are permitted."""
    violations = []
    for rule in p.rules:
        if rule.head.pred in ("cando", "dercando", "do"):
            sign = rule.head.args[2]
            if isinstance(sign, Signed) and sign.sign == "+":
                violations.append(
                    HighLevelViolation(
                        rule.rule_id,
                        f"authored positive authorization {render(rule.head)}; "
                        "positive grants are derived from obligations, not authored",
                    )
                )
    return tuple(violations)
