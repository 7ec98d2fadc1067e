"""Shared term language: constants, variables, action terms, signed actions,
atoms, and postcondition formulas.

Action terms carry property bindings, e.g. ``Protect((target,$x))``. Bindings
are canonicalized (sorted by property name) at construction so structural
equality does not depend on authoring order. Formula conjunct order, by
contrast, is preserved as written.

A "ground" value may still contain variables inside a formula argument: those
are existential and get closed at satisfaction-check time, not at grounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Const:
    value: str
    quoted: bool = False


@dataclass(frozen=True, order=True)
class Var:
    name: str


@dataclass(frozen=True)
class ActionTerm:
    name: str
    bindings: tuple = ()  # tuple[tuple[str, Term], ...], sorted by property

    def __post_init__(self):
        object.__setattr__(self, "bindings", tuple(sorted(self.bindings, key=lambda b: b[0])))

    def binding(self, prop: str):
        for p, v in self.bindings:
            if p == prop:
                return v
        return None


@dataclass(frozen=True)
class Signed:
    sign: str  # '+' or '-'
    term: "Term"

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValueError(f"bad sign {self.sign!r}")


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()


@dataclass(frozen=True)
class Literal:
    """A possibly negated atom: a rule-body literal, or one conjunct of a
    formula (negated formula conjuncts are experimental)."""

    negated: bool
    atom: Atom


@dataclass(frozen=True)
class Formula:
    conjuncts: tuple = ()  # tuple[Literal, ...]
    contradiction: bool = False

    @property
    def is_true(self) -> bool:
        return not self.conjuncts and not self.contradiction

    @property
    def is_false(self) -> bool:
        return self.contradiction


TRUE = Formula()
FALSE = Formula(contradiction=True)

Term = object  # Const | Var | ActionTerm; args may also be Signed | Formula


# ---------------------------------------------------------------------------
# Substitution and matching
# ---------------------------------------------------------------------------


def substitute(value, theta: dict):
    """Replace variables by their bindings, recursively, everywhere
    (including inside formulas)."""
    if isinstance(value, Var):
        return theta.get(value.name, value)
    if isinstance(value, Const):
        return value
    if isinstance(value, ActionTerm):
        return ActionTerm(value.name, tuple((p, substitute(v, theta)) for p, v in value.bindings))
    if isinstance(value, Signed):
        return Signed(value.sign, substitute(value.term, theta))
    if isinstance(value, Atom):
        return Atom(value.pred, tuple(substitute(a, theta) for a in value.args))
    if isinstance(value, Formula):
        if value.contradiction:
            return value
        return Formula(tuple(substitute(c, theta) for c in value.conjuncts))
    if isinstance(value, Literal):
        return Literal(value.negated, substitute(value.atom, theta))
    raise TypeError(f"cannot substitute into {type(value).__name__}")


def match(pattern, value, theta: dict):
    """Extend theta so that substitute(pattern, theta) == value.
    Returns the extended dict or None. theta is not mutated."""
    if isinstance(pattern, Var):
        bound = theta.get(pattern.name)
        if bound is None:
            out = dict(theta)
            out[pattern.name] = value
            return out
        return theta if bound == value else None
    if isinstance(pattern, Const):
        return theta if pattern == value else None
    if isinstance(pattern, ActionTerm):
        if not isinstance(value, ActionTerm) or pattern.name != value.name:
            return None
        if len(pattern.bindings) != len(value.bindings):
            return None
        for (pp, pv), (vp, vv) in zip(pattern.bindings, value.bindings):
            if pp != vp:
                return None
            theta = match(pv, vv, theta)
            if theta is None:
                return None
        return theta
    if isinstance(pattern, Signed):
        if not isinstance(value, Signed) or pattern.sign != value.sign:
            return None
        return match(pattern.term, value.term, theta)
    if isinstance(pattern, Formula):
        if not isinstance(value, Formula):
            return None
        if pattern.contradiction != value.contradiction:
            return None
        if len(pattern.conjuncts) != len(value.conjuncts):
            return None
        for pc, vc in zip(pattern.conjuncts, value.conjuncts):
            if pc.negated != vc.negated:
                return None
            theta = match_atom(pc.atom, vc.atom, theta)
            if theta is None:
                return None
        return theta
    return None


def match_atom(pattern: Atom, value: Atom, theta: dict):
    if pattern.pred != value.pred or len(pattern.args) != len(value.args):
        return None
    for pa, va in zip(pattern.args, value.args):
        theta = match(pa, va, theta)
        if theta is None:
            return None
    return theta


def free_vars(value, include_formulas: bool = False) -> set:
    """Variable names occurring in a value. Formula-internal variables are
    existential and excluded unless asked for."""
    out: set = set()
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, Var):
            out.add(v.name)
        elif isinstance(v, ActionTerm):
            stack.extend(b for _, b in v.bindings)
        elif isinstance(v, Signed):
            stack.append(v.term)
        elif isinstance(v, Atom):
            stack.extend(v.args)
        elif isinstance(v, Formula):
            if include_formulas:
                stack.extend(c.atom for c in v.conjuncts)
        elif isinstance(v, Literal):
            stack.append(v.atom)
    return out


def is_ground(value) -> bool:
    """True when no variable occurs outside formula positions."""
    return not free_vars(value, include_formulas=False)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render(value) -> str:
    if isinstance(value, Const):
        return f'"{value.value}"' if value.quoted else value.value
    if isinstance(value, Var):
        return "$" + value.name
    if isinstance(value, ActionTerm):
        inner = ",".join(f"({p},{render(v)})" for p, v in value.bindings)
        return f"{value.name}({inner})"
    if isinstance(value, Signed):
        return value.sign + render(value.term)
    if isinstance(value, Atom):
        if not value.args:
            return value.pred
        return f"{value.pred}({', '.join(render(a) for a in value.args)})"
    if isinstance(value, Formula):
        if value.contradiction:
            return "false"
        if not value.conjuncts:
            return "true"
        return " & ".join(render(c) for c in value.conjuncts)
    if isinstance(value, Literal):
        return ("~" if value.negated else "") + render(value.atom)
    raise TypeError(f"cannot render {type(value).__name__}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<var>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>"[^"\n]*")
  | (?P<sym>:-|/\\|\\/|¬|[(){}\[\],.&~+\-=;:|])
    """,
    re.VERBOSE,
)


# Brackets of every kind, counted together, nest at most this deep in any
# input. The parsers and the term walkers recurse once per level, so deeper
# input is refused here with a position instead of exhausting the stack.
MAX_NESTING = 100
_OPEN = frozenset("([{")
_CLOSE = frozenset(")]}")


@dataclass(frozen=True)
class Token:
    kind: str  # 'var' | 'ident' | 'number' | 'string' | 'sym' | 'eof'
    value: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    depth = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tok_value = value
            if kind == "var":
                tok_value = value[1:]
            elif kind == "string":
                tok_value = value[1:-1]
            elif kind == "sym":
                if value == "¬":
                    tok_value = "~"
                elif value in _OPEN:
                    depth += 1
                    if depth > MAX_NESTING:
                        raise ParseError(f"brackets nest deeper than {MAX_NESTING} levels", line, col)
                elif value in _CLOSE:
                    depth -= 1
            tokens.append(Token(kind, tok_value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    def __init__(self, text: str):
        tokens = tokenize(text)
        # two more eof tokens, so a lookahead of up to 2 past the end reads eof
        self.tokens = tokens + tokens[-1:] * 2
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, value: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind in ("sym", "ident") and tok.value == value

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.next()
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if not self.at(value):
            self.fail(f"expected {value!r}, found {tok.value!r}")
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind}, found {tok.value!r}")
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


# ---------------------------------------------------------------------------
# Term / formula parsing (shared by policy, fact, and ontology grammars)
# ---------------------------------------------------------------------------


def parse_term(ts: TokenStream):
    tok = ts.peek()
    if tok.kind == "var":
        ts.next()
        return Var(tok.value)
    if tok.kind == "number":
        ts.next()
        return Const(tok.value)
    if tok.kind == "string":
        ts.next()
        return Const(tok.value, quoted=True)
    if tok.kind == "ident":
        if ts.peek(1).kind == "sym" and ts.peek(1).value == "(":
            return parse_action_term(ts)
        ts.next()
        return Const(tok.value)
    ts.fail(f"expected a term, found {tok.value!r}")


def parse_action_term(ts: TokenStream) -> ActionTerm:
    name = ts.expect_kind("ident").value
    ts.expect("(")
    bindings = []
    if not ts.at(")"):
        while True:
            ts.expect("(")
            prop = ts.expect_kind("ident").value
            ts.expect(",")
            value = parse_term(ts)
            ts.expect(")")
            bindings.append((prop, value))
            if not ts.accept(","):
                break
    ts.expect(")")
    return ActionTerm(name, tuple(bindings))


def parse_formula_atom(ts: TokenStream) -> Atom:
    name = ts.expect_kind("ident").value
    args = []
    if ts.accept("("):
        if not ts.at(")"):
            while True:
                args.append(parse_term(ts))
                if not ts.accept(","):
                    break
        ts.expect(")")
    return Atom(name, tuple(args))


def parse_formula(ts: TokenStream) -> Formula:
    tok = ts.peek()
    if tok.kind == "ident" and tok.value == "true":
        ts.next()
        return TRUE
    if tok.kind == "ident" and tok.value == "false":
        ts.next()
        return FALSE
    conjuncts = []
    while True:
        negated = ts.accept("~")
        conjuncts.append(Literal(negated, parse_formula_atom(ts)))
        if not ts.accept("&"):
            break
    return Formula(tuple(conjuncts))


def parse_argument(ts: TokenStream, allow_formula: bool):
    """Parse one atom argument. In formula positions an identifier followed by
    a single '(' starts a formula atom; ``Name((`` always starts an action term."""
    tok = ts.peek()
    if tok.kind == "sym" and tok.value in ("+", "-"):
        ts.next()
        return Signed(tok.value, parse_term(ts))
    if allow_formula:
        if tok.kind == "sym" and tok.value == "~":
            return parse_formula(ts)
        if tok.kind == "ident" and tok.value in ("true", "false"):
            return parse_formula(ts)
        if tok.kind == "ident" and ts.at("(", 1) and not ts.at("(", 2):
            return parse_formula(ts)
    return parse_term(ts)


def sort_key(value) -> str:
    """Deterministic ordering key used everywhere atoms are emitted."""
    return render(value)
