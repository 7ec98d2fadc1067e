"""The token stream against the reference tokenizer in oracle_tokenize.py.

Both must give the same tokens, and every ParseError with the same message,
line and column: one raised while tokenizing, and one a parser raises at some
token, whose position the stream finds only then by scanning the text again.
The parsers run once over the stream and once over the reference tokens with
the positions they were scanned at.
"""

import contextlib
import importlib.util
import io
import random
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polcheck.cli
import polcheck.loading
import polcheck.policy
from polcheck.errors import ParseError, PolcheckError
from polcheck.loading import parse_facts, parse_ontology
from polcheck.policy import parse_policy, to_text
from polcheck.terms import _LEAVES, MAX_NESTING, ActionTerm, Atom, Const, TokenStream, token_value, tokenize

import oracle_tokenize
from test_parser_fuzz import ALPHABET, NESTED, ONTOS, PARSERS, TEXTS, edits, mutate

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def token_kind(tok: str) -> str:
    """var, ident, number, string or sym; eof for the empty end token."""
    return _LEAVES[tok][0]


def source(tok) -> str:
    """A reference token as the text the stream holds for it."""
    if tok.kind == "var":
        return "$" + tok.value
    if tok.kind == "string":
        return f'"{tok.value}"'
    return tok.value


class ReferenceStream(TokenStream):
    """The stream over the reference tokens, failing at their scanned positions."""

    def __init__(self, text: str):
        tokens = oracle_tokenize.tokenize(text)
        self.text = text
        self.tokens = [source(t) for t in tokens] + ["", ""]
        self.where = [(t.line, t.col) for t in tokens + tokens[-1:] * 2]
        self.pos = 0

    def fail(self, message: str, index: int | None = None):
        raise ParseError(message, *self.where[self.pos if index is None else index])


def error(e: ParseError) -> tuple:
    return str(e), e.line, e.column


def outcome(parse, *args):
    try:
        parse(*args)
    except ParseError as e:
        return error(e)
    except PolcheckError as e:
        return type(e).__name__, str(e)
    return "ok"


def explain(atom: str) -> tuple:
    """Exit code and stderr of `polcheck explain` on the audit sample."""
    argv = ["explain", "--onto", SAMPLES / "audit.onto", "--facts", SAMPLES / "audit.facts",
            "--high", SAMPLES / "audit_high.pol", "--patterns", SAMPLES / "audit.rp", atom]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = polcheck.cli.main([str(a) for a in argv])
    return code, err.getvalue()


@contextlib.contextmanager
def reference_streams():
    with contextlib.ExitStack() as stack:
        for module in (polcheck.loading, polcheck.policy, polcheck.cli):
            stack.enter_context(mock.patch.object(module, "TokenStream", ReferenceStream))
        yield


def assert_same_tokens(text: str, stride: int = 1) -> None:
    """Kinds, values and positions of every token, or the same error. Finding
    one position scans the text up to it, so a long text may have only every
    stride-th token's position checked, and the end's."""
    try:
        want = oracle_tokenize.tokenize(text)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert error(got.value) == error(e)
        return
    tokens = tokenize(text)
    assert [(token_kind(t), token_value(t)) for t in tokens] == [(t.kind, t.value) for t in want]
    ts = TokenStream(text)
    for i, t in enumerate(want + want[-1:] * 2):  # the padding past the end too
        if i % stride and i < len(want) - 1:
            continue
        with pytest.raises(ParseError) as got:
            ts.fail("here", i)
        assert (got.value.line, got.value.column) == (t.line, t.col)


def assert_same_parse(kind: str, text: str, onto_name: str = "audit") -> None:
    parse, onto = PARSERS[kind], ONTOS.get(onto_name)
    got = outcome(parse, text, onto)
    with reference_streams():
        assert got == outcome(parse, text, onto)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_samples_tokenize_as_the_reference(name):
    assert_same_tokens(TEXTS[name])


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=200) | st.text(ALPHABET, max_size=200))
def test_arbitrary_text_tokenizes_as_the_reference(text):
    assert_same_tokens(text)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(PARSERS)), text=st.text(ALPHABET, max_size=200))
def test_arbitrary_text_parses_as_over_the_reference(kind, text):
    assert_same_parse(kind, text)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(TEXTS)), changes=edits)
def test_mutated_samples_tokenize_and_parse_as_the_reference(name, changes):
    stem, kind = name.split(".")
    text = mutate(TEXTS[name], changes)
    assert_same_tokens(text)
    assert_same_parse(kind, text, stem.split("_")[0])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(NESTED)),
    depth=st.integers(MAX_NESTING // 2 - 5, MAX_NESTING + 5),
    changes=st.none() | edits,
)
def test_nesting_around_the_bound_is_refused_as_by_the_reference(kind, depth, changes):
    prefix, opener, core, closer, suffix = NESTED[kind]
    text = prefix + opener * depth + core + closer * depth + suffix
    text = mutate(text, changes) if changes else text
    assert_same_tokens(text)
    assert_same_parse(kind, text)


ATOMS = ["do(report1, eve, -read)", "mustdo(eve, Backup((target,report1)), archived(report1,$t))"]


@settings(max_examples=40, deadline=None)
@given(atom=st.sampled_from(ATOMS), changes=edits)
def test_explain_parses_its_atom_as_over_the_reference(atom, changes):
    atom = mutate(atom, changes)
    got = explain(atom)
    with reference_streams():
        assert got == explain(atom)


def _benchmark_inputs(name: str) -> dict:
    """The full-size input texts of a perfbench workload, seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module.generate(name, 1, "full").texts


@pytest.mark.parametrize("name", ["wide", "deep"])
def test_benchmark_size_inputs_parse_as_over_the_reference(name):
    # the low policy is the largest input the parsers read; every hundredth
    # token's position is checked, as finding one scans the text up to it
    texts = _benchmark_inputs(name)
    onto = parse_ontology(texts["onto"])
    for kind, parse in (("low", parse_policy), ("facts", parse_facts)):
        text = texts[kind]
        assert_same_tokens(text, stride=100)
        parsed = parse(text, onto)
        with reference_streams():
            assert parse(text, onto) == parsed
        rng = random.Random(kind)
        for _ in range(3):
            changes = [(rng.random(), rng.choice(("insert", "delete", "replace", "repeat")), rng.choice(ALPHABET))
                       for _ in range(rng.randint(1, 6))]
            changed = mutate(text, changes)
            assert_same_tokens(changed, stride=100)
            got = outcome(parse, changed, onto)
            with reference_streams():
                assert outcome(parse, changed, onto) == got
    policy = parse_policy(texts["low"], onto)
    assert parse_policy(to_text(policy), onto) == policy


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["wide", "deep"])
def test_parsing_a_low_policy_holds_little_beside_its_tokens(name):
    # The parse of the low policy sets the heap peak of `check` on these
    # workloads: a per-token side structure (a kinds list costs 8 bytes a
    # token) would lift it. The first parse interns the terms and leaves.
    texts = _benchmark_inputs(name)
    onto = parse_ontology(texts["onto"])
    parse_policy(texts["low"], onto)
    tokens = traced_peak(lambda: tokenize(texts["low"]))
    assert traced_peak(lambda: parse_policy(texts["low"], onto)) <= 1.3 * tokens


# ---------------------------------------------------------------------------
# Edge cases, pinned
# ---------------------------------------------------------------------------


def raised(parse, text: str) -> tuple:
    with pytest.raises(ParseError) as e:
        parse(text)
    return error(e.value)


@pytest.mark.parametrize(
    "text,message,col",
    [
        ("(" * (MAX_NESTING + 1) + "#", f"brackets nest deeper than {MAX_NESTING} levels", MAX_NESTING + 1),
        ("#" + "(" * (MAX_NESTING + 1), "unexpected character '#'", 1),
        ("(" * MAX_NESTING + "#" + "(", "unexpected character '#'", MAX_NESTING + 1),
        ("[" * MAX_NESTING + "{" + '"(', f"brackets nest deeper than {MAX_NESTING} levels", MAX_NESTING + 1),
    ],
    ids=["nesting-first", "character-first", "character-at-the-bound", "string-after-nesting"],
)
def test_the_first_lexical_error_in_the_text_is_reported(text, message, col):
    assert raised(tokenize, text) == (f"line 1, col {col}: {message}", 1, col)
    assert_same_tokens(text)


@pytest.mark.parametrize(
    "text,where",
    [
        ("scope audit\n% trailing comment\n", (3, 1)),
        ("scope audit   ", (1, 15)),
        ("scope audit % no newline", (1, 25)),
    ],
    ids=["comment", "whitespace", "comment-at-the-end"],
)
def test_an_early_end_is_reported_at_the_end_of_the_text(text, where):
    line, col = where
    assert raised(parse_policy, text) == (f"line {line}, col {col}: expected '.', found ''", line, col)
    assert_same_parse("pol", text)


@pytest.mark.parametrize(
    "text,char,col",
    [
        ("p($1).", "$", 3),
        ("p(a) :- q($).", "$", 11),
        ('p("abc).', '"', 3),
        ('p("a\nb").', '"', 3),
        ("p(٣).", "٣", 3),
    ],
    ids=["dollar-digit", "dollar-alone", "unclosed-string", "string-over-a-newline", "arabic-digit"],
)
def test_a_character_that_starts_no_token_is_an_error_there(text, char, col):
    for parse in (parse_policy, parse_facts):
        assert raised(parse, text) == (f"line 1, col {col}: unexpected character {char!r}", 1, col)
    assert_same_tokens(text)


def test_not_sign_is_the_negation_symbol():
    assert tokenize("~p & ¬q") == ["~", "p", "&", "~", "q", ""]
    assert tokenize('"¬"') == ['"¬"', ""]


def test_a_quoted_token_never_equals_a_symbol_or_keyword():
    ts = TokenStream('"(" "class" $x')
    assert not ts.at("(") and not ts.at("class", 1) and not ts.at("x", 2)
    assert [token_kind(t) for t in ts.tokens] == ["string", "string", "var", "eof", "eof", "eof"]


@pytest.mark.parametrize(
    "text",
    [
        "p(a)%c\n.",
        "p(a).%c",
        "%a\n%b\n\n  %c\np(a).",
        "p(a). % no newline",
        "scope audit.\r\n% c\r\np(a) :- q(b).\r\n",
        "p(a) :- q(b) & %c\n¬r(c).",
        "p(a).\n%c\n#",
        "p(a). %c\n%d\n@q",
        'p(a). % a "quote\nq(b).',
        "p(a). % an open ( and a close )\nq(b).",
        "p(a). % %% twice % more\nq(b).",
        'p(a) :- % "(" ( % )\nq(b).',
        "p(a).\n% last line, no newline (",
        'p(a).\n% last line, no newline "',
        "p(a). %c\n \t\n",
        'p("50%", "(").',
        "%only a comment",
        " \t\r\n",
        "p(a).%c\n#",
        "p(a). %c\n$1",
        'p(a). %c\n"open',
        "p(a) %c\n٣",
    ],
    ids=[
        "comment-touching-a-token",
        "comment-right-after-a-token",
        "back-to-back-comment-lines",
        "comment-at-the-end-without-a-newline",
        "crlf-line-ends",
        "not-sign-after-a-comment",
        "bad-character-after-a-comment",
        "bad-character-after-two-comments",
        "comment-holding-a-quote",
        "comment-holding-brackets",
        "comment-holding-percent-signs",
        "comment-holding-all-three-before-a-token",
        "last-line-comment-holding-a-bracket",
        "last-line-comment-holding-a-quote",
        "whitespace-after-the-last-comment",
        "percent-sign-and-bracket-in-strings",
        "only-a-comment",
        "only-whitespace",
        "comment-right-before-a-bad-character",
        "comment-before-a-bad-dollar",
        "comment-before-an-unclosed-string",
        "comment-before-an-arabic-digit",
    ],
)
def test_comments_and_whitespace_before_a_token_are_skipped_as_by_the_reference(text):
    assert_same_tokens(text)
    assert_same_parse("pol", text)


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize(
    "inner",
    ["", '"((("', '"(" "[" "{"', "% (((\n", "%(\n%[\n", "#(((", '# "(" %(', '"((" % (\n#((', "(", ")("],
    ids=[
        "bare", "string", "strings", "comment", "comments", "bad-character", "bad-then-string-and-comment",
        "all-three", "one-more", "close-and-open",
    ],
)
def test_nesting_at_the_bound_ignores_brackets_in_strings_comments_and_after_a_bad_character(depth, inner):
    text = "(" * depth + inner + ")" * depth
    assert_same_tokens(text)
    assert_same_parse("pol", text)


# An action term read once as a rule's argument and once in a fact: an error
# is raised at the binding that goes wrong, with the same message in both.
_POL = "cando({}, eve, +execute) :- type(eve, Employee)."
_FACT = "done(eve, {}, t1, t2)."


@pytest.mark.parametrize(
    "term,message,col",
    [
        ("A((p,x),(p,y))", "A binds property 'p' twice", 10),
        ("A((p,v),)", "expected '(', found ')'", 9),
        ("A((p v))", "expected ',', found 'v'", 6),
        ("A(($x,v))", "expected ident, found 'x'", 4),
        ("A((p,B((q,v))),(p,y))", "A binds property 'p' twice", 17),
        ("A((p,x),(p,B((q,v))))", "A binds property 'p' twice", 10),
        ("A((p,x),(q,y),(p,z))", "A binds property 'p' twice", 16),
        ("A((p,x)(q,y))", "expected ')', found '('", 8),
        ("A((p,+x))", "expected a term, found '+'", 6),
    ],
    ids=[
        "duplicate-property", "trailing-comma", "missing-comma", "variable-property", "duplicate-after-a-compound",
        "duplicate-of-a-compound", "duplicate-past-another", "no-comma-between-bindings", "signed-value",
    ],
)
def test_a_bad_action_term_is_reported_where_the_binding_goes_wrong(term, message, col):
    # col counts from the term's first character
    for parse, template in ((parse_policy, _POL), (parse_facts, _FACT)):
        text = template.format(term)
        at = template.index("{") + col
        assert raised(parse, text) == (f"line 1, col {at}: {message}", 1, at)
        assert_same_parse("pol" if parse is parse_policy else "facts", text)


@pytest.mark.parametrize(
    "term,want",
    [
        ("A()", ActionTerm("A")),
        ("A((p,B((q,v))))", ActionTerm("A", (("p", ActionTerm("B", (("q", Const("v")),))),))),
        ("A((q,w),(p,\"v\"))", ActionTerm("A", (("p", Const("v", True)), ("q", Const("w"))))),
    ],
    ids=["empty", "nested", "two-bindings"],
)
def test_an_action_term_reads_the_same_as_an_argument_and_in_a_fact(term, want):
    assert parse_policy(_POL.format(term)).rules[0].head.args[0] is want
    assert Atom("done", (Const("eve"), want, Const("t1"), Const("t2"))) in parse_facts(_FACT.format(term)).base_atoms
