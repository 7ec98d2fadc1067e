"""Parser robustness: each of the five parsers returns or raises PolcheckError.

Inputs are arbitrary text, character mutations of the files in samples/, and
bracket nesting far past the bound. Any other exception (a RecursionError, an
IndexError) would reach the command line as an internal error.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck.errors import PolcheckError
from polcheck.loading import load_ontology, parse_facts, parse_ontology, parse_patterns, parse_state
from polcheck.policy import parse_policy

SAMPLES = Path(__file__).resolve().parents[1] / "samples"
TEXTS = {p.name: p.read_text(encoding="utf-8") for p in sorted(SAMPLES.iterdir())}
ONTOS = {p.stem: load_ontology(p) for p in sorted(SAMPLES.glob("*.onto"))}

PARSERS = {
    "onto": lambda text, onto: parse_ontology(text),
    "facts": parse_facts,
    "pol": parse_policy,
    "rp": parse_patterns,
    "state": parse_state,
}

# Characters the grammars give meaning to, plus a few they reject.
ALPHABET = "()[]{},.;:=|&~+-$%\"\\/_ \n\tabxyzAZ019¬é\x00"

# (prefix, opener, core, closer, suffix) per format: the opener and closer
# repeat n times around the core, nesting one grammar level each. Hypothesis
# runs a test with about 2,000 stack frames to spare, more than the CLI has,
# so the depths reach well past what that would absorb.
NESTED = {
    "onto": ("action Deep init {} final {} effect p(", "A((t,", "x", "))", ")\n"),
    "facts": ("p(", "A((t,", "x", "))", ").\n"),
    "pol": ("hasObligation(eve, ", "A((t,", "x", "))", ", true).\n"),
    "rp": (
        "refine Audit(target:$x) := ",
        "(",
        "Backup(target:$x)",
        " ; Encrypt(target:$x)):Audit",
        " ; Backup(target:$x) type=basic-seq\n",
    ),
    "state": ("p(", "A((t,", "x", "))", ").\n"),
}


def parse(kind: str, text: str, onto_name: str = "audit") -> None:
    try:
        PARSERS[kind](text, ONTOS.get(onto_name))
    except PolcheckError:
        pass


def mutate(text: str, edits) -> str:
    for where, op, ch in edits:
        pos = int(where * len(text))
        if op == "insert":
            text = text[:pos] + ch + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1:]
        elif op == "replace":
            text = text[:pos] + ch + text[pos + 1:]
        else:  # repeat a slice of the text at pos
            text = text[:pos] + text[pos: pos + 1 + int(where * 40)] + text[pos:]
    return text


edits = st.lists(
    st.tuples(
        st.floats(0, 1),
        st.sampled_from(("insert", "delete", "replace", "repeat")),
        st.sampled_from(ALPHABET),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(PARSERS)), text=st.text(max_size=200) | st.text(ALPHABET, max_size=200))
def test_parsers_survive_arbitrary_text(kind, text):
    parse(kind, text)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(TEXTS)), changes=edits)
def test_parsers_survive_mutated_samples(name, changes):
    stem, kind = name.split(".")
    parse(kind, mutate(TEXTS[name], changes), stem.split("_")[0])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(NESTED)), depth=st.integers(0, 4000))
def test_parsers_survive_deep_nesting(kind, depth):
    prefix, opener, core, closer, suffix = NESTED[kind]
    parse(kind, prefix + opener * depth + core + closer * depth + suffix)
