"""Command-line behavior: exit codes, output shapes, and determinism.

Everything runs in-process through main(argv) so coverage tools and
monkeypatching work; no subprocesses.
"""

import argparse
import json
from pathlib import Path

import pytest

import polcheck.cli
from polcheck.cli import main
from polcheck.errors import ParseError
from polcheck.loading import load_policy
from polcheck.terms import MAX_NESTING

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.delenv("POLCHECK_COLOR", raising=False)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def audit_args(command, low=SAMPLES / "audit_low.pol", state=SAMPLES / "audit.state"):
    argv = [
        command,
        "--onto", SAMPLES / "audit.onto",
        "--facts", SAMPLES / "audit.facts",
        "--high", SAMPLES / "audit_high.pol",
        "--patterns", SAMPLES / "audit.rp",
    ]
    if low is not None:
        argv += ["--low", low]
    if state is not None:
        argv += ["--state", state]
    return argv


def protect_args(command):
    return [
        command,
        "--onto", SAMPLES / "protect.onto",
        "--facts", SAMPLES / "protect.facts",
        "--high", SAMPLES / "protect_high.pol",
        "--patterns", SAMPLES / "protect.rp",
    ]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_reports_ok_per_file(capsys):
    code, out, _ = run(capsys, *audit_args("validate"))
    assert code == 0
    assert out.splitlines() == [
        f"{SAMPLES / 'audit.onto'}: ok",
        f"{SAMPLES / 'audit.facts'}: ok",
        f"{SAMPLES / 'audit_high.pol'}: ok",
        f"{SAMPLES / 'audit_low.pol'}: ok",
        f"{SAMPLES / 'audit.rp'}: ok",
        f"{SAMPLES / 'audit.state'}: ok",
    ]


def test_validate_flags_stratification_violations(capsys, tmp_path):
    bad = tmp_path / "bad.pol"
    bad.write_text("hasObligation($s, $a, $q) :- mustdo($s, $a, $q).\n")
    argv = audit_args("validate", low=None, state=None)
    argv[argv.index("--high") + 1] = bad
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert f"{bad}: violations" in out
    assert "  r1: " in out


def test_validate_flags_term_growing_recursion(capsys, tmp_path):
    high = (SAMPLES / "audit_high.pol").read_text(encoding="utf-8")
    bad = tmp_path / "grow.pol"
    bad.write_text(high + "derhasObligation($s, A0((target,$a)), $q) :- derhasObligation($s, $a, $q).\n")
    argv = audit_args("validate", low=None, state=None)
    argv[argv.index("--high") + 1] = bad
    code, out, _ = run(capsys, *argv)
    assert code == 2
    n = len(load_policy(bad).rules)
    assert (
        f"  r{n}: row 3: the head nests $a deeper than the recursive literal "
        "derhasObligation($s, $a, $q) does, so its terms would grow without bound\n"
    ) in out


def _state_heavy_args(tmp_path, body, row):
    """14 binary state variables: Provision's initial space fixes one of
    them, so it holds 8,192 states, past the default --oracle-bound."""
    names = [f"v{i}" for i in range(14)]
    onto = ["class Entity", "class Machine subclassOf Entity", "prop type dom Entity range Entity"]
    onto += [f"prop {v}s dom Machine range Entity" for v in names]
    onto += [f"var {v} maps m0.{v}s range {{off, on}}" for v in names]
    onto += [
        "action Provision(target) init {v0=off} final {v0=on, v1=on}",
        "action Prepare(target) init {v0=off} final {v1=on}",
        "action Commit(target) init {v1=on} final {v0=on, v1=on}",
        "transform Prepare when {} set {v1=on}",
        "transform Commit when {} set {v0=on}",
    ]
    files = {
        "onto": "\n".join(onto),
        "facts": "obj m0 : Machine",
        "high": "hasObligation($s, Provision((target,$x)), true) :- type($s, Machine) & type($x, Machine).",
        "patterns": f"refine Provision(target:$x) := {body} type={row}",
    }
    argv = ["validate"]
    for flag, text in files.items():
        (tmp_path / flag).write_text(text + "\n")
        argv += [f"--{flag}", tmp_path / flag]
    return argv


def test_validate_bounds_only_the_rows_that_read_states(capsys, tmp_path):
    seq = _state_heavy_args(tmp_path, "Prepare(target:$x) ; Commit(target:$x)", "basic-seq")
    code, out, err = run(capsys, *seq)
    assert (code, err) == (0, "")
    assert out.count(": ok\n") == 4
    conj = _state_heavy_args(tmp_path, "Prepare(target:$x) /\\_s Commit(target:$x)", "basic-strict-conj")
    code, out, err = run(capsys, *conj)
    assert (code, out) == (2, "")
    assert err == "error: root: initial space has 8192 states, past the bound of 4096\n"


def test_validate_json_document(capsys):
    code, out, _ = run(capsys, *audit_args("validate"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert [f["status"] for f in doc["files"]] == ["ok"] * 6


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------


def test_refine_prints_every_branch(capsys):
    code, out, _ = run(capsys, *protect_args("refine"))
    assert code == 0
    assert "% branch 1" in out and "% branch 2" in out
    assert "%   r1 p1 conj.1" in out and "%   r1 p1 conj.2" in out
    assert "derhasObligation" in out


def test_refine_writes_branch_files(capsys, tmp_path):
    out_dir = tmp_path / "branches"
    code, out, _ = run(capsys, *protect_args("refine"), "--out", out_dir)
    assert code == 0
    assert out.strip() == f"2 branches written to {out_dir}"
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "branch_001.choices",
        "branch_001.pol",
        "branch_002.choices",
        "branch_002.pol",
    ]
    assert (out_dir / "branch_001.choices").read_text() == "r1 p1 conj.1\n"
    assert "derhasObligation" in (out_dir / "branch_002.pol").read_text()


def test_refine_json_carries_choice_logs(capsys):
    code, out, _ = run(capsys, *protect_args("refine"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [b["choice_log"] for b in doc["branches"]] == [
        [["r1", "p1", "conj.1"]],
        [["r1", "p1", "conj.2"]],
    ]


def test_refine_surfaces_guard_warnings(capsys):
    code, _, err = run(
        capsys,
        "refine",
        "--onto", SAMPLES / "compose.onto",
        "--facts", SAMPLES / "compose.facts",
        "--high", SAMPLES / "compose_high.pol",
        "--patterns", SAMPLES / "compose.rp",
    )
    assert code == 0
    assert "guarded composition refined as its basic counterpart" in err


def test_refine_lists_each_warning_once(capsys, tmp_path):
    # a second Protect obligation doubles the branches and meets the guarded
    # pattern again; the warning is still listed once
    high = tmp_path / "compose_high.pol"
    high.write_text(
        (SAMPLES / "compose_high.pol").read_text(encoding="utf-8")
        + "hasObligation($s, Protect((target,$x)), true) :- owns($s, $x).\n",
        encoding="utf-8",
    )
    argv = [
        "refine",
        "--onto", SAMPLES / "compose.onto",
        "--facts", SAMPLES / "compose.facts",
        "--high", high,
        "--patterns", SAMPLES / "compose.rp",
    ]
    warning = "p1: guarded composition refined as its basic counterpart (guards do not reach rules)"
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert [line for line in err.splitlines() if "guarded" in line] == [f"warning: {warning}"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert len(doc["branches"]) == 4
    assert doc["warnings"] == [warning]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_compliant_exits_zero(capsys):
    code, out, _ = run(capsys, *audit_args("check"))
    assert code == 0
    assert out.startswith("verdict: compliant\n")
    assert "enforced_by_low_view:" in out


def test_check_non_compliant_exits_one(capsys, tmp_path):
    low = tmp_path / "low.pol"
    source = (SAMPLES / "audit_low.pol").read_text()
    low.write_text(
        "\n".join(ln for ln in source.splitlines() if "-read" not in ln) + "\n"
    )
    code, out, _ = run(capsys, *audit_args("check", low=low))
    assert code == 1
    assert out.startswith("verdict: non-compliant\n")
    assert "modal-authorization-violation: do(report1, eve, -read) [r4]" in out


def test_check_without_state_finds_pending_obligation(capsys):
    code, out, _ = run(capsys, *audit_args("check", state=None))
    assert code == 1
    assert "obligation-violation" in out


@pytest.mark.parametrize("sample", ["nested", "labeled"])
def test_a_low_policy_that_grants_nothing_complies_with_effectless_true_duties(
    capsys, tmp_path, sample
):
    # An obligation whose postcondition is `true`, on an action that declares
    # no effect, counts as satisfied in every state, so the audit never asks
    # the low policy for it. This pins today's verdict; whether it matches the
    # paper's definition of compliance is an open question.
    low = tmp_path / "empty.pol"
    low.write_text("% grants nothing\n")
    code, out, _ = run(
        capsys,
        "check",
        "--onto", SAMPLES / f"{sample}.onto",
        "--facts", SAMPLES / f"{sample}.facts",
        "--high", SAMPLES / f"{sample}_high.pol",
        "--patterns", SAMPLES / f"{sample}.rp",
        "--low", low,
    )
    assert code == 0
    assert out.startswith("verdict: compliant\nmatched branch:\n")


def test_check_inconsistent_input_exits_two(capsys, tmp_path):
    low = tmp_path / "low.pol"
    low.write_text(
        (SAMPLES / "audit_low.pol").read_text()
        + "\nerror :- do(report1, eve, -read) & guards(bob, report1).\n"
    )
    code, out, _ = run(capsys, *audit_args("check", low=low))
    assert code == 2
    assert out.startswith("verdict: inconsistent-input\n")


def test_check_json_report_matches_saved_copy(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, out, _ = run(
        capsys, *audit_args("check"), "--format", "json", "--out", out_dir
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "compliant"
    assert doc["schema_version"] == 1
    assert (out_dir / "report.json").read_text() == out


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


def test_explain_prefers_the_low_level_policy(capsys):
    code, out, _ = run(capsys, *audit_args("explain"), "do(report1, eve, -read)")
    assert code == 0
    assert out.startswith(f"% derived by the low-level policy {SAMPLES / 'audit_low.pol'}\n")
    assert "do(report1, eve, -read)" in out


def test_explain_searches_refinement_branches(capsys):
    code, out, _ = run(
        capsys, *protect_args("explain"), "mustdo(Alice, InstallAntiVirus((target,NB1)), true)"
    )
    assert code == 0
    assert "% derived in refinement branch 2 of 2" in out
    assert "%   r1 p1 conj.2" in out
    assert "mustdo(Alice, InstallAntiVirus((target,NB1)), true)" in out
    assert "by " in out


def test_explain_reports_underivable_atoms(capsys):
    code, out, _ = run(
        capsys, *protect_args("explain"), "mustdo(Alice, InstallFirewall((target,NB1)), true)"
    )
    assert code == 0
    assert out.strip() == "not derivable"


def test_explain_rejects_open_atoms(capsys):
    code, _, err = run(
        capsys, *protect_args("explain"), "mustdo($s, InstallFirewall((target,NB1)), true)"
    )
    assert code == 2
    assert err.startswith("error:")
    assert "has variables" in err


def test_explain_rejects_unparseable_atoms(capsys):
    code, _, err = run(capsys, *protect_args("explain"), "mustdo(")
    assert code == 2
    assert err.startswith("error:")


def test_explain_refuses_an_unstratified_low_rule_outside_the_atoms_cone(capsys, tmp_path):
    # decided: explain evaluates only the rules its atom depends on, but
    # checks every rule for stratification first; the mustdo rule cannot
    # reach the do atom and still fails the command
    low = tmp_path / "low.pol"
    low.write_text(
        (SAMPLES / "audit_low.pol").read_text()
        + "mustdo($s, $a, $q) :- mustdo($s, $a, $q) & cando($o, $s, +$a).\n"
    )
    code, out, err = run(capsys, *audit_args("explain", low=low, state=None), "do(report1, eve, -read)")
    assert (code, out) == (2, "")
    assert err == (
        "error: policy is not stratified: r6: row 4 bodies admit hasObligation, derhasObligation,"
        " hasDispensation, derhasDispensation, done, hie- and rel- literals; found mustdo\n"
    )


@pytest.mark.parametrize(
    "atom, message",
    [
        ("mustdo(alice, x)", "mustdo takes 3 argument(s), got 2"),
        ("nosuchpred(a, b)", "unknown predicate 'nosuchpred'"),
        ("do(report1, eve, read)", "do requires a signed (+/-) action argument"),
    ],
)
def test_explain_rejects_atoms_no_policy_can_hold(capsys, atom, message):
    code, out, err = run(capsys, *audit_args("explain"), atom)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert message in err


# ---------------------------------------------------------------------------
# Option flags: each subcommand takes only the ones it reads
# ---------------------------------------------------------------------------

_INPUT_FLAGS = ("--onto", "--facts", "--high", "--patterns", "--low", "--state")
READS = {
    "validate": {*_INPUT_FLAGS, "--format", "--oracle-bound"},
    "refine": {*_INPUT_FLAGS, "--format", "--max-branches", "--mode", "--out"},
    "check": {*_INPUT_FLAGS, "--format", "--max-branches", "--mode", "--out"},
    "explain": {*_INPUT_FLAGS, "--max-branches", "--mode"},
}
# flag -> (a value it accepts, what parse_args stores for it)
_VALUES = {
    **{flag: ("x", "x") for flag in (*_INPUT_FLAGS, "--out")},
    "--format": ("json", "json"),
    "--mode": ("custom", "custom"),
    "--max-branches": ("3", 3),
    "--oracle-bound": ("5", 5),
}


def test_the_subcommands_register_only_the_flags_they_read():
    (subparsers,) = [
        a for a in polcheck.cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)
    ]
    flags = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert flags == READS
    assert sum(len(f) for f in flags.values()) == 36


@pytest.mark.parametrize("command", sorted(READS))
@pytest.mark.parametrize("flag", sorted(_VALUES))
def test_a_flag_parses_only_on_a_subcommand_that_reads_it(capsys, command, flag):
    required = ["--onto", "--facts", "--high", "--patterns"] + (["--low"] if command == "check" else [])
    argv = [command]
    for f in dict.fromkeys([*required, flag]):
        argv += [f, _VALUES[f][0]]
    argv += ["do(report1, eve, -read)"] if command == "explain" else []
    if flag in READS[command]:
        args = polcheck.cli._PARSER.parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) == _VALUES[flag][1]
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


# ---------------------------------------------------------------------------
# Failure modes and determinism
# ---------------------------------------------------------------------------


def test_missing_input_file_exits_two(capsys, tmp_path):
    argv = audit_args("check")
    argv[argv.index("--onto") + 1] = tmp_path / "nonexistent.onto"
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_malformed_ontology_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.onto"
    bad.write_text("class A\nclass A\n")
    argv = audit_args("validate")
    argv[argv.index("--onto") + 1] = bad
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "duplicate class" in err


@pytest.mark.parametrize(
    "command, flag", [("refine", "--low"), ("refine", "--state"), ("explain", "--state")]
)
def test_every_input_file_given_is_read(capsys, tmp_path, command, flag):
    bad = tmp_path / "bad.input"
    bad.write_text("not valid input\n")
    argv = audit_args(command) + (["do(report1, eve, -read)"] if command == "explain" else [])
    argv[argv.index(flag) + 1] = bad
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: line 1")


def test_load_errors_keep_their_position(capsys, tmp_path):
    bad = tmp_path / "bad.pol"
    bad.write_text("mustdo(a, b\n")
    argv = audit_args("check")
    argv[argv.index("--high") + 1] = bad
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: line 2, col 1: expected ')', found ''\n"
    with pytest.raises(ParseError) as exc:
        load_policy(bad)
    assert (exc.value.path, exc.value.line, exc.value.column) == (bad, 2, 1)


@pytest.mark.parametrize("flag,name", [("--high", "digit.pol"), ("--facts", "digit.facts")])
def test_a_non_ascii_digit_is_an_unexpected_character(capsys, tmp_path, flag, name):
    # identifiers and numbers are ASCII, so U+0663 ARABIC-INDIC DIGIT THREE is no number
    bad = tmp_path / name
    bad.write_text("p(\u0663).\n", encoding="utf-8")
    argv = audit_args("check")
    argv[argv.index(flag) + 1] = bad
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: line 1, col 3: unexpected character '\u0663'\n"


def test_non_utf8_input_exits_two(capsys, tmp_path):
    facts = (SAMPLES / "audit.facts").read_bytes()
    bad = tmp_path / "latin1.facts"
    bad.write_bytes(facts + b"obj caf\xe9 : Employee\n")
    argv = audit_args("check")
    argv[argv.index("--facts") + 1] = bad
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    line = facts.count(b"\n") + 1
    assert err.startswith(f"error: {bad}: line {line}: not UTF-8 text")


def _nested_input(flag, depth):
    """A pattern with ``depth`` nested labeled parentheses, or a high policy
    with an action term ``depth`` levels deep (two brackets per level)."""
    if flag == "--patterns":
        body = "Backup(target:$x)"
        for _ in range(depth):
            body = f"({body} ; Encrypt(target:$x)):Audit"
        return f"refine Audit(target:$x) := {body} ; Backup(target:$x) type=basic-seq\n"
    term = "report1"
    for _ in range(depth):
        term = f"Audit((target,{term}))"
    return f"hasObligation(eve, {term}, true) :- type(eve, Employee).\n"


def _running_depth(text):
    depth, out = 0, []
    for ch in text:
        depth += (ch in "([{") - (ch in ")]}")
        out.append(depth)
    return out


@pytest.mark.parametrize("flag,depth", [("--patterns", 400), ("--high", 600)])
def test_deep_nesting_is_a_parse_error(capsys, tmp_path, flag, depth):
    bad = tmp_path / "deep.txt"
    text = _nested_input(flag, depth)
    bad.write_text(text)
    argv = audit_args("validate", low=None, state=None)
    argv[argv.index(flag) + 1] = bad
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    col = _running_depth(text).index(MAX_NESTING + 1) + 1
    assert err == f"error: {bad}: line 1, col {col}: brackets nest deeper than {MAX_NESTING} levels\n"


@pytest.mark.parametrize(
    "flag,text,action,prop",
    [
        (
            "--high",
            "hasObligation($s, Backup((target,$x),(target,report1)), true)\n"
            "    :- type($s, Employee) & guards($s, $x).\n",
            "Backup",
            "target",
        ),
        (
            "--patterns",
            "refine Audit(target:$x) := Backup(target:$x) ; Encrypt(target:$x, target:$x)\n"
            "    type=basic-seq\n",
            "Encrypt",
            "target",
        ),
        (
            "--patterns",
            "refine Audit(target:$x) := Backup(target:$x) ; Encrypt(target:Key((of,$x),(of,$x)))\n"
            "    type=basic-seq\n",
            "Key",
            "of",
        ),
    ],
    ids=["policy", "pattern", "pattern-term"],
)
def test_a_property_bound_twice_is_a_parse_error(capsys, tmp_path, flag, text, action, prop):
    # Equality of action terms must not depend on the order bindings are
    # written in, so a term may bind each property once.
    bad = tmp_path / "twice.txt"
    bad.write_text(text)
    argv = audit_args("check")
    argv[argv.index(flag) + 1] = bad
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    col = text.rindex(prop) + 1  # the second binding's property, on line 1
    assert err == f"error: {bad}: line 1, col {col}: {action} binds property '{prop}' twice\n"


@pytest.mark.parametrize("flag,depth", [("--patterns", MAX_NESTING - 1), ("--high", MAX_NESTING // 2 - 1)])
def test_nesting_up_to_the_bound_is_accepted(capsys, tmp_path, flag, depth):
    text = _nested_input(flag, depth)
    assert max(_running_depth(text)) <= MAX_NESTING < max(_running_depth(_nested_input(flag, depth + 1)))
    ok = tmp_path / "deep.txt"
    ok.write_text(text)
    argv = audit_args("validate", low=None, state=None)
    argv[argv.index(flag) + 1] = ok
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert f"{ok}: ok" in out.splitlines()


def test_internal_errors_exit_two(capsys, monkeypatch):
    # exit 1 from check means non-compliant, so a fault must not produce it
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(polcheck.cli, "check_compliance", broken)
    code, out, err = run(capsys, *audit_args("check"))
    assert code == 2
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


def test_command_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_repeat_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, *audit_args("check"))
    _, second, _ = run(capsys, *audit_args("check"))
    assert first == second
    _, first, _ = run(capsys, *protect_args("refine"))
    _, second, _ = run(capsys, *protect_args("refine"))
    assert first == second


def test_color_is_opt_in(capsys, monkeypatch):
    monkeypatch.setenv("POLCHECK_COLOR", "1")
    _, colored, _ = run(capsys, *audit_args("check"))
    assert "\x1b[32mcompliant\x1b[0m" in colored
    monkeypatch.delenv("POLCHECK_COLOR")
    _, plain, _ = run(capsys, *audit_args("check"))
    assert "\x1b[" not in plain
