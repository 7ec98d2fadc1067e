"""Command-line behavior: exit codes, output shapes, and determinism.

Everything runs in-process through main(argv) so coverage tools and
monkeypatching work; no subprocesses.
"""

import json
from pathlib import Path

import pytest

import polcheck.cli
from polcheck.cli import main
from polcheck.errors import ParseError
from polcheck.loading import load_policy

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
