"""Seeded workload generator for the polcheck benchmark.

Each generator writes nothing itself: it returns the text of the six input
files (.onto, .facts, high and low .pol, .rp, .state), the ground atom that
`explain` asks about, and the answers every subcommand must give. Those
answers come from the generator's own construction (which subject lacks a
grant, which refinement choice the low policy follows, which variable the
current state sets), never from running polcheck, so the checker compares the
program against an independent expectation.

Atoms are rendered the way the polcheck report prints them: arguments joined
by ", ", action-term bindings as `(prop,value)`, formula conjuncts by " & ".

The seed changes which subjects are picked and the order of facts and rules
in the files; it never changes the sizes, so every seed asks the same amount
of work of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

MODAL_CAP = "modal-capability-conflict"
OBLIGATION = "obligation-violation"

# Input sizes. "full" is what the benchmark measures; "smoke" is small enough
# for the naive Datalog oracle to cross-check the generator's expected models.
SIZES = {
    "full": {
        "wide": {"subjects": 70},
        "deep": {"depth": 75},
        "branchy": {"rules": 5, "subjects": 5},
        "state-heavy": {"variables": 7},
    },
    "smoke": {
        "wide": {"subjects": 12},
        "deep": {"depth": 8},
        "branchy": {"rules": 3, "subjects": 2},
        "state-heavy": {"variables": 4},
    },
}

FILE_SUFFIXES = {
    "onto": "domain.onto",
    "facts": "domain.facts",
    "high": "high.pol",
    "low": "low.pol",
    "patterns": "domain.rp",
    "state": "current.state",
}


@dataclass
class Expected:
    """What each subcommand must answer on the generated inputs."""

    verdict: str  # check verdict
    check_exit: int
    matched_branch: list  # choice log of the matching or nearest-miss branch
    conflicts: list  # [(category, [witness, ...]), ...] in report order
    mustdo: list  # sorted mustdo atoms of that branch
    branches_examined: int
    branch_logs: list  # refine: the choice log of every branch, in order
    explain_branch: int  # 1-based refinement branch that first derives the atom
    explain_depth: int  # node levels of the derivation tree
    released: list = field(default_factory=list)  # obligations the state releases

    @property
    def branches(self) -> int:
        return len(self.branch_logs)


@dataclass
class Workload:
    name: str
    seed: int
    size: dict
    texts: dict  # file role -> text
    explain_atom: str
    expected: Expected

    def write(self, directory: Path) -> dict:
        """Write the input files; returns file role -> path string."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for role, text in self.texts.items():
            path = directory / FILE_SUFFIXES[role]
            path.write_text(text, encoding="utf-8")
            paths[role] = str(path)
        return paths


def _shuffled(rng: random.Random, lines) -> list:
    lines = list(lines)
    rng.shuffle(lines)
    return lines


def _conflict_key(conflict):
    category, witness = conflict
    return (category, tuple(witness))


# ---------------------------------------------------------------------------
# wide: many subjects, one fixpoint round of very wide joins
# ---------------------------------------------------------------------------


def wide(seed: int, subjects: int) -> Workload:
    """The samples/audit domain with `subjects` employees, each guarding one
    document. The low policy grants and enforces both duties of every
    employee, except that a seeded tenth lacks the Backup grant and a seeded
    twentieth lacks the Encrypt grant; Encrypt is already discharged for the
    seeded fifth of documents the current state shows encrypted."""
    rng = random.Random(seed)
    n = subjects
    ids = list(range(n))
    no_backup = set(rng.sample(ids, max(1, n // 10)))
    no_encrypt = set(rng.sample([i for i in ids if i not in no_backup], max(1, n // 20)))
    encrypted = set(rng.sample(ids, max(1, n // 5)))

    onto = """\
class Entity
class Employee subclassOf Entity
class Document subclassOf Entity
class Tape subclassOf Entity
class Cipher subclassOf Entity

prop type dom Entity range Entity family hie
prop guards dom Employee range Document
prop cipherOf dom Cipher range Document
prop archived dom Document range Tape

action Backup(target) init {} final {}
    effect archived($target, $t)
    resource tape1
action Encrypt(target) init {} final {}
    effect cipherOf($c, $target)
action Audit(target) init {} final {}
"""
    facts = ["obj eve : Employee", "obj tape1 : Tape"]
    facts += _shuffled(
        rng,
        [f"obj e{i} : Employee" for i in ids]
        + [f"obj d{i} : Document" for i in ids]
        + [f"guards(e{i}, d{i})." for i in ids],
    )
    high = """\
scope audit.

hasObligation($s, Backup((target,$x)), archived($x,$t))
    :- type($s, Employee) & guards($s, $x) & type($x, Document).

hasObligation($s, Encrypt((target,$x)), cipherOf($c,$x))
    :- type($s, Employee) & guards($s, $x) & type($x, Document).

mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).

do(d0, eve, -read) :- ~do(d0, eve, +read).
"""
    low_rules = []
    for i in ids:
        guard = f"type(d{i}, Document) & guards(e{i}, d{i})"
        if i not in no_backup:
            low_rules.append(f"cando(Backup((target,d{i})), e{i}, +execute) :- {guard}.")
        if i not in no_encrypt:
            low_rules.append(f"cando(Encrypt((target,d{i})), e{i}, +execute) :- {guard}.")
        low_rules.append(f"mustdo(e{i}, Backup((target,d{i})), archived(d{i},$t)) :- {guard}.")
        low_rules.append(f"mustdo(e{i}, Encrypt((target,d{i})), cipherOf($c,d{i})) :- {guard}.")
    low = ["scope audit.", ""] + _shuffled(rng, low_rules) + [
        "do($o, $s, +$a) :- cando($o, $s, +$a).",
        "do(d0, eve, -read) :- ~do(d0, eve, +read).",
    ]
    state = _shuffled(rng, [f"cipherOf(k{i}, d{i})." for i in sorted(encrypted)])

    def backup(i):
        return f"mustdo(e{i}, Backup((target,d{i})), archived(d{i}, $t))"

    def encrypt(i):
        return f"mustdo(e{i}, Encrypt((target,d{i})), cipherOf($c, d{i}))"

    conflicts = [
        (MODAL_CAP, [backup(i), f"do(Backup((target,d{i})), e{i}, +execute)"]) for i in no_backup
    ] + [
        (MODAL_CAP, [encrypt(i), f"do(Encrypt((target,d{i})), e{i}, +execute)"])
        for i in no_encrypt
        if i not in encrypted
    ]
    h = rng.choice(sorted(no_backup))
    return Workload(
        "wide",
        seed,
        {"subjects": n},
        {
            "onto": onto,
            "facts": "\n".join(facts) + "\n",
            "high": high,
            "low": "\n".join(low) + "\n",
            "patterns": "% no composite actions: every obligation is atomic\n",
            "state": "\n".join(state) + "\n",
        },
        # Not granted by the low policy, so explain falls through to the
        # refined high policy: cando <- mustdo <- derhasObligation <-
        # hasObligation <- facts is five node levels.
        f"cando(Backup((target,d{h})), e{h}, +execute)",
        Expected(
            verdict="non-compliant",
            check_exit=1,
            matched_branch=[],
            conflicts=sorted(conflicts, key=_conflict_key),
            mustdo=sorted([backup(i) for i in ids] + [encrypt(i) for i in ids]),
            branches_examined=1,
            branch_logs=[[]],
            explain_branch=1,
            explain_depth=5,
        ),
    )


# ---------------------------------------------------------------------------
# deep: a long hie chain, one new atom per fixpoint round
# ---------------------------------------------------------------------------


def deep(seed: int, depth: int) -> Workload:
    """An `under` hierarchy chain of depth + 1 employees in a seeded order,
    with one Audit obligation at the top. The low policy grants and enforces
    the duty at every level, so the audit is compliant."""
    rng = random.Random(seed)
    names = [f"e{i}" for i in range(depth + 1)]
    rng.shuffle(names)  # names[0] is the top of the chain, names[-1] the bottom
    onto = """\
class Entity
class Employee subclassOf Entity
class System subclassOf Entity

prop type dom Entity range Entity
prop under dom Employee range Employee family hie
prop audits dom Employee range System

action Audit(target) init {} final {}
"""
    facts = ["obj sys1 : System", f"audits({names[0]}, sys1)."]
    facts += _shuffled(
        rng,
        [f"obj {e} : Employee" for e in names]
        + [f"under({names[i + 1]}, {names[i]})." for i in range(depth)],
    )
    high = """\
hasObligation($s, Audit((target,$x)), true) :- audits($s, $x) & type($x, System).

mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).
"""
    low_rules = []
    for e in names:
        low_rules.append(f"cando(Audit((target,sys1)), {e}, +execute) :- type(sys1, System).")
        low_rules.append(f"mustdo({e}, Audit((target,sys1)), true) :- type(sys1, System).")
    low = _shuffled(rng, low_rules) + ["do($o, $s, +$a) :- cando($o, $s, +$a)."]
    return Workload(
        "deep",
        seed,
        {"depth": depth},
        {
            "onto": onto,
            "facts": "\n".join(facts) + "\n",
            "high": high,
            "low": "\n".join(low) + "\n",
            "patterns": "% Audit is atomic\n",
            "state": "% nothing observed\n",
        },
        # The bottom of the chain: one derhasObligation level per chain link,
        # then the top's derhasObligation, hasObligation and the facts.
        f"derhasObligation({names[-1]}, Audit((target,sys1)), true)",
        Expected(
            verdict="compliant",
            check_exit=0,
            matched_branch=[],
            conflicts=[],
            mustdo=sorted(f"mustdo({e}, Audit((target,sys1)), true)" for e in names),
            branches_examined=1,
            branch_logs=[[]],
            explain_branch=1,
            explain_depth=depth + 3,
        ),
    )


# ---------------------------------------------------------------------------
# branchy: k independent flexible choices, 2^k refinement branches
# ---------------------------------------------------------------------------


def branchy(seed: int, rules: int, subjects: int) -> Workload:
    """`rules` independent obligation rules, rule j refined by a flexible
    choice between the effectful actions A<j> and B<j>. The low policy grants
    and enforces one seeded option per rule for every subject, except one
    seeded (subject, rule) pair that lacks the grant, so no branch matches
    and the nearest miss is the branch that follows the low policy."""
    rng = random.Random(seed)
    k = rules
    rule_ids = list(range(1, k + 1))
    subj = [f"u{i}" for i in range(subjects)]
    asset = {s: f"x{i}" for i, s in enumerate(subj)}
    chosen = {j: rng.choice("AB") for j in rule_ids}  # the option the low policy follows
    hole = (rng.choice(subj), rng.choice(rule_ids))

    onto = ["class Entity", "class Employee subclassOf Entity", "class Asset subclassOf Entity", ""]
    onto.append("prop type dom Entity range Entity")
    for j in rule_ids:
        onto.append(f"prop duty{j} dom Employee range Asset")
        onto.append(f"prop doneA{j} dom Asset range Entity")
        onto.append(f"prop doneB{j} dom Asset range Entity")
    onto.append("")
    for j in rule_ids:
        onto.append(f"action Task{j}(target) init {{}} final {{}}")
        # Effects the current state never entails, so no obligation is
        # vacuously satisfied and every branch pays the full audit.
        onto.append(f"action A{j}(target) init {{}} final {{}} effect doneA{j}($target, $v)")
        onto.append(f"action B{j}(target) init {{}} final {{}} effect doneB{j}($target, $v)")
    facts = [f"obj {x} : Asset" for x in asset.values()]
    facts += [f"obj {s} : Employee" for s in subj]
    facts += [f"duty{j}({s}, {asset[s]})." for j in rule_ids for s in subj]
    facts = _shuffled(rng, facts)
    high = [
        f"hasObligation($s, Task{j}((target,$x)), true) :- type($s, Employee) & duty{j}($s, $x)."
        for j in rule_ids
    ]
    high.append("mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).")
    patterns = [
        f"refine Task{j}(target:$x) := A{j}(target:$x) \\/ B{j}(target:$x) type=basic-flex-choice"
        for j in rule_ids
    ]
    low_rules = []
    for j in rule_ids:
        for s in subj:
            act = f"{chosen[j]}{j}((target,{asset[s]}))"
            body = f"duty{j}({s}, {asset[s]})"
            if (s, j) != hole:
                low_rules.append(f"cando({act}, {s}, +execute) :- {body}.")
            low_rules.append(f"mustdo({s}, {act}, true) :- {body}.")
    low = _shuffled(rng, low_rules) + ["do($o, $s, +$a) :- cando($o, $s, +$a)."]

    # Branches sort by choice log; rule r<j> is refined by pattern p<j>, and
    # choice.1 (the left operand, A) sorts before choice.2 (B).
    logs = [[]]
    for j in rule_ids:
        logs = [log + [[f"r{j}", f"p{j}", f"choice.{c}"]] for log in logs for c in (1, 2)]
    nearest = [[f"r{j}", f"p{j}", "choice.1" if chosen[j] == "A" else "choice.2"] for j in rule_ids]
    hs, hj = hole
    hole_act = f"{chosen[hj]}{hj}((target,{asset[hs]}))"
    s = rng.choice(subj)
    return Workload(
        "branchy",
        seed,
        {"rules": k, "subjects": subjects},
        {
            "onto": "\n".join(onto) + "\n",
            "facts": "\n".join(facts) + "\n",
            "high": "\n".join(high) + "\n",
            "low": "\n".join(low) + "\n",
            "patterns": "\n".join(patterns) + "\n",
            "state": "% nothing observed\n",
        },
        # B1 is chosen first in branch 2^(k-1)+1; derived by r1.c2 from facts.
        f"derhasObligation({s}, B1((target,{asset[s]})), true)",
        Expected(
            verdict="non-compliant",
            check_exit=1,
            matched_branch=nearest,
            conflicts=[
                (MODAL_CAP, [f"mustdo({hs}, {hole_act}, true)", f"do({hole_act}, {hs}, +execute)"])
            ],
            mustdo=sorted(
                f"mustdo({s}, {chosen[j]}{j}((target,{asset[s]})), true)"
                for j in rule_ids
                for s in subj
            ),
            branches_examined=2**k,
            branch_logs=logs,
            explain_branch=2 ** (k - 1) + 1,
            explain_depth=2,
        ),
    )


# ---------------------------------------------------------------------------
# state-heavy: a large state universe, costly load-time transformer checks
# ---------------------------------------------------------------------------


def state_heavy(seed: int, variables: int) -> Workload:
    """`variables` binary state variables of machine m0. Provision is refined
    by the well-formed sequence Prepare ; Commit over two seeded variables
    g and h: Prepare needs g=off and sets h=on, Commit needs h=on and sets
    g=on. Every init space fixes one variable, so each cone holds half the
    universe; up to 9 variables (512 states) no load-time check is skipped.
    The current state is a seeded total assignment; it releases Prepare when
    g=on and Commit when h=off. The low policy grants and enforces o1's
    Prepare duty only, so o0's Prepare and o1's Commit are conflicts unless
    the state releases them."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(variables)]
    g, h = rng.sample(names, 2)
    state = {v: rng.choice(("off", "on")) for v in names}

    onto = [
        "class Entity",
        "class Operator subclassOf Entity",
        "class Machine subclassOf Entity",
        "",
        "prop type dom Entity range Entity",
        "prop runs dom Operator range Machine",
    ]
    onto += [f"prop {v}s dom Machine range Entity" for v in names]
    onto.append("")
    onto += [f"var {v} maps m0.{v}s range {{off, on}}" for v in names]
    onto += [
        "",
        f"action Provision(target) init {{{g}=off}} final {{{g}=on, {h}=on}}",
        f"action Prepare(target) init {{{g}=off}} final {{{h}=on}}",
        f"    effect {h}s($target, on)",
        f"action Commit(target) init {{{h}=on}} final {{{g}=on, {h}=on}}",
        f"    effect {g}s($target, on)",
        f"transform Prepare when {{}} set {{{h}=on}}",
        f"transform Commit when {{}} set {{{g}=on}}",
    ]
    facts = _shuffled(
        rng,
        [
            "obj o0 : Operator",
            "obj o1 : Operator",
            "obj m0 : Machine",
            "runs(o0, m0).",
            "runs(o1, m0).",
            "done(o1, m0, Prepare((target,m0)), t1).",
        ],
    )
    high = """\
hasObligation($s, Provision((target,$x)), true)
    :- type($s, Operator) & runs($s, $x) & type($x, Machine).

mustdo($s, $a, $q) :- derhasObligation($s, $a, $q) & ~derhasDispensation($s, $a).
"""
    # Sequence refinement: Prepare's obligation carries the meet of
    # Prepare's final space and Commit's initial space, i.e. h=on.
    q1 = f"{h}s(m0, on)"
    prepare = [f"mustdo({o}, Prepare((target,m0)), {q1})" for o in ("o0", "o1")]
    commit = "mustdo(o1, Commit((target,m0)), true)"
    low = [
        "cando(Prepare((target,m0)), o0, +execute) :- runs(o0, m0).",
        "cando(Prepare((target,m0)), o1, +execute) :- runs(o1, m0).",
        f"mustdo(o1, Prepare((target,m0)), {h}s(m0,on)) :- runs(o1, m0).",
    ]
    low = _shuffled(rng, low) + ["do($o, $s, +$a) :- cando($o, $s, +$a)."]
    patterns = (
        "refine Provision(target:$x) := Prepare(target:$x) ; Commit(target:$x) type=basic-seq\n"
    )
    released, conflicts = [], []
    if state[g] == "on":
        released.append(prepare[0])
    else:
        conflicts.append((OBLIGATION, [prepare[0]]))
    if state[h] == "off":
        released.append(commit)
    else:
        conflicts.append((OBLIGATION, [commit]))
        conflicts.append((MODAL_CAP, [commit, "do(Commit((target,m0)), o1, +execute)"]))
    state_line = "state {" + ", ".join(f"{v}={state[v]}" for v in names) + "}"
    return Workload(
        "state-heavy",
        seed,
        {"variables": variables, "states": 2**variables},
        {
            "onto": "\n".join(onto) + "\n",
            "facts": "\n".join(facts) + "\n",
            "high": high,
            "low": "\n".join(low) + "\n",
            "patterns": patterns,
            "state": state_line + "\n",
        },
        # Fires once Prepare is done: r1.s2 <- done_act + hasObligation <- facts.
        "derhasObligation(o1, Commit((target,m0)), true)",
        Expected(
            verdict="non-compliant" if conflicts else "compliant",
            check_exit=1 if conflicts else 0,
            matched_branch=[["r1", "p1", "seq"]],
            conflicts=sorted(conflicts, key=_conflict_key),
            mustdo=sorted(prepare + [commit]),
            branches_examined=1,
            branch_logs=[[["r1", "p1", "seq"]]],
            explain_branch=1,
            explain_depth=3,
            released=sorted(released),
        ),
    )


GENERATORS = {"wide": wide, "deep": deep, "branchy": branchy, "state-heavy": state_heavy}


def generate(name: str, seed: int, size: str = "full") -> Workload:
    return GENERATORS[name](seed, **SIZES[size][name])
