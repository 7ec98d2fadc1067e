"""
Composing actions and checking the result is executable
=======================================================

"""

from polcheck.actions import (
    CONJ,
    SEQ,
    ActionClassDef,
    ActionLeaf,
    ActionNode,
    RefinementPattern,
    check_well_formed_complex,
    oracle_well_formed,
    render_composition,
    traces,
)
from polcheck.ontology import ClassDef, Ontology, StateSpace, VariableDef, render_state

# one variable: a service that is either down or up
down = StateSpace.concise({"svc": "Down"})
up = StateSpace.concise({"svc": "Up"})
onto = Ontology(
    classes={c: ClassDef(c) for c in ("Down", "Up")},
    variables={"svc": VariableDef("svc", "box", "state", ("Down", "Up"))},
    action_classes={
        "Start": ActionClassDef("Start", down, up),
        "Stop": ActionClassDef("Stop", up, down),
        "Ping": ActionClassDef("Ping", up, up),
        "Bounce": ActionClassDef("Bounce", down, down),
        "Halt": ActionClassDef("Halt", up, down),
    },
)

start, stop, ping = ActionLeaf("Start"), ActionLeaf("Stop"), ActionLeaf("Ping")

bounce = ActionNode(SEQ, start, stop)
print("traces of", render_composition(bounce))
for t in traces(bounce):
    print(" ", " ; ".join(t.steps))

# conjunction interleaves its operands
both = ActionNode(CONJ, bounce, ping)
print("\ntraces of", render_composition(both))
for t in traces(both):
    print(" ", " ; ".join(t.steps))

# Start ; Stop lines up (Start ends Up, Stop needs Up), so both the
# constraint table and the trace replay accept it as a refinement of Bounce
pattern = RefinementPattern("p1", "Bounce", (), bounce, "basic-seq")
print("\nBounce := Start ; Stop")
print("  constraint check:", check_well_formed_complex(pattern, onto).ok)
print("  trace oracle:    ", oracle_well_formed(pattern, onto).ok)

# Stop ; Stop cannot run: the first Stop leaves the service Down
broken = RefinementPattern("p2", "Halt", (), ActionNode(SEQ, stop, stop), "basic-seq")
report = check_well_formed_complex(broken, onto)
print("\nHalt := Stop ; Stop")
print("  constraint check:", report.ok)
for v in report.violations:
    print(f"  violated {v.constraint_id} at {render_state(v.witness)}")
