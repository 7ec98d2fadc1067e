"""Per-layer tracing from outside the program.

The tracer replaces public functions of the polcheck modules with wrappers,
in every module namespace that holds them, so calls from one layer into the
layer below are seen without changing polcheck itself. A spanned function
records (id, parent id, command id, name, start, end) for each call; a
counted one only bumps a counter, for functions called too often to span.
Spans are kept in memory and written out once, when the run ends.

Layer metrics come from one traced round of operations: busy time is the
summed duration of a name's spans, self time subtracts the spans directly
below, and counts come from the wrappers.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter


def _spanned(tracer, name, fn, after=None):
    spans, stack, counts = tracer.spans, tracer.stack, tracer.counts

    def wrapper(*args, **kwargs):
        rec = [len(spans), stack[-1] if stack else None, tracer.command, name, 0.0, 0.0]
        spans.append(rec)
        counts[name] += 1
        stack.append(rec[0])
        rec[4] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[5] = perf_counter()
            stack.pop()
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _counted(tracer, names, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        for name in names:
            counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _after_evaluate(tracer, args, model):
    tracer.totals["datalog.atoms_derived"] += len(model.atoms) - len(args[1].base_atoms)


def _after_refine(tracer, args, result):
    tracer.totals["refinement.branches"] += len(result.branches)


def _after_check(tracer, args, report):
    tracer.totals["compliance.branches_examined"] += dict(report.stats).get("branches_examined", 0)


# (defining module, function, span name, after-hook). Recursive functions are
# wrapped only where other modules call them, so one call is one span.
SPANNED = (
    ("loading", "load_ontology", "loading.load_ontology", None),
    ("loading", "load_facts", "loading.load_facts", None),
    ("loading", "load_policy", "loading.load_policy", None),
    ("loading", "load_patterns", "loading.load_patterns", None),
    ("loading", "load_state", "loading.load_state", None),
    ("ontology", "feasible_in", "ontology.feasible_in", None),
    ("actions", "validate_action_class", "actions.validate_action_class", None),
    ("actions", "check_well_formed_complex", "actions.check_well_formed", None),
    ("policy", "check_stratification", "policy.check_stratification", None),
    ("refinement", "refine_policy", "refinement.refine_policy", _after_refine),
    ("datalog", "evaluate", "datalog.evaluate", _after_evaluate),
    ("datalog", "derivation_tree", "datalog.derivation_tree", None),
    ("datalog", "render_derivation", "cli.render.derivation", None),
    ("policy", "to_text", "cli.render.policy", None),
    ("compliance", "check_compliance", "compliance.check_compliance", _after_check),
    ("compliance", "entails", "compliance.entails", None),
    ("compliance", "detect_modal_authorization_violation", "compliance.detect.modal_auth", None),
    ("compliance", "detect_obligation_violation", "compliance.detect.obligation", None),
    ("compliance", "detect_resource_capability_conflict", "compliance.detect.resource", None),
    ("compliance", "detect_modal_capability_conflict", "compliance.detect.modal_cap", None),
)
RECURSIVE = {"derivation_tree", "render_derivation"}
SPANNED_METHODS = (
    ("datalog", "Model", "supports_of", "datalog.supports_of"),
    ("compliance", "ComplianceReport", "to_text", "cli.render.report"),
    ("compliance", "ComplianceReport", "to_json", "cli.render.report"),
)
# (defining module, function, counter name). Each call also bumps a
# "<calling module>.<function>" counter, so that match_atom probes from the
# evaluator's joins stand apart from the other callers'.
COUNTED = (
    ("ontology", "state_refines", "ontology.state_refines.calls"),
    ("compliance", "obligation_status", "compliance.obligation_status.calls"),
    ("terms", "match_atom", "terms.match_atom.calls"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.totals = Counter()
        self.command = None
        self._saved = []

    def install(self):
        modules = {
            name[len("polcheck."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("polcheck.") and mod is not None
        }

        def rebind(home, fn_name, make):
            original = getattr(modules[home], fn_name)
            for mod_name, mod in modules.items():
                if fn_name in RECURSIVE and mod_name == home:
                    continue
                if getattr(mod, fn_name, None) is original:
                    self._saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, make(mod_name, original))

        for home, fn_name, span_name, after in SPANNED:
            rebind(home, fn_name, lambda _, fn, n=span_name, a=after: _spanned(self, n, fn, a))
        for home, fn_name, counter in COUNTED:
            rebind(
                home,
                fn_name,
                lambda caller, fn, c=counter, f=fn_name: _counted(self, (c, f"{caller}.{f}"), fn),
            )
        for home, cls_name, meth, span_name in SPANNED_METHODS:
            cls = getattr(modules[home], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, _spanned(self, span_name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def root(self, name, command_id, fn):
        """Run fn as the root span of one benchmark operation."""
        self.command = command_id
        try:
            return _spanned(self, name, fn)()
        finally:
            self.command = None

    def write(self, path):
        """Write every span recorded, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(["id", "parent", "command", "name", "start", "end"]) + "\n")
            for rec in self.spans:
                out.write(json.dumps(rec) + "\n")


def layer_metrics(spans, counts, totals, output_bytes) -> dict:
    """Per-layer figures for one traced round, from its spans and counters."""
    busy = Counter()
    child = Counter()
    for sid, parent, _, name, start, end in spans:
        busy[name] += end - start
        if parent is not None:
            child[parent] += end - start
    self_time = Counter()
    for sid, parent, _, name, start, end in spans:
        self_time[name] += end - start - child[sid]

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    probes = counts["datalog.match_atom"]
    derived = totals["datalog.atoms_derived"]
    return {
        "loading.parse_s": prefixed(self_time, "loading."),
        "ontology.feasible_in.calls": counts["ontology.feasible_in"],
        "ontology.state_refines.calls": counts["ontology.state_refines.calls"],
        "ontology.feasible_in_s": busy["ontology.feasible_in"],
        "actions.validate_action_class_s": busy["actions.validate_action_class"],
        "actions.check_well_formed_s": busy["actions.check_well_formed"],
        "policy.check_stratification.calls": counts["policy.check_stratification"],
        "policy.check_stratification_s": busy["policy.check_stratification"],
        "refinement.refine_policy_s": busy["refinement.refine_policy"],
        "refinement.branches": totals["refinement.branches"],
        "datalog.evaluate.calls": counts["datalog.evaluate"],
        "datalog.evaluate_s": self_time["datalog.evaluate"],
        "datalog.join_probes": probes,
        "datalog.atoms_derived": derived,
        "datalog.derived_per_probe": derived / probes if probes else 0.0,
        "datalog.supports_of.calls": counts["datalog.supports_of"],
        "datalog.supports_of_s": busy["datalog.supports_of"],
        "datalog.derivation_tree_s": busy["datalog.derivation_tree"],
        "compliance.check_compliance_s": self_time["compliance.check_compliance"],
        "compliance.detect_s": prefixed(busy, "compliance.detect."),
        "compliance.obligation_status.calls": counts["compliance.obligation_status.calls"],
        "compliance.entails.calls": counts["compliance.entails"],
        "compliance.entails_s": busy["compliance.entails"],
        "compliance.branches_examined": totals["compliance.branches_examined"],
        "terms.match_atom.calls": counts["terms.match_atom.calls"],
        "cli.render_s": prefixed(busy, "cli.render."),
        "cli.output_bytes": output_bytes,
    }
