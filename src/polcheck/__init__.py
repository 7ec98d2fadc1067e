"""polcheck: ontology-backed security-policy refinement and compliance auditing.

The pieces, roughly bottom up: terms and formulas, the ontology with its
state-refinement order, action classes and the composition algebra with
well-formedness checking, the stratified policy language, the datalog
evaluator, refinement-branch enumeration, and the compliance audit.
"""

from .errors import (
    BranchLimitError,
    CycleError,
    EntailmentError,
    ExpansionError,
    NameResolutionError,
    OracleScaleError,
    ParseError,
    PatternError,
    PolcheckError,
    PolicyError,
    SchemaError,
    StructuralError,
    TaxonomyError,
)
from .terms import (
    ActionTerm,
    Atom,
    Const,
    Formula,
    Literal,
    Signed,
    Var,
    is_ground,
    match,
    match_atom,
    render,
    substitute,
)
from .ontology import (
    ENTIRE,
    ClassDef,
    DataSystem,
    ObjectInstance,
    Ontology,
    PropertyDef,
    State,
    StateSpace,
    VariableDef,
    expand_space,
    feasible_in,
    is_subclass,
    restricted_subclass_members,
    space_join,
    space_meet,
    space_refines,
    space_refines_witness,
    state_refines,
    value_refines,
)
from .actions import (
    ActionClassDef,
    ActionLeaf,
    ActionNode,
    ActionTrace,
    EmptyAction,
    Infeasible,
    RefinementPattern,
    TransformRule,
    WellFormedVerdict,
    apply_trace,
    check_well_formed_complex,
    oracle_well_formed,
    render_composition,
    taxonomy_of,
    traces,
    validate_action_class,
    validate_pattern,
)
from .policy import (
    Policy,
    Rule,
    check_stratification,
    parse_policy,
    render_rule,
    to_text,
    validate_high_level,
)
from .datalog import (
    Model,
    derivation_tree,
    evaluate,
    evaluate_branches,
    render_derivation,
)
from .refinement import (
    RefinementBranch,
    RefinementResult,
    compile_meet_formula,
    derive_authorizations,
    enumerate_refinements,
    install_conflict_resolution,
    propagate_hierarchy,
    refine_policy,
    replay,
)
from .compliance import (
    ComplianceReport,
    Conflict,
    CurrentState,
    check_compliance,
    detect_modal_authorization_violation,
    detect_modal_capability_conflict,
    detect_obligation_violation,
    detect_resource_capability_conflict,
    entails,
    obligation_status,
)
from .loading import (
    load_facts,
    load_ontology,
    load_patterns,
    load_policy,
    load_state,
    parse_facts,
    parse_ontology,
    parse_patterns,
    parse_state,
)

__version__ = "0.1.0"
