"""Grover search under three interoperable semantics: the state-vector
circuit, a typed string-diagram calculus with rewriting, and a closed-form
unmarked-amplitude model, cross-validated against each other."""

__version__ = "0.1.0"

from .analysis import (
    ClaimsReport,
    ComparisonReport,
    PaperAmplitude,
    compare,
    paper_amplitude,
    paper_claims_check,
    sigma_sum,
)
from .diagram import (
    EMPTY,
    Comult,
    Counit,
    CustomBox,
    Diagram,
    FunctionBox,
    Generator,
    GroupMult,
    GroupUnit,
    Identity,
    Mult,
    Point,
    PointEffect,
    RepBox,
    Spider,
    Swap,
    TypingReport,
    Unit,
    compose,
    dagger,
    identity_diagram,
    make_generator,
    scalar_box,
    tensor,
    validate,
)
from .grover_diagram import (
    build_grover_diagram,
    diffusion_box,
    indicator_box,
    oracle_diagram,
    register_space,
    sigma_sum_diagram,
)
from .rewrite import (
    RewriteRule,
    RewriteTrace,
    SoundnessReport,
    apply_rule,
    check_rule_soundness,
    normalize,
    replay,
    rules_catalog,
)
from .simulator import (
    IterationCounts,
    OracleFunction,
    ProbabilityTable,
    StateVector,
    apply_diffusion,
    apply_oracle,
    closed_form_marked_prob,
    grover_run,
    optimal_iterations,
    uniform_state,
)
from .spaces import TRIVIAL, Z2, GroupSpec, SpaceLabel, cyclic_group, qubit_register, set_space
from .tensor_eval import DenseTensor, eval_generator, evaluate, scalar_of
