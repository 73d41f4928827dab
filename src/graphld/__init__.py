"""graphld: typed random graphs, their empirical locality measures, and the
relative-entropy rates governing rare-event decay.

The package samples typed graphs conditioned on empirical type and link
measures, extracts empirical distributions in exact rational arithmetic,
evaluates and minimizes relative-entropy rate functions, and verifies
predicted exponential decay rates by exact enumeration and Monte Carlo at
desk scale.
"""

from .graphs import TypedGraph, empirical_locality_measure
from .measures import (
    CountingMeasure,
    FiniteMeasure,
    ProbMeasure,
    degree_marginal,
    dirac,
    encode_measure,
    is_sub_consistent,
    link_marginal,
    total_variation,
    type_marginal,
)
from .optimizer import (
    ConstraintSet,
    InfeasibleConstraintsError,
    Optimum,
    minimize_relative_entropy,
    rate_infimum_for_event,
)
from .oracle import (
    EnumerationGuardError,
    EnumerationReport,
    enumerate_support,
    exact_event_probability,
    lldp_exponent_gap,
    type_class_counts,
)
from .rate import (
    RateResult,
    ReferenceLaw,
    degree_rate,
    relative_entropy,
    truncated_poisson,
    typed_rate,
)
from .sampler import (
    ConditionSpec,
    InadmissibleSpecError,
    binary_cross_spec,
    sample_conditional_graph,
    sample_erdos_renyi,
)

__version__ = "0.8.0"

__all__ = [
    "CountingMeasure", "FiniteMeasure", "ProbMeasure", "degree_marginal", "dirac",
    "encode_measure", "is_sub_consistent",
    "link_marginal", "total_variation", "type_marginal",
    "TypedGraph", "empirical_locality_measure",
    "RateResult", "ReferenceLaw", "degree_rate",
    "relative_entropy", "truncated_poisson", "typed_rate",
    "ConditionSpec", "InadmissibleSpecError",
    "binary_cross_spec", "sample_conditional_graph", "sample_erdos_renyi",
    "EnumerationGuardError", "EnumerationReport",
    "enumerate_support", "exact_event_probability", "lldp_exponent_gap", "type_class_counts",
    "ConstraintSet", "InfeasibleConstraintsError", "Optimum",
    "minimize_relative_entropy", "rate_infimum_for_event",
]
