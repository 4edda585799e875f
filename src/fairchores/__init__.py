"""Tight worst-case fair-share bounds and guarantee-satisfying allocation of
indivisible bads, with exact rational arithmetic throughout.
"""

from .core import (
    Allocation,
    DisutilityVector,
    DomainError,
    Instance,
    RegionIndex,
    ValidationError,
    as_fraction,
    ceil_inv,
    classify_guarantee,
    classify_theorem1,
    format_decimal,
    format_instance_csv,
    normalize,
    order_vector,
    parse_instance_csv,
    read_instance_csv,
)
from .shares import (
    WitnessInstance,
    guarantee,
    hill_share,
    high_ratio_ranges,
    mms_lower_bound,
    natural_object_count,
    ratio_ceiling,
    theoretical_ratio,
    witness_lower,
    witness_upper,
)
from .mms import (
    SearchLimitError,
    exact_mms,
    fits_under,
    lex_minmax,
    minmax_partition,
)
from .allocator import (
    AllocationReport,
    KnifeTrace,
    OrderedReduction,
    allocate,
    allocate_two_agents_tight,
    lift_allocation,
    moving_knife,
    reduce_to_ordered,
)
from .experiments import (
    ExperimentConfig,
    RatioHistogram,
    RatioRecord,
    curve_samples,
    gen_synthetic,
    instance_ratio,
    run_histogram,
)

__all__ = [
    "Allocation", "DisutilityVector", "DomainError", "Instance", "RegionIndex",
    "ValidationError", "as_fraction", "ceil_inv", "classify_guarantee",
    "classify_theorem1", "format_decimal", "format_instance_csv", "normalize",
    "order_vector", "parse_instance_csv", "read_instance_csv",
    "WitnessInstance", "guarantee", "hill_share", "high_ratio_ranges",
    "mms_lower_bound", "natural_object_count", "ratio_ceiling", "theoretical_ratio",
    "witness_lower", "witness_upper", "SearchLimitError", "exact_mms", "fits_under",
    "lex_minmax", "minmax_partition", "AllocationReport", "KnifeTrace",
    "OrderedReduction", "allocate", "allocate_two_agents_tight", "lift_allocation",
    "moving_knife", "reduce_to_ordered", "ExperimentConfig", "RatioHistogram",
    "RatioRecord", "curve_samples", "gen_synthetic", "instance_ratio", "run_histogram",
]
__version__ = "0.1.0"
