"""Certification engine for the generalized Pohst product inequality."""

__version__ = "0.1.0"

from pohst.signs import (
    Pair,
    PairInfo,
    PatternContext,
    SignVector,
    alpha_beta,
    boundary_counts,
    classify_pairs,
    min_heavy_target,
)
from pohst.partition import (
    ConstructionTrace,
    EtaBuild,
    GoodPartition,
    LadderStuck,
    PartitionGroup,
    SearchExhausted,
    Shape,
    ValidationReport,
    build_eta,
    build_pi,
    check_construction_invariants,
    construct_eta,
    eta_partition,
    search_partition,
    validate_partition,
)
from pohst.certify import (
    Certificate,
    DomainError,
    RealVectorX,
    RealVectorY,
    certify_x,
    certify_y,
    check_pohst_case,
    eval_P,
    eval_f,
    group_bound,
    x_from_y,
)
from pohst.analysis import (
    DegenerateInput,
    MaximizeConfig,
    MaximizeResult,
    SweepRecord,
    bound_soundness_sample,
    identity_residual,
    iterated_identity_residual,
    maximize_f,
    sweep,
    sweep_summary,
)
from pohst.regulator import (
    DiscriminantBound,
    HermiteValue,
    RegulatorQuery,
    compare_with_signature_free,
    discriminant_log_bound,
    hermite_gamma,
)
