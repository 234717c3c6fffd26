"""Skew-information coherence toolkit for small quantum states."""

__version__ = "0.1.0"

from .linalg import (
    DensityMatrix,
    basis_state,
    maximally_coherent,
    partial_trace,
    pure_state,
    sqrtm,
    tensor,
    validate_density,
)
from .rand import child_rng, ginibre_mixed
from .coherence import (
    CoherenceReport,
    Observable,
    affinity,
    c_l1,
    c_l2,
    c_rel_entropy,
    c_skew,
    coherence_report,
    k_coherence,
    l1_bounds,
    optimal_incoherent_state,
    rotated,
    skew_bounds,
    skew_info,
    validate_observable,
)
from .channels import (
    KrausChannel,
    MonotonicityVerdict,
    SelectiveOutcome,
    apply,
    apply_selective,
    is_incoherent,
    monotonicity_check,
    monotonicity_sweep,
    random_channel,
    random_incoherent_channel,
    validate_channel,
)
from .polygamy import (
    PolygamyRecord,
    bipartite_record,
    find_qubit_violations,
    partition_check,
    pure_polygamy_gap,
    sweep_polygamy,
    sweep_summary,
)
from .discord import (
    DiscordResult,
    LocalBasis,
    discord_asym,
    discord_bound_check,
    discord_sym,
    generalized_cnot,
    local_basis,
    product_basis_coherence,
    subsystem_coherence,
)
from .metrology import (
    MetrologyReport,
    metrology_report,
    qfi_projector,
    skew_qfi_sandwich,
)
from .measurement import (
    MeasurementEstimate,
    ShotRecord,
    SpectrumEstimate,
    estimate_measures,
    exact_trace_powers,
    recover_spectrum,
    simulate_shots,
    true_measures,
)
