"""Skew-information coherence toolkit for small quantum states.

The public names and the submodules load on first attribute access (PEP 562),
so importing the package, or ``cohlab.cli``, runs none of the numerical
modules that a caller does not use.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines
_HOMES = {
    "linalg": "DensityMatrix basis_state maximally_coherent partial_trace pure_state sqrtm tensor "
              "validate_density",
    "rand": "child_rng ginibre_mixed",
    "coherence": "CoherenceReport Observable affinity c_l1 c_l2 c_rel_entropy c_skew "
                 "coherence_report k_coherence l1_bounds optimal_incoherent_state rotated "
                 "skew_bounds skew_info validate_observable",
    "channels": "KrausChannel MonotonicityVerdict SelectiveOutcome apply apply_selective "
                "is_incoherent monotonicity_check monotonicity_sweep random_channel "
                "random_incoherent_channel validate_channel",
    "polygamy": "PolygamyRecord bipartite_record find_qubit_violations partition_check "
                "pure_polygamy_gap sweep_polygamy sweep_summary",
    "discord": "DiscordResult LocalBasis discord_asym discord_bound_check discord_sym "
               "generalized_cnot local_basis product_basis_coherence subsystem_coherence",
    "metrology": "MetrologyReport metrology_report qfi_projector skew_qfi_sandwich",
    "measurement": "MeasurementEstimate ShotRecord SpectrumEstimate estimate_measures "
                   "exact_trace_powers recover_spectrum simulate_shots true_measures",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
_SUBMODULES = {*_HOMES, "cli", "errors", "fixtures", "parallel", "serialize"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
