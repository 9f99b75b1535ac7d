"""Classical wave networks that reproduce quantum correlation experiments.

Complex amplitudes on labeled modes are pushed through beam-splitter
circuits; output intensities give joint outcome distributions, which feed
correlators and noncontextuality-inequality reports.
"""

from wavecorr.contextuality import (
    CHSH,
    CompatibilityReport,
    Correlator,
    INEQUALITIES,
    InequalityDefinition,
    InequalityReport,
    MERMIN,
    PERES_MERMIN,
    classical_bound_oracle,
    compatibility_suite,
    corrected_bound,
    correlator,
    evaluate_inequality,
    ideal_provider,
    inequality_requests,
    measure_inequality,
    mermin_suite_groups,
    pm_suite_groups,
    suite_requests,
)
from wavecorr.events import (
    EventCounts,
    EventModelConfig,
    empirical_distribution,
    sample_events,
)
from wavecorr.network import (
    NoiseModel,
    SequenceTree,
    build_sequence_tree,
    circuit_distributions,
)
from wavecorr.outcomes import OutcomeDistribution
from wavecorr.reck import MeshPlan, decompose, recompose
from wavecorr.wavecore import (
    DichotomicObservable,
    IncompatibleObservablesError,
    PauliSpec,
    WaveState,
    commute,
    luders_project,
    pauli_observable,
    prepare_ghz_by_postselection,
    sequential_distribution,
    state_library,
)

__all__ = [
    "OutcomeDistribution",
    "WaveState",
    "DichotomicObservable",
    "PauliSpec",
    "IncompatibleObservablesError",
    "pauli_observable",
    "commute",
    "luders_project",
    "sequential_distribution",
    "state_library",
    "prepare_ghz_by_postselection",
    "MeshPlan",
    "decompose",
    "recompose",
    "NoiseModel",
    "SequenceTree",
    "build_sequence_tree",
    "circuit_distributions",
    "EventCounts",
    "EventModelConfig",
    "sample_events",
    "empirical_distribution",
    "Correlator",
    "correlator",
    "InequalityDefinition",
    "InequalityReport",
    "CHSH",
    "MERMIN",
    "PERES_MERMIN",
    "INEQUALITIES",
    "classical_bound_oracle",
    "corrected_bound",
    "evaluate_inequality",
    "measure_inequality",
    "inequality_requests",
    "ideal_provider",
    "CompatibilityReport",
    "compatibility_suite",
    "suite_requests",
    "pm_suite_groups",
    "mermin_suite_groups",
]

__version__ = "0.1.0"
