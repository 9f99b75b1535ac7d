"""Classical wave networks that reproduce quantum correlation experiments.

Complex amplitudes on labeled modes are pushed through beam-splitter
circuits; output intensities give joint outcome distributions, which feed
correlators and noncontextuality-inequality reports.
"""

from wavecorr.contextuality import (
    AUDIT_SUITES,
    AuditSuite,
    CHSH,
    CompatibilityReport,
    Correlator,
    INEQUALITIES,
    InequalityDefinition,
    InequalityReport,
    MERMIN,
    PAIR_SUITE,
    PERES_MERMIN,
    TRIPLE_SUITE,
    classical_bound_oracle,
    compatibility_suite,
    corrected_bound,
    correlator,
    ideal_provider,
    inequality_requests,
    measure_inequality,
)
from wavecorr.events import (
    EventCounts,
    EventModelConfig,
    empirical_distribution,
    sample_events,
)
from wavecorr.network import (
    NoiseModel,
    build_sequence_tree,
    circuit_distributions,
)
from wavecorr.outcomes import OutcomeDistribution
from wavecorr.reck import MeshPlan, decompose
from wavecorr.wavecore import (
    DichotomicObservable,
    IncompatibleObservablesError,
    PauliSpec,
    WaveState,
    commute,
    pauli_observable,
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
    "sequential_distribution",
    "state_library",
    "MeshPlan",
    "decompose",
    "NoiseModel",
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
    "measure_inequality",
    "inequality_requests",
    "ideal_provider",
    "CompatibilityReport",
    "compatibility_suite",
    "AuditSuite",
    "PAIR_SUITE",
    "TRIPLE_SUITE",
    "AUDIT_SUITES",
]

__version__ = "0.1.0"
