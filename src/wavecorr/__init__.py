"""Classical wave networks that reproduce quantum correlation experiments.

Complex amplitudes on labeled modes are pushed through beam-splitter
circuits; output intensities give joint outcome distributions, which feed
correlators and noncontextuality-inequality reports.

Each public name below is imported from its submodule on first access, and
so is each submodule, so ``import wavecorr.network`` loads only what the
network layer imports, and ``import wavecorr`` loads no submodule at all.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    "OutcomeDistribution": "outcomes",
    "WaveState": "wavecore",
    "DichotomicObservable": "wavecore",
    "PauliSpec": "wavecore",
    "IncompatibleObservablesError": "wavecore",
    "pauli_observable": "wavecore",
    "commute": "wavecore",
    "sequential_distribution": "wavecore",
    "state_library": "wavecore",
    "MeshPlan": "reck",
    "decompose": "reck",
    "NoiseModel": "network",
    "build_sequence_tree": "network",
    "circuit_distributions": "network",
    "EventCounts": "events",
    "EventModelConfig": "events",
    "sample_events": "events",
    "empirical_distribution": "events",
    "Correlator": "contextuality",
    "correlator": "contextuality",
    "InequalityDefinition": "contextuality",
    "InequalityReport": "contextuality",
    "CHSH": "contextuality",
    "MERMIN": "contextuality",
    "PERES_MERMIN": "contextuality",
    "INEQUALITIES": "contextuality",
    "classical_bound_oracle": "contextuality",
    "corrected_bound": "contextuality",
    "measure_inequality": "contextuality",
    "inequality_requests": "contextuality",
    "ideal_provider": "contextuality",
    "CompatibilityReport": "contextuality",
    "compatibility_suite": "contextuality",
    "AuditSuite": "contextuality",
    "PAIR_SUITE": "contextuality",
    "TRIPLE_SUITE": "contextuality",
    "AUDIT_SUITES": "contextuality",
}
_SUBMODULES = {*_EXPORTS.values(), "cli", "splitmix"}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
