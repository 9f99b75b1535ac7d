"""Reference computations that the tests compare the library against.

None of these is read by the library, the CLI or the scripts; each is the
slow, direct form of something the library computes another way.
"""

from __future__ import annotations

import numpy as np

from wavecorr.reck import MeshPlan
from wavecorr.splitmix import _mix64_into
from wavecorr.wavecore import DichotomicObservable, WaveState

# branch probabilities below this get no post-measurement state
ZERO_BRANCH_TOL = 1e-14


def recompose(plan: MeshPlan) -> np.ndarray:
    """Rebuild the unitary: elements applied in list order, phases last."""
    m = np.eye(plan.dim, dtype=complex)
    for el in plan.elements:
        m = el.embedded(plan.dim) @ m
    return np.diag(np.exp(1j * np.array(plan.output_phases))) @ m


def luders_project(
    state: WaveState, obs: DichotomicObservable, outcome: int
) -> tuple[float, WaveState | None]:
    """Probability of the outcome and the renormalized post-measurement state.

    The post state is None when the branch probability is below 1e-14.
    """
    if obs.dim != state.dim:
        raise ValueError("observable dimension does not match state")
    branch = obs.projector(outcome) @ state.amplitudes
    prob = float(np.real(np.vdot(branch, branch)))
    if prob < ZERO_BRANCH_TOL:
        return prob, None
    return prob, WaveState(state.labels, branch / np.sqrt(prob))


def mix64(z: np.ndarray) -> np.ndarray:
    """Stafford variant-13 finalizer on a copy of ``z``: full-avalanche 64-bit mixing."""
    z = np.array(z, dtype=np.uint64)
    return _mix64_into(z, np.empty_like(z))
