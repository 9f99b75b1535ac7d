"""Reference computations that the tests compare the library against.

None of these is read by the library, the CLI or the scripts; each is the
slow, direct form of something the library computes another way.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from wavecorr.network import (
    BEAM_SPLITTER,
    PHASE_SEGMENT,
    UNEQUAL_COUPLER,
    Netlist,
    NoiseModel,
)
from wavecorr.reck import MeshPlan
from wavecorr.splitmix import _mix64_into, counter_normals, counter_uniform
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


def rational_corrected_bound(nc_bound: float, algebraic_max: float, deviation_rate: float) -> float:
    """(1 - xi) nc + xi alg in Fractions of each input's shortest decimal, rounded once."""
    nc, alg, xi = (Fraction(str(float(x))) for x in (nc_bound, algebraic_max, deviation_rate))
    return float(nc + xi * (alg - nc))


def mix64(z: np.ndarray) -> np.ndarray:
    """Stafford variant-13 finalizer on a copy of ``z``: full-avalanche 64-bit mixing."""
    z = np.array(z, dtype=np.uint64)
    return _mix64_into(z, np.empty_like(z))


def box_muller(seed: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Standard normal per index: sqrt(-2 log u1) cos(2 pi u2), out of place.

    u1 and u2 are the uniforms at counters 2i and 2i + 1, each drawn on its
    own; counter_normals draws both at once and computes in place.
    """
    pair = indices.astype(np.uint64) * np.uint64(2)
    u1 = counter_uniform(seed, pair)
    u2 = counter_uniform(seed, pair + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def propagate_per_element(
    netlist: Netlist, drive: np.ndarray, noise: NoiseModel | None, seeds: np.ndarray
) -> np.ndarray:
    """network.propagate's law, unit of line by unit: the reference for its sqrt(length) draws.

    Every wire holds one amplitude per member, and the elements run in list
    order.  Each noisy element draws its own error, scaled by its kind's
    width (none at width zero): a splitter's angle is pi/4 + error, and a
    phase segment of length n turns by its base + error, where its error
    adds n independent draws, one per unit segment, draw k at index
    + k 2^40, a key no other element's draws reach.  An element whose inputs
    are zero in every member writes the zeros its outputs already hold, so
    it is passed over; what it would draw cannot reach an output.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    noise = noise or NoiseModel()
    wires = np.zeros((netlist.n_wires, seeds.size), dtype=complex)
    wires[netlist.input_ports] = drive
    for index, (kind, ins, outs, base, length) in enumerate(netlist.elements):
        a = wires[list(ins)]
        if not a.any():
            continue
        if kind == BEAM_SPLITTER:
            angle = np.pi / 4 + _error(noise.splitter_imbalance_sigma, seeds, index)
            c, s = np.cos(angle), np.sin(angle)
            wires[outs[0]] = c * a[0] + s * a[1]
            wires[outs[1]] = s * a[0] - c * a[1]
        elif kind == PHASE_SEGMENT:
            angle = base + _error(noise.phase_jitter_sigma, seeds, index, length)
            wires[outs[0]] = a[0] * (np.cos(angle) + 1j * np.sin(angle))
        elif kind == UNEQUAL_COUPLER:
            norm = np.sqrt(1.0 + base * base)
            wires[outs[0]] = a[0] / norm
            wires[outs[1]] = a[0] * (base / norm)
    return wires[netlist.output_ports]


def _error(sigma: float, seeds: np.ndarray, index: int, length: int = 1) -> np.ndarray | float:
    """sigma times the sum of ``length`` standard normals, draw k at index + k 2^40."""
    if sigma == 0.0:
        return 0.0
    keys = np.uint64(index) + (np.arange(length, dtype=np.uint64) << np.uint64(40))
    return sigma * counter_normals(seeds, keys[:, None]).sum(axis=0)
