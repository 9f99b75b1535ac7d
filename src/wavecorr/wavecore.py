"""Complex amplitude vectors on labeled modes and two-outcome observables.

This is the matrix-level reference layer.  States are amplitude vectors over
labeled basis modes, observables are Hermitian involutions, and sequential
measurement statistics come from chained projections

    P(o1, ..., ok) = || P_ok ... P_o1 |psi> ||^2,    P_o = (I + o O) / 2.

Everything downstream (circuit construction, event generation) is checked
against the distributions produced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Iterable, Sequence

import numpy as np

from wavecorr.outcomes import OutcomeDistribution

HERMITICITY_TOL = 1e-12
INVOLUTION_TOL = 1e-10
COMMUTATOR_TOL = 1e-10
NORMALIZATION_TOL = 1e-12
ZERO_BRANCH_TOL = 1e-14

# entries below this are treated as zero when splitting eigenspaces
_EIGVEC_TOL = 1e-9

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class IncompatibleObservablesError(ValueError):
    """Raised when a sequence mixes observables that do not commute."""


@lru_cache(maxsize=32)
def binary_labels(n_factors: int) -> tuple[str, ...]:
    """Mode labels for n two-level factors in binary counting order.

    The first factor is the most significant position, so two factors give
    ("00", "01", "10", "11").  Each count's tuple is built once and shared.
    """
    if n_factors < 1:
        raise ValueError("need at least one factor")
    return tuple(format(i, f"0{n_factors}b") for i in range(2**n_factors))


@dataclass(frozen=True)
class WaveState:
    """Complex amplitudes over a tuple of mode labels.

    Branch states produced by projections may be subnormalized; states used
    as preparations must be normalized to 1e-12.
    """

    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or len(amps) != len(self.labels):
            raise ValueError("amplitude vector does not match label count")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate mode labels")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def norm2(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm2 - 1.0) <= NORMALIZATION_TOL

    def require_normalized(self) -> "WaveState":
        if not self.is_normalized:
            raise ValueError(f"state norm^2 = {self.norm2} is not 1 within {NORMALIZATION_TOL}")
        return self

    def intensity(self, label: str) -> float:
        idx = self.labels.index(label)
        return float(abs(self.amplitudes[idx]) ** 2)


def _canonical_eigenbasis(projector: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of a projector's range, fixed deterministically.

    Gram-Schmidt over the projected computational basis vectors in index
    order; each accepted vector gets its first nonzero entry rotated to be
    real and positive.  This pins the diagonalizer (and hence every derived
    circuit) to a single reproducible choice.
    """
    dim = projector.shape[0]
    vecs: list[np.ndarray] = []
    for j in range(dim):
        v = projector[:, j].copy()
        for u in vecs:
            v -= np.vdot(u, v) * u
        nrm = np.linalg.norm(v)
        if nrm <= _EIGVEC_TOL:
            continue
        v /= nrm
        nz = np.flatnonzero(np.abs(v) > _EIGVEC_TOL)[0]
        v *= np.exp(-1j * np.angle(v[nz]))
        vecs.append(v)
        if len(vecs) == rank:
            break
    if len(vecs) != rank:
        raise ValueError("projector rank does not match eigenvalue multiplicity")
    return np.column_stack(vecs)


@dataclass(frozen=True)
class DichotomicObservable:
    """Hermitian involution (outcomes +1/-1) with a canonical eigen-split.

    ``diagonalizer`` is the unitary A with O = A diag(outcomes) A^dagger,
    eigenvalues ordered descending: the +1 eigenvectors occupy the columns
    listed in ``plus_indices`` and the -1 eigenvectors those in
    ``minus_indices``.
    """

    label: str
    matrix: np.ndarray
    diagonalizer: np.ndarray = field(repr=False)
    plus_indices: tuple[int, ...]
    minus_indices: tuple[int, ...]

    @classmethod
    def from_matrix(cls, label: str, matrix: np.ndarray) -> "DichotomicObservable":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"observable {label!r} is not square")
        dim = m.shape[0]
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError(f"observable {label!r} is not Hermitian within {HERMITICITY_TOL}")
        if np.max(np.abs(m @ m - np.eye(dim))) > INVOLUTION_TOL:
            raise ValueError(f"observable {label!r} does not square to identity within {INVOLUTION_TOL}")
        # eigenvalues are +/-1, so the multiplicities follow from the trace
        k_plus = int(round((dim + np.real(np.trace(m))) / 2))
        if k_plus == 0 or k_plus == dim:
            raise ValueError(f"observable {label!r} is trivial: a single outcome")
        p_plus = (np.eye(dim) + m) / 2
        p_minus = (np.eye(dim) - m) / 2
        basis_plus = _canonical_eigenbasis(p_plus, k_plus)
        basis_minus = _canonical_eigenbasis(p_minus, dim - k_plus)
        diag = np.column_stack([basis_plus, basis_minus])
        diag.flags.writeable = False
        m = m.copy()
        m.flags.writeable = False
        return cls(
            label=label,
            matrix=m,
            diagonalizer=diag,
            plus_indices=tuple(range(k_plus)),
            minus_indices=tuple(range(k_plus, dim)),
        )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def outcomes(self) -> np.ndarray:
        out = np.ones(self.dim)
        out[list(self.minus_indices)] = -1.0
        return out

    def projector(self, outcome: int) -> np.ndarray:
        if outcome not in (+1, -1):
            raise ValueError(f"outcome must be +1 or -1, got {outcome}")
        return (np.eye(self.dim) + outcome * self.matrix) / 2


PauliSpec = str
"""String over {I, X, Y, Z}, one letter per factor, first factor first."""


def _check_pauli_spec(spec: PauliSpec) -> str:
    if not spec or any(ch not in _PAULI for ch in spec):
        raise ValueError(f"malformed Pauli spec {spec!r}: expected letters from IXYZ")
    return spec


@lru_cache(maxsize=1024)
def pauli_matrix(spec: PauliSpec) -> np.ndarray:
    """Kronecker product of single-factor Pauli matrices, first factor first."""
    _check_pauli_spec(spec)
    m = np.array([[1.0 + 0j]])
    for ch in spec:
        m = np.kron(m, _PAULI[ch])
    m.flags.writeable = False
    return m


@lru_cache(maxsize=1024)
def pauli_observable(spec: PauliSpec) -> DichotomicObservable:
    """Dichotomic observable for a Pauli product such as "ZI" or "YY".

    Each spec is diagonalized once and the frozen observable, whose
    arrays are read-only, is shared; the cache is bounded because specs may
    come from arbitrary input.
    """
    _check_pauli_spec(spec)
    if set(spec) == {"I"}:
        raise ValueError("the identity is not a two-outcome observable")
    return DichotomicObservable.from_matrix(spec, pauli_matrix(spec))


def commute(obs_a: DichotomicObservable, obs_b: DichotomicObservable) -> bool:
    """Whether the commutator vanishes in max norm (tolerance 1e-10)."""
    if obs_a.dim != obs_b.dim:
        raise ValueError("observables act on different mode counts")
    comm = obs_a.matrix @ obs_b.matrix - obs_b.matrix @ obs_a.matrix
    return float(np.max(np.abs(comm))) < COMMUTATOR_TOL


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


def check_pairwise_compatible(observables: Sequence[DichotomicObservable]) -> None:
    for i in range(len(observables)):
        for j in range(i + 1, len(observables)):
            if not commute(observables[i], observables[j]):
                raise IncompatibleObservablesError(
                    f"observables {observables[i].label!r} and "
                    f"{observables[j].label!r} do not commute"
                )


def sequential_distribution(
    state: WaveState, observables: Sequence[DichotomicObservable]
) -> OutcomeDistribution:
    """Joint distribution of a chain of compatible projective measurements.

    Reference implementation used as the oracle for circuit propagation:
    walk the binary tree of projections and collect ||branch||^2 at the
    leaves.  First measurement is the first character of the outcome string.
    """
    if not observables:
        raise ValueError("empty measurement sequence")
    state.require_normalized()
    check_pairwise_compatible(observables)
    probs: dict[str, float] = {}

    def walk(amps: np.ndarray, depth: int, prefix: str) -> None:
        if depth == len(observables):
            probs[prefix] = float(np.real(np.vdot(amps, amps)))
            return
        obs = observables[depth]
        for ch, outcome in (("+", +1), ("-", -1)):
            walk(obs.projector(outcome) @ amps, depth + 1, prefix + ch)

    walk(state.amplitudes, 0, "")
    total = sum(probs.values())
    if abs(total - 1.0) > COMMUTATOR_TOL:
        raise ValueError(f"branch probabilities sum to {total}, projection chain is broken")
    # absorb the float dust so downstream consumers see an exact distribution
    probs = {k: v / total for k, v in probs.items()}
    return OutcomeDistribution(probs=probs)


def _two_mode_state(amplitudes: Iterable[complex]) -> WaveState:
    return WaveState(binary_labels(2), np.asarray(list(amplitudes), dtype=complex))


def _ghz_state() -> WaveState:
    amps = np.array([1, 1, 1, -1, 1, -1, -1, -1], dtype=complex)
    amps /= np.linalg.norm(amps)
    return WaveState(binary_labels(3), amps)


_SQRT2 = np.sqrt(2.0)


@cache
def _library() -> dict[str, WaveState]:
    """The named states, built once; the frozen states are shared, the dict is private."""
    r = _SQRT2 - 1.0
    chsh = np.array([1.0, r, r, -1.0], dtype=complex) / (2.0 * np.sqrt(2.0 - _SQRT2))
    lib: dict[str, WaveState] = {
        "singlet": _two_mode_state([0, -1 / _SQRT2, 1 / _SQRT2, 0]),
        "chsh": _two_mode_state(chsh),
        "ghz": _ghz_state(),
        # first mode at rest, last two in the singlet
        "singlet3": WaveState(
            binary_labels(3),
            np.kron([1.0, 0.0], [0, -1 / _SQRT2, 1 / _SQRT2, 0]).astype(complex),
        ),
        "psi1": _two_mode_state([1, 0, 0, 0]),
        "psi2": _two_mode_state([0, 1, 0, 0]),
        "psi3": _two_mode_state([0, 0, 1, 0]),
        "psi4": _two_mode_state([0, 0, 0, 1]),
        "psi5": _two_mode_state([1 / _SQRT2, 0, 0, 1 / _SQRT2]),
        "psi6": _two_mode_state([1 / _SQRT2, 0, 0, -1 / _SQRT2]),
        "psi7": _two_mode_state([0, 1 / _SQRT2, 1 / _SQRT2, 0]),
        "psi8": _two_mode_state([0, 1 / _SQRT2, -1 / _SQRT2, 0]),
        "psi9": _two_mode_state([0.5, 0.5, 0.5, 0.5]),
        "psi10": _two_mode_state([0.5, -0.5, 0.5, 0.5]),
    }
    # printed weights square-sum slightly away from 1; renormalize on construction
    psi11 = np.array([0.83, 0, 0, 0.56 * np.exp(1j * 0.52 * np.pi)], dtype=complex)
    lib["psi11"] = _two_mode_state(psi11 / np.linalg.norm(psi11))
    return lib


def state_library(name: str) -> WaveState:
    """Named preparations: singlet, chsh, ghz, singlet3, psi1..psi11, or a basis label.

    Basis labels are binary strings like "01" or "110" and return the
    corresponding computational basis state.
    """
    lib = _library()
    if name in lib:
        return lib[name]
    if name and set(name) <= {"0", "1"}:
        labels = binary_labels(len(name))
        amps = np.zeros(len(labels), dtype=complex)
        amps[labels.index(name)] = 1.0
        return WaveState(labels, amps)
    raise KeyError(f"unknown state {name!r}; see library_state_names()")


def library_state_names() -> list[str]:
    """Named library states, excluding raw basis labels."""
    return list(_library().keys())


GHZ_STABILIZER_SPECS = ("XZZ", "ZXZ", "ZZX")


def prepare_ghz_by_postselection(state: WaveState) -> tuple[float, WaveState | None]:
    """Keep the +1 branch of XZZ, ZXZ, ZZX in turn.

    Returns the overall success probability and the renormalized surviving
    state (None if the input has no overlap with the target).  Any normalized
    three-factor input works; the survivor is always the ghz library state up
    to a global phase because the three stabilizers single out a
    one-dimensional common +1 eigenspace.
    """
    state.require_normalized()
    if state.dim != 8:
        raise ValueError("post-selected preparation needs a three-factor state")
    current: WaveState | None = state
    prob_total = 1.0
    for spec in GHZ_STABILIZER_SPECS:
        if current is None:
            return 0.0, None
        prob, current = luders_project(current, pauli_observable(spec), +1)
        prob_total *= prob
    return prob_total, current
