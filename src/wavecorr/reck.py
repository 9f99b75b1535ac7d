"""Triangular decomposition of unitaries into two-mode mixing elements.

Any N x N unitary factors into at most N(N-1)/2 two-mode elements plus a
diagonal of output phases.  The element acting on modes (p, q), p < q, is

    [[exp(i phi) sin th,  cos th],
     [exp(i phi) cos th, -sin th]]

with th in [0, pi/2] and phi in [0, 2 pi), embedded as identity elsewhere.

Convention: a plan applies ``plan.elements`` to the input vector in list
order (elements[0] acts first) and the output phases last, so its unitary is

    diag(exp(i*phases)) @ E_m @ ... @ E_1.

``decompose`` finds the factors by eliminating the sub-diagonal entries of
u^dagger column by column: left-multiplying by E(p=j, q=i, th, phi) with
phi = arg(w[i,j]) - arg(w[j,j]) and tan th = |w[j,j]| / |w[i,j]| zeroes
w[i,j] while keeping the working matrix unitary.  What remains on the
diagonal becomes the output phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-10
ROUNDTRIP_TOL = 1e-9
PIVOT_TOL = 1e-13

TWO_PI = 2.0 * np.pi


class SynthesisError(ValueError):
    """A unitary mesh could not be found numerically for a valid input."""


@dataclass(frozen=True)
class MeshElement:
    """One two-mode mixing element at mode pair (p, q) with p < q."""

    p: int
    q: int
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if self.p < 0 or self.q <= self.p:
            raise ValueError(f"bad mode pair ({self.p}, {self.q}): need 0 <= p < q")
        if not (0.0 <= self.theta <= np.pi / 2 + 1e-12):
            raise ValueError(f"theta {self.theta} outside [0, pi/2]")
        object.__setattr__(self, "phi", float(self.phi % TWO_PI))

    def block(self) -> np.ndarray:
        s, c = np.sin(self.theta), np.cos(self.theta)
        ph = np.exp(1j * self.phi)
        return np.array([[ph * s, c], [ph * c, -s]])

    def embedded(self, dim: int) -> np.ndarray:
        if self.q >= dim:
            raise ValueError(f"element touches mode {self.q}, mesh has {dim}")
        m = np.eye(dim, dtype=complex)
        b = self.block()
        m[self.p, self.p] = b[0, 0]
        m[self.p, self.q] = b[0, 1]
        m[self.q, self.p] = b[1, 0]
        m[self.q, self.q] = b[1, 1]
        return m


@dataclass(frozen=True)
class MeshPlan:
    """Ordered mixing elements plus one output phase per mode, which sets the dimension."""

    elements: tuple[MeshElement, ...]
    output_phases: tuple[float, ...]

    def __post_init__(self) -> None:
        limit = self.dim * (self.dim - 1) // 2
        if len(self.elements) > limit:
            raise ValueError(f"{len(self.elements)} elements exceed the N(N-1)/2 = {limit} bound")
        for el in self.elements:
            if el.q >= self.dim:
                raise ValueError(f"element mode {el.q} outside mesh of dimension {self.dim}")

    @property
    def dim(self) -> int:
        return len(self.output_phases)


def decompose(u: np.ndarray) -> MeshPlan:
    """Factor a unitary into a MeshPlan (triangular nulling order)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("matrix is not square")
    n = u.shape[0]
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) > UNITARITY_TOL:
        raise ValueError(f"matrix is not unitary within {UNITARITY_TOL}")

    w = u.conj().T.copy()
    elements: list[MeshElement] = []
    for j in range(n - 1):
        for i in range(j + 1, n):
            if abs(w[i, j]) < PIVOT_TOL:
                continue  # already eliminated; emit no element
            phi = float((np.angle(w[i, j]) - np.angle(w[j, j])) % TWO_PI)
            theta = float(np.arctan2(abs(w[j, j]), abs(w[i, j])))
            el = MeshElement(p=j, q=i, theta=theta, phi=phi)
            w = el.embedded(n) @ w
            elements.append(el)
    off = w - np.diag(np.diag(w))
    if np.max(np.abs(off)) > ROUNDTRIP_TOL:
        raise SynthesisError("nulling failed to reach a diagonal; input too far from unitary")
    phases = tuple(float((-np.angle(w[k, k])) % TWO_PI) for k in range(n))
    return MeshPlan(elements=tuple(elements), output_phases=phases)
