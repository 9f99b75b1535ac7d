import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import recompose
from wavecorr.reck import (
    MeshElement,
    MeshPlan,
    decompose,
)
from wavecorr.wavecore import pauli_observable


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    # fix the QR gauge so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_element_matrix_convention():
    el = MeshElement(0, 1, theta=0.3, phi=1.1)
    b = el.block()
    s, c = np.sin(0.3), np.cos(0.3)
    ph = np.exp(1.1j)
    np.testing.assert_allclose(b, [[ph * s, c], [ph * c, -s]], atol=1e-15)
    np.testing.assert_allclose(b.conj().T @ b, np.eye(2), atol=1e-14)


def test_element_validation():
    with pytest.raises(ValueError):
        MeshElement(1, 1, 0.1, 0.0)
    with pytest.raises(ValueError):
        MeshElement(0, 1, -0.2, 0.0)
    el = MeshElement(0, 1, 0.1, -np.pi)  # phi folded into [0, 2pi)
    assert 0.0 <= el.phi < 2 * np.pi


def test_identity_decomposes_to_nothing():
    plan = decompose(np.eye(5))
    assert plan.elements == ()
    assert plan.output_phases == (0.0,) * 5
    np.testing.assert_allclose(recompose(plan), np.eye(5), atol=1e-15)


def test_hadamard_single_element():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    plan = decompose(h)
    assert len(plan.elements) == 1
    el = plan.elements[0]
    assert (el.p, el.q) == (0, 1)
    assert el.theta == pytest.approx(np.pi / 4, abs=1e-12)
    np.testing.assert_allclose(recompose(plan), h, atol=1e-12)


def test_permutation_matrix_skips_zero_pivots():
    # a swap has only one nonzero sub-diagonal entry to kill
    swap = np.array([[0, 1], [1, 0]], dtype=float)
    plan = decompose(swap)
    assert len(plan.elements) == 1
    np.testing.assert_allclose(recompose(plan), swap, atol=1e-12)
    # block-diagonal pair of swaps: two elements, not six
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = m[2, 3] = m[3, 2] = 1.0
    plan = decompose(m)
    assert len(plan.elements) == 2
    np.testing.assert_allclose(recompose(plan), m, atol=1e-12)


def test_non_unitary_rejected():
    with pytest.raises(ValueError):
        decompose(np.ones((3, 3)))
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3)))


def test_roundtrip_on_seeded_unitaries():
    for n in (2, 4, 8, 16):
        for seed in range(8):
            u = random_unitary(n, 1000 * n + seed)
            plan = decompose(u)
            assert len(plan.elements) <= n * (n - 1) // 2
            err = np.max(np.abs(recompose(plan) - u))
            assert err < 1e-9, f"n={n} seed={seed} err={err}"


def test_angles_stay_in_canonical_ranges():
    for seed in range(5):
        plan = decompose(random_unitary(6, seed))
        for el in plan.elements:
            assert 0.0 <= el.theta <= np.pi / 2 + 1e-12
            assert 0.0 <= el.phi < 2 * np.pi
        for ph in plan.output_phases:
            assert 0.0 <= ph < 2 * np.pi


def test_recomposed_matrix_is_unitary():
    plan = decompose(random_unitary(7, 99))
    m = recompose(plan)
    np.testing.assert_allclose(m.conj().T @ m, np.eye(7), atol=1e-11)


def test_diagonalizer_roundtrip_for_yy():
    a = pauli_observable("YY").diagonalizer
    plan = decompose(a)
    np.testing.assert_allclose(recompose(plan), a, atol=1e-10)
    adag = a.conj().T.copy()
    plan = decompose(adag)
    np.testing.assert_allclose(recompose(plan), adag, atol=1e-10)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_property(n, seed):
    u = random_unitary(n, seed)
    plan = decompose(u)
    assert np.max(np.abs(recompose(plan) - u)) < 1e-9


def test_plan_bounds_enforced():
    el = MeshElement(0, 1, 0.1, 0.2)
    with pytest.raises(ValueError):
        MeshPlan(elements=(el, el), output_phases=(0.0, 0.0))
    with pytest.raises(ValueError):
        MeshPlan(elements=(MeshElement(0, 3, 0.1, 0.0),), output_phases=(0.0, 0.0))
