import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import luders_project
from wavecorr.outcomes import outcome_signs
from wavecorr.wavecore import (
    DichotomicObservable,
    IncompatibleObservablesError,
    WaveState,
    binary_labels,
    commute,
    library_state_names,
    pauli_matrix,
    pauli_observable,
    sequential_distribution,
    state_library,
)

SQRT2 = np.sqrt(2.0)

# independent single-factor oracle for the Kronecker builder
PAULI_2X2 = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def kron_oracle(spec):
    out = np.array([[1.0 + 0j]])
    for ch in spec:
        out = np.kron(out, PAULI_2X2[ch])
    return out


def pauli_specs(n_factors, include_identity=False):
    specs = ["".join(p) for p in itertools.product("IXYZ", repeat=n_factors)]
    if not include_identity:
        specs = [s for s in specs if set(s) != {"I"}]
    return specs


# ---------------------------------------------------------------- states


def test_binary_labels_counting_order():
    assert binary_labels(2) == ("00", "01", "10", "11")
    assert binary_labels(3)[:3] == ("000", "001", "010")


def test_wave_state_validation():
    with pytest.raises(ValueError):
        WaveState(("00", "01"), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        WaveState(("00", "00"), np.array([1.0, 0.0]))
    st_ = WaveState(("00", "01"), np.array([0.6, 0.8j]))
    assert st_.is_normalized
    sub = WaveState(("00", "01"), np.array([0.5, 0.0]))
    assert not sub.is_normalized
    with pytest.raises(ValueError):
        sub.require_normalized()


def test_wave_state_amplitudes_read_only():
    st_ = state_library("psi5")
    with pytest.raises(ValueError):
        st_.amplitudes[0] = 9.0


# ---------------------------------------------------------------- paulis


def test_pauli_matrix_against_kron_oracle():
    for spec in pauli_specs(2, include_identity=True) + ["XZZ", "ZXZ", "ZZX", "YYY"]:
        np.testing.assert_allclose(pauli_matrix(spec), kron_oracle(spec), atol=1e-15)


def test_yy_matrix_entries():
    # frozen by hand: (sigma_y)_{01} = -i, (sigma_y)_{10} = +i
    yy = pauli_matrix("YY")
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = -1.0
    expected[1, 2] = 1.0
    expected[2, 1] = 1.0
    expected[3, 0] = -1.0
    np.testing.assert_allclose(yy, expected, atol=1e-15)


def test_pauli_spec_rejects_garbage():
    for bad in ["", "A", "XQ", "xz"]:
        with pytest.raises(ValueError):
            pauli_observable(bad)
    with pytest.raises(ValueError):
        pauli_observable("II")


def test_pauli_observables_are_built_once_and_shared():
    obs = pauli_observable("ZX")
    assert pauli_observable("ZX") is obs
    assert not obs.matrix.flags.writeable
    assert not obs.diagonalizer.flags.writeable
    with pytest.raises(ValueError):
        obs.matrix[0, 0] = 2.0
    assert obs.label == "ZX"
    # failures are not cached: a malformed spec raises on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            pauli_observable("ZQ")
        with pytest.raises(ValueError):
            pauli_observable("II")


def test_library_states_are_built_once_and_shared():
    names = ["singlet", "chsh", "ghz", "singlet3"] + [f"psi{i}" for i in range(1, 12)]
    for _ in range(2):
        assert library_state_names() == names
    psi1 = state_library("psi1")
    assert state_library("psi1") is psi1
    assert not psi1.amplitudes.flags.writeable
    assert binary_labels(3) is binary_labels(3)
    # basis labels still work, and unknown names raise on every call
    np.testing.assert_array_equal(state_library("01").amplitudes, [0, 1, 0, 0])
    assert state_library("110").labels == binary_labels(3)
    for _ in range(2):
        with pytest.raises(KeyError):
            state_library("psi12")
        with pytest.raises(KeyError):
            state_library("")


def test_observable_invariants():
    for spec in ["ZI", "IX", "YY", "ZX", "XZ", "XX", "ZZ"]:
        obs = pauli_observable(spec)
        d = obs.dim
        np.testing.assert_allclose(obs.matrix @ obs.matrix, np.eye(d), atol=1e-10)
        a = obs.diagonalizer
        np.testing.assert_allclose(a.conj().T @ a, np.eye(d), atol=1e-10)
        signs = [1.0 if i in obs.plus_indices else -1.0 for i in range(d)]
        rebuilt = a @ np.diag(signs) @ a.conj().T
        np.testing.assert_allclose(rebuilt, obs.matrix, atol=1e-10)


def test_eigen_split_is_deterministic_and_canonical():
    a1 = pauli_observable("IX").diagonalizer
    a2 = pauli_observable("IX").diagonalizer
    np.testing.assert_array_equal(a1, a2)
    # ZI diagonalizer is the identity: computational vectors are eigenvectors
    np.testing.assert_allclose(pauli_observable("ZI").diagonalizer, np.eye(4), atol=1e-12)
    # first nonzero entry of every column is real positive
    for spec in ["IX", "YY", "XZ"]:
        a = pauli_observable(spec).diagonalizer
        for col in a.T:
            first = col[np.flatnonzero(np.abs(col) > 1e-9)[0]]
            assert abs(first.imag) < 1e-12 and first.real > 0


def test_non_involution_rejected():
    with pytest.raises(ValueError):
        DichotomicObservable.from_matrix("bad", np.diag([1.0, 0.5]))
    with pytest.raises(ValueError):
        DichotomicObservable.from_matrix("bad", np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(pauli_specs(2)), st.sampled_from(pauli_specs(2)))
def test_projector_completeness_property(spec_a, spec_b):
    obs = pauli_observable(spec_a)
    np.testing.assert_allclose(
        obs.projector(+1) + obs.projector(-1), np.eye(obs.dim), atol=1e-12
    )
    # commutation is symmetric
    other = pauli_observable(spec_b)
    assert commute(obs, other) == commute(other, obs)


@pytest.mark.parametrize("spec", [s for n in (1, 2, 3) for s in pauli_specs(n)])
def test_projectors_are_held_bit_for_bit(spec):
    # built once per observable, so sequential_distribution's walk reads them
    obs = pauli_observable(spec)
    for outcome in (+1, -1):
        held = obs.projector(outcome)
        want = (np.eye(obs.dim) + outcome * obs.matrix) / 2
        assert held.dtype == want.dtype and held.tobytes() == want.tobytes()
        assert not held.flags.writeable
        assert obs.projector(outcome) is held


def test_commute_examples():
    assert commute(pauli_observable("ZI"), pauli_observable("IZ"))
    assert commute(pauli_observable("ZI"), pauli_observable("IX"))
    assert not commute(pauli_observable("ZI"), pauli_observable("XI"))
    assert commute(pauli_observable("ZZ"), pauli_observable("XX"))
    assert not commute(pauli_observable("IX"), pauli_observable("IZ"))


def test_disjoint_support_paulis_commute():
    for a, b in [("ZI", "IX"), ("XI", "IZ"), ("ZII", "IXI"), ("IZI", "IIX")]:
        assert commute(pauli_observable(a), pauli_observable(b))


# ---------------------------------------------------------------- luders


def test_luders_on_basis_state():
    prob, post = luders_project(state_library("00"), pauli_observable("ZI"), +1)
    assert prob == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(post.amplitudes, state_library("00").amplitudes, atol=1e-14)
    prob, post = luders_project(state_library("00"), pauli_observable("ZI"), -1)
    assert prob == pytest.approx(0.0, abs=1e-14)
    assert post is None


def test_luders_on_chsh_state():
    # P_+ for ZI keeps the 00/01 components
    psi = state_library("chsh")
    prob, post = luders_project(psi, pauli_observable("ZI"), +1)
    assert prob == pytest.approx(0.5, abs=1e-12)
    want = np.array([1.0, SQRT2 - 1.0, 0.0, 0.0], dtype=complex)
    want /= np.linalg.norm(want)
    np.testing.assert_allclose(post.amplitudes, want, atol=1e-12)


def test_luders_projector_oracle():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = WaveState(binary_labels(2), amps / np.linalg.norm(amps))
    for spec in ["ZI", "IX", "YY"]:
        obs = pauli_observable(spec)
        for outcome in (+1, -1):
            proj = (np.eye(4) + outcome * kron_oracle(spec)) / 2
            branch = proj @ psi.amplitudes
            prob, post = luders_project(psi, obs, outcome)
            assert prob == pytest.approx(float(np.vdot(branch, branch).real), abs=1e-12)
            if post is not None:
                np.testing.assert_allclose(
                    post.amplitudes, branch / np.linalg.norm(branch), atol=1e-12
                )


# ------------------------------------------------------- sequential chains


def test_sequential_distribution_basis_state():
    dist = sequential_distribution(
        state_library("00"), [pauli_observable("ZI"), pauli_observable("IZ")]
    )
    assert dist.probs.get("++", 0.0) == pytest.approx(1.0, abs=1e-12)
    assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-10)


def test_sequential_distribution_chsh_pair():
    dist = sequential_distribution(
        state_library("chsh"), [pauli_observable("ZI"), pauli_observable("IZ")]
    )
    heavy = 1.0 / (4.0 * (2.0 - SQRT2))
    assert dist.probs.get("++", 0.0) == pytest.approx(heavy, abs=1e-12)
    assert dist.probs.get("--", 0.0) == pytest.approx(heavy, abs=1e-12)
    value = sum(np.prod(outcome_signs(o)) * p for o, p in dist.probs.items())
    assert value == pytest.approx(1.0 / SQRT2, abs=1e-12)


def test_sequential_matches_product_expectation():
    # for commuting observables the joint correlator equals <psi| O1 O2 |psi>
    rng = np.random.default_rng(3)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = WaveState(binary_labels(2), amps / np.linalg.norm(amps))
    for specs in [("ZI", "IZ"), ("ZZ", "XX"), ("ZX", "XZ")]:
        obs = [pauli_observable(s) for s in specs]
        dist = sequential_distribution(psi, obs)
        value = sum(np.prod(outcome_signs(o)) * p for o, p in dist.probs.items())
        product = kron_oracle(specs[0]) @ kron_oracle(specs[1])
        expected = float(np.real(psi.amplitudes.conj() @ product @ psi.amplitudes))
        assert value == pytest.approx(expected, abs=1e-12)


def test_sequential_distribution_ghz_triple():
    obs = [pauli_observable(s) for s in ("ZII", "IZI", "IIX")]
    dist = sequential_distribution(state_library("ghz"), obs)
    value = sum(np.prod(outcome_signs(o)) * p for o, p in dist.probs.items())
    assert value == pytest.approx(1.0, abs=1e-12)


def test_sequential_rejects_incompatible_pair():
    with pytest.raises(IncompatibleObservablesError) as err:
        sequential_distribution(
            state_library("singlet"), [pauli_observable("ZI"), pauli_observable("XI")]
        )
    assert "ZI" in str(err.value) and "XI" in str(err.value)


def test_permutation_invariance_of_joint_distribution():
    psi = state_library("psi7")
    specs = ("ZX", "XZ", "YY")
    base = sequential_distribution(psi, [pauli_observable(s) for s in specs])
    for perm in itertools.permutations(range(3)):
        dist = sequential_distribution(psi, [pauli_observable(specs[i]) for i in perm])
        for outcome, p in base.probs.items():
            permuted = "".join(outcome[i] for i in perm)
            assert dist.probs.get(permuted, 0.0) == pytest.approx(p, abs=1e-12)


def test_repeatability_same_observable_thrice():
    for name in ["chsh", "psi7", "psi11"]:
        dist = sequential_distribution(
            state_library(name), [pauli_observable("IX")] * 3
        )
        mixed = dist.mass_where(lambda o: len(set(o)) > 1)
        assert mixed == pytest.approx(0.0, abs=1e-12)


def test_nondisturbance_marginals():
    # marginal of the first observable must not depend on the partner
    psi = state_library("chsh")
    first = pauli_observable("ZI")
    for partner in ["IZ", "IX", "ZZ", "ZX"]:
        dist = sequential_distribution(psi, [first, pauli_observable(partner)])
        marg = dist.marginal(0)
        prob_direct, _ = luders_project(psi, first, +1)
        assert marg["+"] == pytest.approx(prob_direct, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sequential_distribution_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = WaveState(binary_labels(2), amps / np.linalg.norm(amps))
    dist = sequential_distribution(psi, [pauli_observable("ZZ"), pauli_observable("XX")])
    assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-10)
    assert set(dist.probs) == {"++", "+-", "-+", "--"}


# ---------------------------------------------------------------- library


def test_library_states_are_normalized():
    for name in library_state_names():
        assert state_library(name).is_normalized


def test_singlet_amplitudes():
    st_ = state_library("singlet")
    np.testing.assert_allclose(
        st_.amplitudes, np.array([0, -1, 1, 0]) / SQRT2, atol=1e-15
    )


def test_chsh_state_amplitudes():
    st_ = state_library("chsh")
    r = SQRT2 - 1.0
    want = np.array([1.0, r, r, -1.0]) / (2.0 * np.sqrt(2.0 - SQRT2))
    np.testing.assert_allclose(st_.amplitudes, want, atol=1e-15)
    assert st_.norm2 == pytest.approx(1.0, abs=1e-15)


def test_ghz_is_stabilizer_eigenstate():
    ghz = state_library("ghz")
    for spec in ("XZZ", "ZXZ", "ZZX"):
        np.testing.assert_allclose(
            pauli_matrix(spec) @ ghz.amplitudes, ghz.amplitudes, atol=1e-12
        )
    xxx = pauli_matrix("XXX")
    exp = np.real(ghz.amplitudes.conj() @ xxx @ ghz.amplitudes)
    assert exp == pytest.approx(-1.0, abs=1e-12)


def test_psi11_renormalized():
    st_ = state_library("psi11")
    assert st_.norm2 == pytest.approx(1.0, abs=1e-15)
    ratio = abs(st_.amplitudes[3]) / abs(st_.amplitudes[0])
    assert ratio == pytest.approx(0.56 / 0.83, abs=1e-12)
    assert np.angle(st_.amplitudes[3] / st_.amplitudes[0]) == pytest.approx(
        0.52 * np.pi, abs=1e-12
    )


def test_basis_state_lookup():
    st_ = state_library("101")
    assert st_.labels == binary_labels(3)
    assert abs(st_.amplitudes[st_.labels.index("101")]) ** 2 == pytest.approx(1.0)
    with pytest.raises(KeyError):
        state_library("nope")


def test_bell_and_product_states_match_hand_written_vectors():
    half = 0.5
    np.testing.assert_allclose(
        state_library("psi5").amplitudes, [1 / SQRT2, 0, 0, 1 / SQRT2], atol=1e-15
    )
    np.testing.assert_allclose(
        state_library("psi10").amplitudes, [half, -half, half, half], atol=1e-15
    )
