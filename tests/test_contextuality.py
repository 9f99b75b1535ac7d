import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from oracles import rational_corrected_bound
from wavecorr.contextuality import (
    AUDIT_SUITES,
    CHSH,
    INEQUALITIES,
    AuditSuite,
    CompatibilityReport,
    Correlator,
    DeviationRecord,
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
    format_compatibility_report,
    format_inequality_report,
    ideal_provider,
    inequality_requests,
    measure_inequality,
)
from wavecorr.outcomes import OutcomeDistribution, outcome_signs
from wavecorr.wavecore import (
    IncompatibleObservablesError,
    library_state_names,
    pauli_matrix,
    pauli_observable,
    sequential_distribution,
    state_library,
)

SQRT8 = 2.0 * math.sqrt(2.0)

UNIFORM4 = OutcomeDistribution({"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25})


# ------------------------------------------------------------- correlators


def test_correlator_trivial_cases():
    assert correlator(OutcomeDistribution({"++": 1.0})).value == 1.0
    assert correlator(UNIFORM4).value == 0.0


def test_correlator_matches_matrix_oracle():
    state = state_library("chsh")
    dist = sequential_distribution(
        state, [pauli_observable("ZI"), pauli_observable("IZ")]
    )
    cor = correlator(dist, ("ZI", "IZ"))
    # oracle: expectation of the operator product Z(x)Z on the state
    zz = np.kron(pauli_matrix("Z"), pauli_matrix("Z"))
    want = float(np.real(np.vdot(state.amplitudes, zz @ state.amplitudes)))
    assert cor.value == pytest.approx(want, abs=1e-12)
    assert cor.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert cor.stderr == 0.0
    assert cor.labels == ("ZI", "IZ")


def test_correlator_empirical_stderr():
    emp = OutcomeDistribution(
        {"++": 0.5, "--": 0.3, "+-": 0.2}, sample_count=10_000
    )
    cor = correlator(emp)
    v = 0.5 + 0.3 - 0.2
    assert cor.value == pytest.approx(v)
    assert cor.stderr == pytest.approx(math.sqrt((1 - v * v) / 10_000))


def test_outcome_signs_are_cached_and_malformed_strings_always_raise():
    outcome_signs.cache_clear()
    assert outcome_signs("+-+") == (1, -1, 1)
    assert outcome_signs("+-+") is outcome_signs("+-+")
    for _ in range(2):
        with pytest.raises(ValueError, match="malformed outcome string"):
            outcome_signs("+x")
    info = outcome_signs.cache_info()
    assert (info.hits, info.currsize) == (2, 1)
    assert info.maxsize is not None


def test_correlator_label_mismatch_and_alphabet():
    with pytest.raises(ValueError):
        correlator(UNIFORM4, ("ZI",))
    with pytest.raises(ValueError):
        correlator(OutcomeDistribution({"ab": 1.0}))


def test_correlator_range_validation():
    with pytest.raises(ValueError):
        Correlator(labels=(), value=1.5, stderr=0.0)
    with pytest.raises(ValueError):
        Correlator(labels=(), value=0.0, stderr=-1e-3)
    Correlator(labels=(), value=1.02, stderr=0.05)  # inside the 3 sigma belt


# ------------------------------------------------------------ inequalities


def ideal_report(defn, state_name, xi=0.0):
    (report,) = measure_inequality(defn, ideal_provider(), state_name, deviation_rate=xi)
    return report


def test_chsh_saturates_quantum_max_on_design_state():
    report = ideal_report(CHSH, "chsh")
    assert report.value == pytest.approx(SQRT8, abs=1e-9)
    assert report.stderr == 0.0
    assert report.verdict == "violates NC bound 2, saturates quantum max"


def test_chsh_product_state_value_one():
    report = ideal_report(CHSH, "00")
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert not report.violates(report.definition.nc_bound)


def test_chsh_is_maximized_by_design_state_over_library():
    values = {}
    for name in library_state_names():
        state = state_library(name)
        if len(state.amplitudes) != 4:
            continue
        values[name] = ideal_report(CHSH, name).value
    best = max(values, key=values.get)
    assert best == "chsh"
    assert values[best] == pytest.approx(SQRT8, abs=1e-9)


def test_mermin_saturates_on_ghz_like_state():
    report = ideal_report(MERMIN, "ghz")
    assert report.value == pytest.approx(4.0, abs=1e-9)
    assert report.definition.quantum_max == report.definition.algebraic_max == 4.0


def test_mermin_basis_state_by_oracle():
    # every term mixes Z and X factors, so each correlator vanishes on |000>
    report = ideal_report(MERMIN, "000")
    assert report.value == pytest.approx(0.0, abs=1e-12)


def test_pm_chi_state_independent_six():
    values = [ideal_report(PERES_MERMIN, name).value for name in PAIR_SUITE.states]
    for val in values:
        assert val == pytest.approx(6.0, abs=1e-9)
    assert max(values) - min(values) < 1e-9


def test_pm_term_structure():
    report = ideal_report(PERES_MERMIN, "psi7")
    # five products give +1, the all-two-mode column gives -1
    signs = tuple(sign for _, sign in report.definition.terms)
    for cor, sign in zip(report.terms, signs):
        assert cor.value == pytest.approx(sign and math.copysign(1.0, sign), abs=1e-9)
    assert signs == (1.0, 1.0, 1.0, 1.0, 1.0, -1.0)


def test_missing_correlator_rejected():
    cors = [
        correlator(sequential_distribution(
            state_library("chsh"),
            [pauli_observable(a), pauli_observable(b)],
        ), (a, b))
        for a, b in [("ZI", "IZ"), ("XI", "IZ"), ("ZI", "IX"), ("XI", "IX")]
    ]
    assert InequalityReport(CHSH, cors).value == pytest.approx(SQRT8, abs=1e-9)
    # term k must be measured on the definition's k-th sequence: none may be
    # missing, and none may stand in another's place
    for wrong in (cors[:3], cors[1:2] + cors[:1] + cors[2:]):
        with pytest.raises(ValueError, match="CHSH measures ZI\\*IZ, XI\\*IZ"):
            InequalityReport(CHSH, wrong)


def test_report_bound_bookkeeping():
    report = ideal_report(CHSH, "chsh", xi=0.14)
    assert report.definition.nc_bound == 2.0
    assert report.corrected_bound == 2.28
    assert report.definition.algebraic_max == 4.0
    assert report.deviation_rate == 0.14
    assert "violates corrected bound 2.28" in report.verdict


def test_report_validation_rejects_bad_rate():
    with pytest.raises(ValueError):
        ideal_report(CHSH, "chsh", xi=1.5)


# ---------------------------------------------------------------- bounds


def test_classical_bounds_by_enumeration():
    assert classical_bound_oracle(CHSH) == 2.0
    assert classical_bound_oracle(MERMIN) == 2.0
    assert classical_bound_oracle(PERES_MERMIN) == 4.0


def test_classical_bound_matches_definition_bounds():
    for defn in (CHSH, MERMIN, PERES_MERMIN):
        assert classical_bound_oracle(defn) == defn.nc_bound


def looped_bound(defn):
    """The bound by a plain loop over itertools.product assignments."""
    labels = defn.observable_labels
    best = -math.inf
    for choice in itertools.product((1.0, -1.0), repeat=len(labels)):
        assigned = dict(zip(labels, choice))
        total = 0.0
        for seq, sign in defn.terms:
            total += sign * math.prod(assigned[lab] for lab in seq)
        best = max(best, total)
    return best


def test_classical_bound_is_the_looped_bound_bit_for_bit():
    rng = np.random.default_rng(8)
    labels = [f"L{i}" for i in range(7)]
    signs = (1.0, -1.0, 0.1, 1 / 3, -0.7, 3.3)
    for _ in range(20):
        terms = tuple(
            (tuple(map(str, rng.choice(labels, size=rng.integers(1, 4)))), float(rng.choice(signs)))
            for _ in range(rng.integers(1, 30))
        )
        defn = InequalityDefinition("t", terms, nc_bound=-99, quantum_max=-99, algebraic_max=99)
        assert repr(classical_bound_oracle(defn)) == repr(looped_bound(defn))


def test_corrected_bound_exact_values():
    assert corrected_bound(2.0, 4.0, 0.14) == 2.28
    assert corrected_bound(4.0, 6.0, 0.14) == 4.28
    assert corrected_bound(2.0, 4.0, 0.03) == 2.06
    assert corrected_bound(3.7, 9.1, 0.0) == 3.7
    assert corrected_bound(2.0, 4.0, 1.0) == 4.0


def test_corrected_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        corrected_bound(2.0, 4.0, -0.01)
    with pytest.raises(ValueError):
        corrected_bound(2.0, 4.0, 1.01)
    with pytest.raises(ValueError):
        corrected_bound(4.0, 2.0, 0.1)
    for bounds in [(2.0, math.inf), (-math.inf, 4.0), (math.nan, 4.0), (2.0, math.nan)]:
        with pytest.raises(ValueError):
            corrected_bound(*bounds, 0.5)


# hand-entered decimals, and arbitrary finite floats of either sign
SHORT_DECIMALS = st.builds(lambda n, k: n / 10**k, st.integers(-10**6, 10**6), st.integers(0, 8))
BOUNDS = SHORT_DECIMALS | st.floats(allow_nan=False, allow_infinity=False)
RATES = (
    st.sampled_from([0.0, 1.0])
    | st.integers(0, 1000).map(lambda i: i / 1000)
    | st.floats(min_value=0.0, max_value=1.0)
)


@seed(37)
@settings(max_examples=500, deadline=None)
@given(bounds=st.lists(BOUNDS, min_size=2, max_size=2).map(sorted), rate=RATES)
@example(bounds=[1e-300, 3e300], rate=0.14)
@example(bounds=[-5e300, -2e-300], rate=1e-300)
@example(bounds=[-4.0, 2.0], rate=0.0)
@example(bounds=[-4.0, 2.0], rate=1.0)
@example(bounds=[-1.7976931348623157e308, 1.7976931348623157e308], rate=0.5)
def test_corrected_bound_is_the_rational_mix_bit_for_bit(bounds, rate):
    got = corrected_bound(*bounds, rate)
    assert repr(got) == repr(rational_corrected_bound(*bounds, rate))


@settings(max_examples=60, deadline=None)
@given(
    nc=st.integers(min_value=0, max_value=6).map(float),
    gap=st.integers(min_value=1, max_value=8).map(float),
    i=st.integers(min_value=0, max_value=999),
    j=st.integers(min_value=0, max_value=999),
)
def test_corrected_bound_monotone_in_rate(nc, gap, i, j):
    if i == j:
        j = (j + 1) % 1000
    lo, hi = sorted((i, j))
    a = corrected_bound(nc, nc + gap, lo / 1000.0)
    b = corrected_bound(nc, nc + gap, hi / 1000.0)
    assert a < b


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4
    ),
    xi=st.integers(min_value=0, max_value=100),
)
def test_report_invariants_hold_for_any_input(vals, xi):
    cors = [
        Correlator(labels=tuple(labels), value=v, stderr=0.0)
        for (labels, _), v in zip(CHSH.terms, vals)
    ]
    report = InequalityReport(CHSH, cors, deviation_rate=xi / 100.0)
    defn = report.definition
    assert defn.nc_bound <= report.corrected_bound <= defn.algebraic_max
    assert defn.nc_bound <= defn.quantum_max <= defn.algebraic_max


def test_custom_definition_validation():
    with pytest.raises(ValueError):
        InequalityDefinition("bad", (), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        InequalityDefinition("bad", ((("ZI",), 0.0),), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        InequalityDefinition("bad", ((("ZI",), 1.0),), 2.0, 1.0, 1.0)
    defn = InequalityDefinition("pair", ((("ZI", "IZ"), 1.0),), 1.0, 1.0, 1.0)
    assert defn.observable_labels == ("ZI", "IZ")


# ------------------------------------------------------ compatibility suite


def test_pm_suite_ideal_is_clean():
    report = compatibility_suite(PAIR_SUITE, ideal_provider())
    assert report.context_independence < 1e-9
    assert report.order_independence < 1e-9
    assert report.repeatability < 1e-9
    assert report.nondisturbance < 1e-9
    assert report.worst_case < 1e-9
    assert len(report.records) > 0


def test_mermin_suite_ideal_is_clean():
    report = compatibility_suite(TRIPLE_SUITE, ideal_provider())
    assert report.worst_case < 1e-9


def test_permutations_of_grid_row_agree_ideally():
    orderings = list(itertools.permutations(("ZX", "XZ", "YY")))
    dists = ideal_provider()([("psi7", seq) for seq in orderings])
    values = [correlator(dist, seq).value for (dist,), seq in zip(dists, orderings)]
    assert max(values) - min(values) < 1e-12
    assert values[0] == pytest.approx(1.0, abs=1e-12)


def test_suite_counts_cover_the_published_plan():
    assert len(PAIR_SUITE.sequences) == 19
    assert len(TRIPLE_SUITE.sequences) == 12
    assert len(PAIR_SUITE.states) == 11
    assert len(TRIPLE_SUITE.states) == 4


def test_every_built_in_inequality_is_audited_on_its_own_observables():
    assert set(AUDIT_SUITES) == set(INEQUALITIES)
    for name, defn in INEQUALITIES.items():
        audited = {lab for seq in AUDIT_SUITES[name].sequences for lab in seq}
        assert set(defn.observable_labels) <= audited, name


def test_suite_rejects_incompatible_sequences():
    suite = AuditSuite(
        name="clash",
        states=("psi1",),
        permutation_groups=(),
        repeat_sequences=(),
        disturbance_sequences=(("ZI", "XI", "ZI"),),
    )
    with pytest.raises(IncompatibleObservablesError):
        compatibility_suite(suite, ideal_provider())


def test_suite_rejects_malformed_groups():
    with pytest.raises(ValueError, match="no states"):
        replace(PAIR_SUITE, states=())
    with pytest.raises(ValueError, match="no sequences"):
        AuditSuite("empty", ("psi1",), (), (), ())
    with pytest.raises(ValueError, match="repeat"):
        AuditSuite("bad-repeat", ("psi1",), (), (("ZI", "IZ", "ZI"),), ())
    with pytest.raises(ValueError, match="disturbance"):
        AuditSuite("bad-probe", ("psi1",), (), (), (("ZI", "IZ", "IX"),))


# (category, label) of each record of the pair suite on one state, in order
PM_RECORD_ORDER = (
    [("order-independence", "orderings of XZ*YY*ZX")]
    + [("repeatability", f"{lab}*{lab}*{lab}")
       for lab in ("ZI", "IZ", "ZZ", "IX", "XI", "XX", "ZX", "XZ", "YY")]
    + [("nondisturbance", f"ZX*{lab}*ZX") for lab in ("ZI", "IX", "XZ", "YY")]
    + [("context-independence", f"marginal of {lab}")
       for lab in ("ZX", "XZ", "YY", "ZI", "IZ", "ZZ", "IX", "XI", "XX")]
)


def test_suite_calls_its_provider_once_in_audit_order():
    base = ideal_provider()
    batches = []

    def recording(requests):
        batches.append(list(requests))
        return base(requests)

    states = ("psi1", "psi4")
    suite = replace(PAIR_SUITE, states=states)
    report = compatibility_suite(suite, recording)
    assert batches == [[(state, seq) for state in states for seq in suite.sequences]]
    assert batches == [suite.requests]
    assert [(r.category, r.label) for r in report.records] == PM_RECORD_ORDER * 2
    assert [r.state for r in report.records] == ["psi1"] * 23 + ["psi4"] * 23

    batches.clear()
    measure_inequality(PERES_MERMIN, recording, "psi1")
    assert batches == [[("psi1", seq) for seq in PERES_MERMIN.sequences]]
    assert batches == [inequality_requests(PERES_MERMIN, "psi1")]


def test_suite_rejects_a_provider_that_drops_requests():
    base = ideal_provider()
    with pytest.raises(ValueError, match="results for"):
        compatibility_suite(
            replace(PAIR_SUITE, states=("psi1",)), lambda requests: base(requests)[1:]
        )


def test_suite_accepts_ensembles_and_averages():
    base = ideal_provider()

    def two_member(requests):
        return [members * 2 for members in base(requests)]

    suite = replace(TRIPLE_SUITE, states=("ghz",))
    single = compatibility_suite(suite, base)
    double = compatibility_suite(suite, two_member)
    assert double.worst_case == pytest.approx(single.worst_case, abs=1e-12)

    def ragged(requests):
        return [members * (1 if k == 0 else 2) for k, members in enumerate(base(requests))]

    with pytest.raises(ValueError, match="members"):
        compatibility_suite(suite, ragged)


def test_noisy_provider_produces_positive_rate():
    # corrupt one designated chain and watch repeatability flag it
    base = ideal_provider()

    def skew(labels, dist):
        if labels == ("XII", "XII", "XII"):
            probs = dict(dist.probs)
            # move 10% of the mass from +++ to +-+ style disagreement
            donor = max(probs, key=probs.get)
            flipped = donor[0] + donor[1] + ("-" if donor[2] == "+" else "+")
            shift = 0.1 * probs[donor]
            probs[donor] -= shift
            probs[flipped] = probs.get(flipped, 0.0) + shift
            return OutcomeDistribution(probs)
        return dist

    def skewed(requests):
        return [
            [skew(labels, dist) for dist in members]
            for (_, labels), members in zip(requests, base(requests))
        ]

    report = compatibility_suite(replace(TRIPLE_SUITE, states=("000",)), skewed)
    assert report.repeatability > 0.01
    assert report.worst_case == report.repeatability
    assert "repeatability" in report.worst_description


def test_compatibility_rates_are_read_from_the_records():
    records = (
        DeviationRecord("repeatability", "ghz", "ZII*ZII*ZII", 0.25),
        DeviationRecord("nondisturbance", "000", "ZII*IZI*ZII", 0.25),
        DeviationRecord("repeatability", "111", "XII*XII*XII", 0.125),
    )
    report = CompatibilityReport(records)
    assert (report.repeatability, report.nondisturbance) == (0.25, 0.25)
    # a category without records reads zero
    assert report.context_independence == report.order_independence == 0.0
    # of equal worst records, the first one is the worst case
    assert report.worst is records[0]
    assert report.worst_description == "repeatability: state ghz, ZII*ZII*ZII"


# ------------------------------------------------------------ serialization


def test_inequality_report_table_mentions_everything():
    text = format_inequality_report(ideal_report(CHSH, "chsh"))
    assert "CHSH" in text
    assert "ZI*IZ" in text
    assert "noncontextual 2" in text
    assert "verdict" in text


def test_compatibility_report_serialization():
    report = compatibility_suite(replace(PAIR_SUITE, states=("psi1",)), ideal_provider())
    text = format_compatibility_report(report)
    assert "worst case" in text


THREE_STATES = ("chsh", "00", "singlet")


def three_member(requests):
    """Member m of every request is its distribution on THREE_STATES[m]."""
    base = ideal_provider()
    per_state = [base([(name, labels) for _, labels in requests]) for name in THREE_STATES]
    return [[dist for (dist,) in column] for column in zip(*per_state)]


def test_measure_inequality_reports_each_member():
    reports = measure_inequality(CHSH, three_member, "chsh", deviation_rate=0.1)
    assert len(reports) == 3
    for m, (report, name) in enumerate(zip(reports, THREE_STATES)):
        def alone(requests, m=m):
            return [[members[m]] for members in three_member(requests)]

        assert measure_inequality(CHSH, alone, "chsh", deviation_rate=0.1) == [report]
        assert report == ideal_report(CHSH, name, xi=0.1)
    assert reports[0].value == pytest.approx(SQRT8, abs=1e-9)
    assert len({r.value for r in reports}) == 3


def test_measure_inequality_rejects_ragged_or_missing_members():
    base = ideal_provider()

    def ragged(requests):
        return [members * (1 if k == 0 else 2) for k, members in enumerate(base(requests))]

    def none(requests):
        return [[] for _ in requests]

    def one_empty(requests):
        return [[] if k == 2 else members for k, members in enumerate(base(requests))]

    for provider in (ragged, none, one_empty):
        with pytest.raises(ValueError, match="members"):
            measure_inequality(CHSH, provider, "chsh")
