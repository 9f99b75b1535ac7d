"""End-to-end acceptance checks, one test per shipped claim.

Run with -v for one pass/fail line per criterion, or -s to also see the
measured numbers.  Every tolerance here is part of the package contract;
loosening one is an interface change, not a test fix.
"""

import math
import os
import time

import numpy as np

from oracles import recompose
from wavecorr.cli import main as cli_main
from wavecorr.contextuality import (
    AUDIT_SUITES,
    CHSH,
    INEQUALITIES,
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
    measure_inequality,
)
from wavecorr.events import (
    LOADED_DIE,
    THRESHOLD_DETECTOR,
    EventModelConfig,
    empirical_distribution,
    sample_events,
)
from wavecorr.network import (
    NoiseModel,
    circuit_distributions,
    ensemble_provider,
)
from wavecorr.reck import decompose
from wavecorr.splitmix import substream
from wavecorr.wavecore import (
    library_state_names,
    pauli_observable,
    sequential_distribution,
    state_library,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# reference hardware readings the noisy pipeline must be able to reach:
# value and one-sigma half width, plus the calibrated fabrication-noise
# grid point (see scripts/noise_study.py for how it was located)
HARDWARE_WINDOWS = {
    "CHSH": (2.78, 0.14),
    "Mermin": (3.93, 0.11),
    "PeresMermin": (5.93, 0.24),
}
CALIBRATED_NOISE = NoiseModel(
    splitter_imbalance_sigma=0.008,
    phase_jitter_sigma=0.012,
    leakage=0.001,
)


def ok(criterion, message):
    print(f"criterion {criterion:2d} PASS: {message}")


def test_criterion_01_pair_expression_saturates_quantum_max():
    t0 = time.perf_counter()
    (report,) = measure_inequality(CHSH, ideal_provider(), "chsh")
    elapsed = time.perf_counter() - t0
    assert abs(report.value - 2 * math.sqrt(2)) < 1e-9
    assert report.verdict == "violates NC bound 2, saturates quantum max"
    assert elapsed < 1.0
    ok(1, f"E = {report.value:.12f} = 2*sqrt(2) within 1e-9 in {elapsed:.3f} s")


def test_criterion_02_triple_expression_saturates_algebraic_max():
    t0 = time.perf_counter()
    (report,) = measure_inequality(MERMIN, ideal_provider(), "ghz")
    elapsed = time.perf_counter() - t0
    assert abs(report.value - 4.0) < 1e-9
    assert elapsed < 1.0
    ok(2, f"M = {report.value:.12f} = 4 within 1e-9 in {elapsed:.3f} s")


def test_criterion_03_grid_expression_is_state_independent():
    t0 = time.perf_counter()
    provider = ideal_provider()
    values = []
    for state in PAIR_SUITE.states:
        (report,) = measure_inequality(PERES_MERMIN, provider, state)
        values.append(report.value)
    elapsed = time.perf_counter() - t0
    assert len(values) == 11
    for state, value in zip(PAIR_SUITE.states, values):
        assert abs(value - 6.0) < 1e-9, state
    assert elapsed < 5.0
    ok(3, f"chi = 6 within 1e-9 on all 11 stock states in {elapsed:.3f} s")


def test_criterion_04_noncontextual_bounds_by_enumeration():
    t0 = time.perf_counter()
    bounds = {name: classical_bound_oracle(defn) for name, defn in INEQUALITIES.items()}
    elapsed = time.perf_counter() - t0
    assert bounds == {"CHSH": 2.0, "Mermin": 2.0, "PeresMermin": 4.0}
    assert elapsed < 1.0
    ok(4, f"exhaustive assignments give bounds {bounds} in {elapsed:.3f} s")


def test_criterion_05_corrected_bounds_exact():
    pairs = (
        (corrected_bound(2.0, 4.0, 0.14), 2.28),
        (corrected_bound(4.0, 6.0, 0.14), 4.28),
        (corrected_bound(2.0, 4.0, 0.03), 2.06),
    )
    for got, want in pairs:
        assert got == want, (got, want)
    ok(5, "corrected bounds 2.28, 4.28, 2.06 reproduced exactly")


def test_criterion_06_mesh_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(608)
    worst = 0.0
    for n in (2, 4, 8, 16):
        for _ in range(25):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, r = np.linalg.qr(z)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            err = np.max(np.abs(recompose(decompose(u)) - u))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 10.0
    ok(6, f"100 random unitaries round-trip, worst error {worst:.3e} in {elapsed:.3f} s")


def test_criterion_07_mesh_pipeline_matches_matrix_oracle():
    requests = [
        (state_name, labels, None)
        for state_name in library_state_names()
        for defn in INEQUALITIES.values()
        for labels in defn.sequences
        if len(labels[0]) == state_library(state_name).dim.bit_length() - 1
    ]
    checked = 0
    worst = 0.0
    for (state_name, labels, _), [mesh] in zip(requests, circuit_distributions(requests)):
        obs = [pauli_observable(l) for l in labels]
        exact = sequential_distribution(state_library(state_name), obs)
        for key in set(exact.probs) | set(mesh.probs):
            diff = abs(exact.probs.get(key, 0.0) - mesh.probs.get(key, 0.0))
            worst = max(worst, diff)
        checked += 1
    assert checked > 100
    assert worst < 1e-9
    ok(7, f"{checked} state/sequence pairs agree, worst probability gap {worst:.3e}")


def test_criterion_08_compatibility_suites_clean_in_ideal_mode():
    provider = ideal_provider()
    for suite in (PAIR_SUITE, TRIPLE_SUITE):
        report = compatibility_suite(suite, provider)
        for category, value in (
            ("order", report.order_independence),
            ("repeat", report.repeatability),
            ("disturb", report.nondisturbance),
            ("context", report.context_independence),
        ):
            assert value < 1e-9, (suite.name, category, value)
        assert report.worst_case < 1e-9
        assert corrected_bound(4.0, 6.0, 0.0) == 4.0
    ok(8, "both suites ideal-clean below 1e-9, deviation rate 0")


def test_criterion_09_event_models_converge_at_one_million():
    t0 = time.perf_counter()
    provider = ideal_provider()
    reports = {}
    for model in (LOADED_DIE, THRESHOLD_DETECTOR):
        cors = []
        bases = provider([("psi7", labels) for labels in PERES_MERMIN.sequences])
        for k, (labels, (base,)) in enumerate(zip(PERES_MERMIN.sequences, bases)):
            cfg = EventModelConfig(
                model=model, sample_count=1_000_000, seed=substream(900 + k, k)
            )
            dist = empirical_distribution(sample_events(base, cfg))
            cors.append(correlator(dist, labels))
        reports[model] = InequalityReport(PERES_MERMIN, cors)
    elapsed = time.perf_counter() - t0

    # every grid sequence has a deterministic product on any state, so the
    # sampled correlators have zero variance and the 4-sigma windows are
    # exact; the floor only guards float arithmetic
    for model, report in reports.items():
        assert abs(report.value - 6.0) <= 4.0 * report.stderr + 1e-9, model
    a, b = reports[LOADED_DIE], reports[THRESHOLD_DETECTOR]
    combined = math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) <= 4.0 * combined + 1e-9
    assert elapsed < 60.0
    ok(9, f"chi = {a.value:.6f} (die) vs {b.value:.6f} (threshold) at N=1e6 "
          f"in {elapsed:.1f} s")


def _noisy_mean(defn, state_name, noise, master_seed, members):
    provider = ensemble_provider(noise, master_seed, members)
    return float(np.mean([r.value for r in measure_inequality(defn, provider, state_name)]))


def _noisy_suite_rate(suite, noise, master_seed, members):
    provider = ensemble_provider(noise, master_seed, members)
    return compatibility_suite(suite, provider).worst_case


# CHSH, Mermin and PeresMermin means, then the pair and triple suite rates
PINNED_CRITERION_10 = [
    "2.8245958941661455", "3.9154386718324354", "5.981882939737463",
    "0.09820368572754164", "0.048705443290647",
]


def test_criterion_10_noisy_means_reach_hardware_windows():
    noise = CALIBRATED_NOISE
    means = {
        "CHSH": _noisy_mean(CHSH, "chsh", noise, 0, 100),
        "Mermin": _noisy_mean(MERMIN, "ghz", noise, 0, 100),
        "PeresMermin": _noisy_mean(PERES_MERMIN, "psi1", noise, 0, 100),
    }
    for name, mean in means.items():
        center, sigma = HARDWARE_WINDOWS[name]
        assert center - sigma <= mean <= center + sigma, (name, mean)

    rates = {
        suite: _noisy_suite_rate(suite, noise, offset, 6)
        for offset, suite in enumerate((PAIR_SUITE, TRIPLE_SUITE), 1)
    }
    # every digit is pinned, so a change to how the members are propagated
    # or seeded shows up here
    assert [repr(v) for v in (*means.values(), *rates.values())] == PINNED_CRITERION_10
    corrected = {
        name: corrected_bound(defn.nc_bound, defn.algebraic_max, rates[AUDIT_SUITES[name]])
        for name, defn in INEQUALITIES.items()
    }
    for name in means:
        assert corrected[name] < means[name], (name, corrected[name], means[name])
    ok(10, "noisy means {} inside hardware windows, corrected bounds {} below".format(
        {k: round(v, 3) for k, v in means.items()},
        {k: round(v, 3) for k, v in corrected.items()},
    ))


def test_criterion_11_csv_bitwise_reproducible(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("WAVECORR_OUTPUT_DIR", raising=False)
    scenario = os.path.join(SCENARIO_DIR, "pm_events.yaml")
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli_main(["run", scenario, "--csv", out_a]) == 0
    assert cli_main(["run", scenario, "--csv", out_b]) == 0
    capsys.readouterr()
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        first, second = fa.read(), fb.read()
    assert first == second
    assert len(first.splitlines()) == 2
    ok(11, f"two consecutive runs wrote identical CSV bytes ({len(first)} bytes)")
