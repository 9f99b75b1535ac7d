import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecorr.events import (
    EventCounts,
    EventModelConfig,
    LOADED_DIE,
    THRESHOLD_DETECTOR,
    MAX_THRESHOLD_SAMPLES,
    empirical_distribution,
    loaded_die_sample,
    sample_events,
    threshold_event_stream,
)
from wavecorr.outcomes import OutcomeDistribution, outcome_signs
from wavecorr.splitmix import counter_uniform, substream
from wavecorr.wavecore import pauli_observable, sequential_distribution, state_library

UNIFORM4 = OutcomeDistribution(
    {"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25}
)


def product_mean(dist: OutcomeDistribution) -> float:
    return sum(p * math.prod(outcome_signs(k)) for k, p in dist.probs.items())


# ------------------------------------------------------------ config checks


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        EventModelConfig(model="geiger")
    with pytest.raises(ValueError):
        EventModelConfig(sample_count=0)
    with pytest.raises(ValueError):
        EventModelConfig(threshold=0.0)
    with pytest.raises(ValueError):
        EventModelConfig(threshold_spread=-0.1)
    with pytest.raises(ValueError):
        EventModelConfig(model=THRESHOLD_DETECTOR, threshold=1.0, threshold_spread=1.0)
    for value in (math.nan, math.inf):
        for field in ("threshold", "threshold_spread"):
            for model in (LOADED_DIE, THRESHOLD_DETECTOR):
                with pytest.raises(ValueError, match="finite"):
                    EventModelConfig(model=model, **{field: value})
    # a loaded die never draws thresholds, so the spread bound is not enforced
    EventModelConfig(model=LOADED_DIE, threshold=1.0, threshold_spread=1.0)


def test_config_caps_threshold_sample_count():
    with pytest.raises(ValueError, match="sample_count"):
        EventModelConfig(model=THRESHOLD_DETECTOR, sample_count=MAX_THRESHOLD_SAMPLES + 1)
    EventModelConfig(model=THRESHOLD_DETECTOR, sample_count=MAX_THRESHOLD_SAMPLES)
    # the loaded die tallies in one multinomial draw, so it is not capped
    EventModelConfig(model=LOADED_DIE, sample_count=MAX_THRESHOLD_SAMPLES + 1)


def test_event_counts_validation():
    with pytest.raises(ValueError):
        EventCounts(counts={}, total=0)
    with pytest.raises(ValueError):
        EventCounts(counts={"+": 3}, total=4)
    with pytest.raises(ValueError):
        EventCounts(counts={"+": -1, "-": 2}, total=1)
    with pytest.raises(ValueError):
        EventCounts(counts={"+": 0.5, "-": 0.5}, total=1)
    ec = EventCounts(counts={"+": 3, "-": 1}, total=4)
    assert ec.frequency("+") == 0.75
    assert ec.frequency("missing") == 0.0


# --------------------------------------------------------------- loaded die


def test_die_degenerate_distribution():
    cfg = EventModelConfig(model=LOADED_DIE, sample_count=1000, seed=5)
    counts = loaded_die_sample(OutcomeDistribution({"++": 1.0, "--": 0.0}), cfg)
    assert counts.counts["++"] == 1000
    assert counts.counts["--"] == 0
    assert counts.total == 1000


def test_die_uniform_four_within_binomial_band():
    n = 1_000_000
    cfg = EventModelConfig(model=LOADED_DIE, sample_count=n, seed=11)
    counts = loaded_die_sample(UNIFORM4, cfg)
    sigma = math.sqrt(n * 0.25 * 0.75)
    for key in UNIFORM4.probs:
        assert abs(counts.counts[key] - n * 0.25) <= 4.0 * sigma
    assert counts.total == n


def test_die_reproduces_pair_correlator():
    # first two commuting factor observables on the tilted Bell state: the
    # exact product mean is 1/sqrt(2)
    state = state_library("chsh")
    dist = sequential_distribution(
        state, [pauli_observable("ZI"), pauli_observable("IZ")]
    )
    n = 1_000_000
    counts = loaded_die_sample(dist, EventModelConfig(sample_count=n, seed=3))
    emp = empirical_distribution(counts)
    assert emp.sample_count == n
    assert abs(product_mean(emp) - 1.0 / math.sqrt(2.0)) <= 4e-3


def test_die_deterministic_by_seed():
    cfg = EventModelConfig(sample_count=5000, seed=42)
    a = loaded_die_sample(UNIFORM4, cfg)
    b = loaded_die_sample(UNIFORM4, cfg)
    assert a == b
    c = loaded_die_sample(UNIFORM4, EventModelConfig(sample_count=5000, seed=43))
    assert c != a


# -------------------------------------------------------- threshold streams


def tcfg(n, seed=0, spread=0.25, threshold=1.0):
    return EventModelConfig(
        model=THRESHOLD_DETECTOR,
        threshold=threshold,
        threshold_spread=spread,
        sample_count=n,
        seed=seed,
    )


def test_threshold_single_live_port():
    counts = threshold_event_stream({"+": 0.0, "-": 2.3}, tcfg(777))
    assert counts.counts == {"+": 0, "-": 777}


def test_threshold_rejects_bad_intensities():
    with pytest.raises(ValueError):
        threshold_event_stream({}, tcfg(10))
    with pytest.raises(ValueError):
        threshold_event_stream({"+": 0.0, "-": 0.0}, tcfg(10))
    with pytest.raises(ValueError):
        threshold_event_stream({"+": -1.0, "-": 1.0}, tcfg(10))
    with pytest.raises(ValueError):
        threshold_event_stream({"+": math.inf}, tcfg(10))
    # spread bound enforced even if the config was built for the other model
    bad = EventModelConfig(model=LOADED_DIE, threshold=1.0, threshold_spread=1.5)
    with pytest.raises(ValueError):
        threshold_event_stream({"+": 1.0}, bad)


def test_threshold_equal_rates_split_evenly():
    n = 100_000
    counts = threshold_event_stream({"+": 1.0, "-": 1.0}, tcfg(n, seed=9))
    sigma = math.sqrt(0.25 / n)
    assert abs(counts.frequency("+") - 0.5) <= 4.0 * sigma
    assert counts.total == n


def test_threshold_rates_three_to_one():
    n = 100_000
    counts = threshold_event_stream({"+": 0.75, "-": 0.25}, tcfg(n, seed=21))
    for key, p in (("+", 0.75), ("-", 0.25)):
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(counts.frequency(key) - p) <= 4.0 * sigma


def test_threshold_intensity_scale_does_not_matter_statistically():
    n = 50_000
    a = threshold_event_stream({"u": 0.6, "v": 0.2, "w": 0.2}, tcfg(n, seed=4))
    b = threshold_event_stream({"u": 6.0, "v": 2.0, "w": 2.0}, tcfg(n, seed=4))
    for key in ("u", "v", "w"):
        assert abs(a.frequency(key) - b.frequency(key)) <= 0.01


def test_threshold_zero_spread_alternates_from_lowest_port():
    # with no spread and equal rates every detector clicks at the same
    # instants; simultaneous clicks are recorded in ascending port order
    counts = threshold_event_stream({"a": 1.0, "b": 1.0}, tcfg(5, spread=0.0))
    assert counts.counts == {"a": 3, "b": 2}
    counts = threshold_event_stream({"a": 1.0, "b": 1.0}, tcfg(6, spread=0.0))
    assert counts.counts == {"a": 3, "b": 3}


def test_threshold_deterministic_by_seed():
    rates = {"++": 0.42, "+-": 0.08, "-+": 0.08, "--": 0.42}
    a = threshold_event_stream(rates, tcfg(20_000, seed=1))
    b = threshold_event_stream(rates, tcfg(20_000, seed=1))
    assert a == b
    c = threshold_event_stream(rates, tcfg(20_000, seed=2))
    assert c != a


def test_threshold_insensitive_to_chunking(monkeypatch):
    # shrink the initial budget so the extension loop actually runs; the
    # counter-based draws must make the outcome identical either way
    rates = {"u": 0.65, "v": 0.25, "w": 0.10}
    reference = threshold_event_stream(rates, tcfg(30_000, seed=13))
    import wavecorr.events as ev

    monkeypatch.setattr(ev, "_CHUNK_SIGMAS", 0.0)
    monkeypatch.setattr(ev, "_CHUNK_FLOOR", 1)
    squeezed = threshold_event_stream(rates, tcfg(30_000, seed=13))
    assert squeezed == reference
    # thresholds drawn in odd-sized blocks, so blocks straddle every extension
    monkeypatch.setattr(ev, "_BLOCK", 7)
    assert threshold_event_stream(rates, tcfg(30_000, seed=13)) == reference


def sorted_merge_counts(rates, cfg):
    """Reference tally: sort the merged stream of n clicks per port.

    No port can place more than n clicks among the first n, so this is the
    definition of the detector's output, computed the slow way.
    """
    keys = list(rates)
    r = np.array([rates[k] for k in keys], dtype=float)
    r = r / r.max()
    lo = cfg.threshold - cfg.threshold_spread
    n = cfg.sample_count
    times, owners = [], []
    for j in np.flatnonzero(r > 0.0):
        u = counter_uniform(substream(cfg.seed, int(j)), np.arange(n, dtype=np.uint64))
        with np.errstate(over="ignore"):
            times.append(np.cumsum(lo + 2.0 * cfg.threshold_spread * u) / r[j])
        owners.append(np.full(n, j))
    owner = np.concatenate(owners)
    first = np.lexsort((owner, np.concatenate(times)))[:n]
    fired = np.bincount(owner[first], minlength=len(keys))
    return {k: int(c) for k, c in zip(keys, fired)}


@pytest.mark.parametrize(
    "rates",
    [
        {"a": 0.0, "b": 0.0, "c": 0.4, "d": 0.0},
        {"only": 1e-300},
        # q underflows to zero against p's scale, so p is the one live port
        {"p": 1e308, "q": 1e-20, "r": 0.0},
    ],
)
@pytest.mark.parametrize("n", [1, 777, 30_000])
def test_threshold_one_live_port_takes_every_click(rates, n, monkeypatch):
    import wavecorr.events as ev

    def no_draw(*args):
        raise AssertionError("a threshold was drawn")

    cfg = tcfg(n, seed=5)
    monkeypatch.setattr(ev, "_click_times", no_draw)
    assert threshold_event_stream(rates, cfg).counts == sorted_merge_counts(rates, cfg)


@settings(max_examples=40, deadline=None)
@given(
    rates=st.lists(
        st.sampled_from([0.0, 1e-320, 1e-3, 0.1, 0.25, 0.5, 1.0, 1.0, 3.0])
        | st.floats(min_value=0.0, max_value=2.0),
        min_size=1,
        max_size=6,
    ),
    spread=st.sampled_from([0.0, 0.25, 0.9]),
    n=st.integers(min_value=1, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**40),
)
def test_threshold_matches_sorted_merge(rates, spread, n, seed):
    if not any(r > 0.0 for r in rates):
        rates = rates + [1.0]
    ports = {f"p{i}": r for i, r in enumerate(rates)}
    cfg = tcfg(n, seed=seed, spread=spread)
    assert threshold_event_stream(ports, cfg).counts == sorted_merge_counts(ports, cfg)


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize(
    "rates,cfg",
    [
        # zero spread: equal-rate ports tie at the cutoff and at every horizon
        ({"a": 1.0, "b": 1.0, "c": 1.0}, tcfg(1000, spread=0.0)),
        ({"a": 1.0, "b": 0.5, "c": 1.0}, tcfg(1001, spread=0.0)),
        # q's click times overflow to inf: it never sets the horizon
        ({"p": 1.0, "q": 1e-320, "r": 0.3}, tcfg(1500, seed=3)),
        ({"u": 0.65, "v": 0.25, "w": 0.10}, tcfg(3000, seed=13)),
        ({"u": 0.65, "v": 0.25, "w": 0.10, "z": 0.0}, tcfg(2999, seed=7, spread=0.9)),
    ],
)
def test_threshold_horizon_crosses_many_blocks(rates, cfg, block, monkeypatch):
    # tiny blocks and no budget margin, so every port retires many blocks
    # before the cutoff is selected from the ones it holds
    import wavecorr.events as ev

    click_times, sizes = ev._click_times, []

    def spy(out, *args):
        sizes.append(out.size)
        return click_times(out, *args)

    monkeypatch.setattr(ev, "_click_times", spy)
    monkeypatch.setattr(ev, "_BLOCK", block)
    monkeypatch.setattr(ev, "_CHUNK_SIGMAS", 0.0)
    monkeypatch.setattr(ev, "_CHUNK_FLOOR", 1)
    assert threshold_event_stream(rates, cfg).counts == sorted_merge_counts(rates, cfg)
    assert max(sizes) <= block
    assert sum(sizes) >= cfg.sample_count and len(sizes) > cfg.sample_count // block


@pytest.mark.parametrize("n", [10**6, 4 * 10**6])
def test_threshold_memory_does_not_grow_with_sample_count(n):
    # numpy reports its buffers to tracemalloc; each live port holds one
    # block of at most _BLOCK click times whatever the sample count
    import tracemalloc

    rates = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}
    threshold_event_stream(rates, tcfg(1000))  # lazily built hash tables
    tracemalloc.start()
    try:
        threshold_event_stream(rates, tcfg(n, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize(
    "rates,cfg,expected",
    [
        # zero spread: a three-way tie at the cutoff, broken by port order
        ({"a": 1.0, "b": 1.0, "c": 1.0}, tcfg(7, spread=0.0), {"a": 3, "b": 2, "c": 2}),
        (
            {"u": 0.65, "v": 0.25, "w": 0.10, "z": 0.0},
            tcfg(30_000, seed=13),
            {"u": 19502, "v": 7508, "w": 2990, "z": 0},
        ),
        # q's click times overflow to inf: it never fires
        ({"p": 1.0, "q": 1e-320}, tcfg(1000, seed=3), {"p": 1000, "q": 0}),
    ],
)
def test_threshold_counts_are_pinned(rates, cfg, expected):
    # recorded from the sort-and-merge implementation: selecting the cutoff
    # instead of sorting the merged stream must not move a single click
    assert threshold_event_stream(rates, cfg).counts == expected


def grid_sequence_intensities():
    # ZI*IX*ZX on the tilted Bell state: eight ports, four of them dark
    state = state_library("chsh")
    dist = sequential_distribution(state, [pauli_observable(lab) for lab in ("ZI", "IX", "ZX")])
    return dict(dist.probs)


@pytest.mark.parametrize(
    "rates,seed,expected",
    [
        # a dark port and two rates that differ in the twelfth digit
        (
            {"a": 0.5, "b": 0.0, "c": 0.3, "d": 0.3 * (1 + 1e-12)},
            31,
            {"a": 454676, "b": 0, "c": 272642, "d": 272682},
        ),
        (
            None,
            5,
            {"+++": 426772, "++-": 0, "+-+": 0, "+--": 73234,
             "-++": 0, "-+-": 73188, "--+": 426806, "---": 0},
        ),
        (
            None,
            2**40 + 7,
            {"+++": 426738, "++-": 0, "+-+": 0, "+--": 73261,
             "-++": 0, "-+-": 73208, "--+": 426793, "---": 0},
        ),
    ],
)
def test_threshold_counts_at_a_million_clicks_are_pinned(rates, seed, expected):
    # recorded before the thresholds were hashed in place: every one of the
    # 10^6 clicks must land where it did
    rates = grid_sequence_intensities() if rates is None else rates
    assert threshold_event_stream(rates, tcfg(10**6, seed=seed)).counts == expected


# ------------------------------------------------------------- equivalence


def test_models_estimate_the_same_distribution():
    state = state_library("chsh")
    dist = sequential_distribution(
        state, [pauli_observable("ZI"), pauli_observable("IZ")]
    )
    n = 1_000_000
    die = empirical_distribution(
        loaded_die_sample(dist, EventModelConfig(sample_count=n, seed=101))
    )
    thr = empirical_distribution(
        threshold_event_stream(dict(dist.probs), tcfg(n, seed=202))
    )
    for key, p in dist.probs.items():
        sigma = math.sqrt(2.0 * p * (1.0 - p) / n)
        assert abs(die.prob(key) - thr.prob(key)) <= 4.0 * max(sigma, 1e-12)


def test_sample_events_dispatches_on_model():
    dist = OutcomeDistribution(
        {"+": 0.5, "-": 0.5}, intensities={"+": 3.0, "-": 3.0}
    )
    die = sample_events(dist, EventModelConfig(model=LOADED_DIE, sample_count=4000, seed=7))
    thr = sample_events(dist, tcfg(4000, seed=7))
    assert die.total == thr.total == 4000
    assert die != thr  # different mechanisms, same seed
    assert abs(die.frequency("+") - 0.5) < 0.05
    assert abs(thr.frequency("+") - 0.5) < 0.05


# ------------------------------------------------------ empirical plumbing


def test_empirical_distribution_matches_hand_arithmetic():
    emp = empirical_distribution(EventCounts(counts={"+": 3, "-": 1}, total=4))
    assert emp.prob("+") == 0.75
    assert emp.prob("-") == 0.25
    assert emp.sample_count == 4


def test_uniform_sample_errors_near_formula():
    n = 1_000_000
    counts = loaded_die_sample(UNIFORM4, EventModelConfig(sample_count=n, seed=2))
    emp = empirical_distribution(counts)
    assert emp.sample_count == n
    # the binomial error sqrt(p (1 - p) / n) of each frequency is 4.33e-4
    for key in UNIFORM4.probs:
        assert abs(emp.prob(key) - 0.25) < 4 * 4.33e-4


# ---------------------------------------------------------------- property


@settings(max_examples=25, deadline=None)
@given(
    rates=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        min_size=2,
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_threshold_stream_properties(rates, seed):
    if not any(r > 1e-3 for r in rates):
        rates = rates + [1.0]
    ports = {f"p{i}": r for i, r in enumerate(rates)}
    cfg = tcfg(2000, seed=seed)
    counts = threshold_event_stream(ports, cfg)
    assert counts.total == 2000
    assert sum(counts.counts.values()) == 2000
    again = threshold_event_stream(ports, cfg)
    assert again == counts
    total = sum(rates)
    for key, r in ports.items():
        assert abs(counts.frequency(key) - r / total) <= 0.1
