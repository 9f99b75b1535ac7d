import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mix64
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
from wavecorr.splitmix import _RUN, GOLDEN, substream
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


@pytest.mark.parametrize("model", [LOADED_DIE, THRESHOLD_DETECTOR])
def test_config_caps_every_model_at_int64(model):
    with pytest.raises(ValueError, match="sample_count"):
        EventModelConfig(model=model, sample_count=2**63)
    EventModelConfig(model=LOADED_DIE, sample_count=2**63 - 1)


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
    assert ec.counts.get("+", 0) / ec.total == 0.75
    assert ec.counts.get("missing", 0) / ec.total == 0.0


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
    assert abs(counts.counts.get("+", 0) / counts.total - 0.5) <= 4.0 * sigma
    assert counts.total == n


def test_threshold_rates_three_to_one():
    n = 100_000
    counts = threshold_event_stream({"+": 0.75, "-": 0.25}, tcfg(n, seed=21))
    for key, p in (("+", 0.75), ("-", 0.25)):
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(counts.counts.get(key, 0) / counts.total - p) <= 4.0 * sigma


def test_threshold_intensity_scale_does_not_matter_statistically():
    n = 50_000
    a = threshold_event_stream({"u": 0.6, "v": 0.2, "w": 0.2}, tcfg(n, seed=4))
    b = threshold_event_stream({"u": 6.0, "v": 2.0, "w": 2.0}, tcfg(n, seed=4))
    for key in ("u", "v", "w"):
        assert abs(a.counts.get(key, 0) / a.total - b.counts.get(key, 0) / b.total) <= 0.01


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


def threshold_halves(stream, start, stop):
    """v_i for clicks 2 start <= i < 2 stop: each hashed word's low half, then its high half."""
    counter = np.arange(start, stop, dtype=np.uint64)
    words = mix64(np.uint64(stream) + (counter + np.uint64(1)) * GOLDEN)
    low, high = words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)
    return np.stack([low, high], axis=1).ravel().astype(np.int64)


def sorted_merge_counts(rates, cfg):
    """Reference tally: sort the merged stream of n clicks per port.

    No port can place more than n clicks among the first n, so this is the
    definition of the detector's output, computed the slow way: click m of a
    port comes at (m lo + q E_m) / rate thresholds, E_m summing 2 v_i + 1
    over i < m.
    """
    keys = list(rates)
    r = np.array([rates[k] for k in keys], dtype=float)
    r = r / r.max()
    ratio = cfg.threshold_spread / cfg.threshold
    lo, q = 1.0 - ratio, 2.0 * ratio * 2.0**-33
    n = cfg.sample_count
    clicks = np.arange(1, n + 1).astype(float)
    times, owners = [], []
    for j in np.flatnonzero(r > 0.0):
        v = threshold_halves(substream(cfg.seed, int(j)), 0, (n + 1) // 2)[:n]
        energy = np.cumsum(2 * v + 1)
        with np.errstate(over="ignore"):
            times.append((clicks * lo + q * energy.astype(float)) / r[j])
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
    monkeypatch.setattr(ev, "_energy", no_draw)
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
    # tiny blocks from odd starts, first after a skip with no margin, then
    # with a margin so wide that nothing is skipped: every port then retires
    # many blocks before the cutoff is selected from the ones it holds
    import wavecorr.events as ev

    click_times, sizes = ev._click_times, []

    def spy(out, *args):
        sizes.append(out.size)
        return click_times(out, *args)

    monkeypatch.setattr(ev, "_click_times", spy)
    monkeypatch.setattr(ev, "_BLOCK", block)
    monkeypatch.setattr(ev, "_CHUNK_SIGMAS", 0.0)
    for floor in (1, 10**9):
        sizes.clear()
        monkeypatch.setattr(ev, "_CHUNK_FLOOR", floor)
        assert threshold_event_stream(rates, cfg).counts == sorted_merge_counts(rates, cfg)
        assert max(sizes) <= block
    assert sum(sizes) >= cfg.sample_count and len(sizes) > cfg.sample_count // block


def test_skipped_energy_is_the_per_click_sum():
    # the skip's whole-word sums against a cumsum over single clicks, from
    # odd and even word starts, over runs that cross a chunk of the buffers
    # and a _RUN-long chunk of the hash table
    import wavecorr.events as ev

    rng = np.random.default_rng(24)
    words = (np.empty(_RUN + 5, np.uint64), np.empty(_RUN + 5, np.uint64))
    for _ in range(20):
        stream = int(rng.integers(0, 2**64, dtype=np.uint64))
        start = int(rng.integers(0, 5000))
        length = int(rng.choice([1, 2, 999, _RUN + 5, _RUN + 6, 2 * _RUN + 13]))
        expected = int(np.cumsum(2 * threshold_halves(stream, start, start + length) + 1)[-1])
        assert ev._energy(stream, start, start + length, words) == expected


@pytest.mark.parametrize(
    "rates,cfg",
    [
        ({"u": 0.65, "v": 0.25, "w": 0.10}, tcfg(30_000, seed=13)),
        ({"a": 1.0, "b": 1.0}, tcfg(4001, seed=2, spread=0.9)),
        ({"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}, tcfg(20_000, seed=8)),
    ],
)
def test_threshold_redraws_when_a_skip_reaches_the_cutoff(rates, cfg, monkeypatch):
    # skipping all but one click of a port's expected share overshoots the
    # cutoff for about half the ports; the draw must then run without skipping
    import wavecorr.events as ev

    nth_smallest, cutoffs = ev._nth_smallest, []

    def spy(*args):
        cutoffs.append(nth_smallest(*args))
        return cutoffs[-1]

    monkeypatch.setattr(ev, "_nth_smallest", spy)
    monkeypatch.setattr(ev, "_CHUNK_SIGMAS", 0.0)
    monkeypatch.setattr(ev, "_CHUNK_FLOOR", 1)
    assert threshold_event_stream(rates, cfg).counts == sorted_merge_counts(rates, cfg)
    assert len(cutoffs) == 2


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from([0.5, 1.0, 1.0, 2.0, math.inf])
            | st.floats(min_value=1e-300, max_value=1e300),
            max_size=12,
        ),
        min_size=1,
        max_size=8,
    ).filter(any)
)
def test_nth_smallest_is_the_sorted_concatenation_entry(arrays):
    # ties within and across arrays, ports that never fire (inf) and empty
    # prefixes, at every n from 1 to the total; the inputs stay as they were
    import wavecorr.events as ev

    times = [np.sort(np.array(a, dtype=float)) for a in arrays]
    copies = [t.copy() for t in times]
    merged = np.sort(np.concatenate(times))
    for n in range(1, merged.size + 1):
        assert ev._nth_smallest(times, n) == merged[n - 1]
    assert all(np.array_equal(t, c) for t, c in zip(times, copies))


WINDOW_CASES = list(itertools.product([0.0, 0.05, 0.25, 0.9, 0.999], [0.5, 1.0, 3.0]))


@pytest.mark.parametrize(
    "case,ratio,threshold", [(i, *rt) for i, rt in enumerate(WINDOW_CASES)]
)
def test_threshold_draws_one_block_per_live_port(case, ratio, threshold, monkeypatch):
    # the margin spans ten of a count's own standard deviations, so every
    # live port's first block reaches past the cutoff and no draw is redone:
    # the counts do not depend on it, only the time does
    import wavecorr.events as ev

    ports = 2 + case % 7
    n = min(10 ** (3 + case % 4), 2 * 10**6 // ports)
    draw = np.random.default_rng(case).uniform(0.05, 1.0, ports)
    rates = {f"p{j}": float(r) for j, r in enumerate(draw)}
    cfg = tcfg(n, seed=case, spread=ratio * threshold, threshold=threshold)
    click_times, nth_smallest, streams, selections = ev._click_times, ev._nth_smallest, [], []

    def block_spy(out, buffers, stream, *args):
        streams.append(stream)
        return click_times(out, buffers, stream, *args)

    def select_spy(held, rank):
        selections.append(rank)
        return nth_smallest(held, rank)

    monkeypatch.setattr(ev, "_click_times", block_spy)
    monkeypatch.setattr(ev, "_nth_smallest", select_spy)
    assert threshold_event_stream(rates, cfg).counts == sorted_merge_counts(rates, cfg)
    assert sorted(streams) == sorted(substream(cfg.seed, j) for j in range(ports))
    assert len(selections) == 1


@pytest.mark.parametrize("n", [10**6, 4 * 10**6, MAX_THRESHOLD_SAMPLES])
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
            {"u": 19505, "v": 7502, "w": 2993, "z": 0},
        ),
        # q's click times overflow to inf: it never fires
        ({"p": 1.0, "q": 1e-320}, tcfg(1000, seed=3), {"p": 1000, "q": 0}),
    ],
)
def test_threshold_counts_are_pinned(rates, cfg, expected):
    # recorded from the exact-energy thresholds, equal to sorted_merge_counts:
    # skipping, blocking and selecting the cutoff must not move a single click
    assert threshold_event_stream(rates, cfg).counts == expected


@pytest.mark.parametrize(
    "threshold", [2.0**1010, 2.0**-1060, 1e306], ids=["2^1010", "2^-1060", "1e306"]
)
def test_threshold_sets_only_a_time_scale(threshold):
    # at one spread ratio every finite threshold clicks as threshold 1 does;
    # in absolute units the large ones overflow the click times to inf and
    # the small one underflows q to zero
    rates = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}
    unit = threshold_event_stream(rates, tcfg(10**6, seed=3))
    assert unit.counts == {"a": 399972, "b": 300010, "c": 200045, "d": 99973}
    cfg = tcfg(10**6, seed=3, spread=0.25 * threshold, threshold=threshold)
    assert threshold_event_stream(rates, cfg).counts == unit.counts


def grid_sequence_intensities():
    # ZI*IX*ZX on the tilted Bell state: eight ports, four of them dark
    state = state_library("chsh")
    dist = sequential_distribution(state, [pauli_observable(lab) for lab in ("ZI", "IX", "ZX")])
    return dict(dist.probs)


PINNED_MILLION = [
    # a dark port and two rates that differ in the twelfth digit
    (
        {"a": 0.5, "b": 0.0, "c": 0.3, "d": 0.3 * (1 + 1e-12)},
        31,
        {"a": 454556, "b": 0, "c": 272632, "d": 272812},
    ),
    (
        None,
        5,
        {"+++": 426748, "++-": 0, "+-+": 0, "+--": 73260,
         "-++": 0, "-+-": 73224, "--+": 426768, "---": 0},
    ),
    (
        None,
        2**40 + 7,
        {"+++": 426714, "++-": 0, "+-+": 0, "+--": 73283,
         "-++": 0, "-+-": 73218, "--+": 426785, "---": 0},
    ),
]


@pytest.mark.parametrize("rates,seed,expected", PINNED_MILLION)
def test_threshold_counts_at_a_million_clicks_are_pinned(rates, seed, expected):
    # recorded from the exact-energy thresholds, equal to sorted_merge_counts:
    # every one of the 10^6 clicks must land where it did, on every host
    rates = grid_sequence_intensities() if rates is None else rates
    assert threshold_event_stream(rates, tcfg(10**6, seed=seed)).counts == expected


def test_threshold_quanta_are_uniform():
    # (2 v + 1) 2^-33 over 10^6 clicks of port 0's stream at seed 0: mean and
    # variance within 4 sigma of U(0, 1)'s, KS distance below the 1 % value
    n = 10**6
    u = np.sort((2 * threshold_halves(substream(0, 0), 0, n // 2) + 1) * 2.0**-33)
    assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / n)
    assert abs(u.var() - 1.0 / 12.0) <= 4.0 * math.sqrt((1.0 / 80.0 - 1.0 / 144.0) / n)
    ks = max((np.arange(1, n + 1) / n - u).max(), (u - np.arange(n) / n).max())
    assert ks < 1.63 / math.sqrt(n)


def test_threshold_counts_do_not_depend_on_numpy_dispatch():
    # the pinned 10^6-click cases in a process with every numpy dispatch
    # group this host runs disabled: only exactly rounded operations are used
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    groups = [g for g in __cpu_dispatch__ if __cpu_features__.get(g)]
    cases = [
        (grid_sequence_intensities() if rates is None else rates, seed)
        for rates, seed, _ in PINNED_MILLION
    ]
    script = (
        "import sys\n"
        "from wavecorr.events import EventModelConfig, threshold_event_stream\n"
        f"for rates, seed in {cases!r}:\n"
        "    cfg = EventModelConfig('threshold_detector', 1.0, 0.25, 10**6, seed)\n"
        "    print(threshold_event_stream(rates, cfg).counts)\n"
    )
    src = os.path.dirname(os.path.dirname(threshold_event_stream.__code__.co_filename))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=" ".join(groups))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == [str(expected) for _, _, expected in PINNED_MILLION]


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
        assert abs(die.probs.get(key, 0.0) - thr.probs.get(key, 0.0)) <= 4.0 * max(sigma, 1e-12)


def test_sample_events_dispatches_on_model():
    dist = OutcomeDistribution({"+": 0.5, "-": 0.5})
    die = sample_events(dist, EventModelConfig(model=LOADED_DIE, sample_count=4000, seed=7))
    thr = sample_events(dist, tcfg(4000, seed=7))
    assert die.total == thr.total == 4000
    assert die != thr  # different mechanisms, same seed
    assert abs(die.counts.get("+", 0) / die.total - 0.5) < 0.05
    assert abs(thr.counts.get("+", 0) / thr.total - 0.5) < 0.05


# ------------------------------------------------------ empirical plumbing


def test_empirical_distribution_matches_hand_arithmetic():
    emp = empirical_distribution(EventCounts(counts={"+": 3, "-": 1}, total=4))
    assert emp.probs.get("+", 0.0) == 0.75
    assert emp.probs.get("-", 0.0) == 0.25
    assert emp.sample_count == 4


def test_uniform_sample_errors_near_formula():
    n = 1_000_000
    counts = loaded_die_sample(UNIFORM4, EventModelConfig(sample_count=n, seed=2))
    emp = empirical_distribution(counts)
    assert emp.sample_count == n
    # the binomial error sqrt(p (1 - p) / n) of each frequency is 4.33e-4
    for key in UNIFORM4.probs:
        assert abs(emp.probs.get(key, 0.0) - 0.25) < 4 * 4.33e-4


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
        assert abs(counts.counts.get(key, 0) / counts.total - r / total) <= 0.1
