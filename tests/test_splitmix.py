"""Counter-based streams: the in-place run draw against the array draw."""

import numpy as np
import pytest

from wavecorr.splitmix import (
    _RUN,
    counter_uniform,
    counter_uniform_run,
    keyed_substream,
    mix64,
)

TOP = 2**64


def run_draw(n, seed, first, buffers=None):
    size = min(n, _RUN)
    buffers = buffers or (np.empty(size, np.uint64), np.empty(size, np.uint64))
    return counter_uniform_run(np.empty(n), seed, first, buffers)


@pytest.mark.parametrize("n", [1, 7, _RUN - 1, _RUN, _RUN + 1, 3 * _RUN + 5])
@pytest.mark.parametrize("seed", [0, TOP - 1, 0x1234_5678_9ABC_DEF0])
@pytest.mark.parametrize("first", [0, 12_345, "wrap"])
def test_run_draw_matches_counter_array(n, seed, first):
    # "wrap" ends the run at counter 2^64 - 1, where counter + 1 wraps to 0
    first = TOP - n if first == "wrap" else first
    expected = counter_uniform(seed, np.arange(first, first + n, dtype=np.uint64))
    got = run_draw(n, seed, first)
    np.testing.assert_array_equal(got, expected)
    assert got.min() > 0.0 and got.max() <= 1.0


def test_run_draw_reuses_given_buffers_across_lengths():
    buffers = (np.empty(_RUN, np.uint64), np.empty(_RUN, np.uint64))
    for first, n in [(5, _RUN), (99, 3), (TOP - 40, 40), (0, 2 * _RUN + 1)]:
        expected = counter_uniform(77, np.arange(first, first + n, dtype=np.uint64))
        np.testing.assert_array_equal(run_draw(n, 77, first, buffers), expected)


def test_mix64_leaves_its_input_untouched():
    z = np.arange(10, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    before = z.copy()
    mixed = mix64(z)
    np.testing.assert_array_equal(z, before)
    assert not np.array_equal(mixed, before)


def test_counter_uniform_broadcasts_seed_arrays():
    seeds = np.array([3, 2**63 + 1], dtype=np.uint64)
    counter = np.arange(6, dtype=np.uint64)
    both = counter_uniform(seeds[:, None], counter)
    for row, seed in zip(both, seeds):
        np.testing.assert_array_equal(row, counter_uniform(int(seed), counter))


def test_keyed_substreams_are_pinned():
    # a scenario's noise seed for one circuit, the events seed of another, and
    # an ensemble provider's stream for an audited circuit: the values the CLI
    # and the audit suites drew from before they shared this helper
    assert keyed_substream(37, "noise|psi1|ZI*IZ*ZZ") == 10668374995722334559
    assert keyed_substream(5, "events|chsh|XI*IX") == 8292395291244354801
    assert keyed_substream(1, "psi1|ZX*XZ*YY") == 8508906500038447765
