"""Discrete detection events from continuous port intensities.

Two classical detection schemes turn per-port intensities into a stream of
single-port events.  The threshold detector integrates each port's intensity
until a randomly drawn energy threshold is crossed, then resets and draws a
fresh threshold; the loaded die simply samples outcomes from the normalized
intensity distribution.  Both estimate the same limiting distribution and
differ only in finite-sample statistics, which is the point: correlation
experiments built on either produce the same correlators up to 1/sqrt(N)
noise.

The threshold detector's result is defined by the time-ordered merge of the
per-port click streams, but it is computed without that merge, in memory
that does not grow with the number of clicks.  Thresholds are whole energy
quanta hashed from counter streams, so running energies are exact integers:
most clicks are summed from hashed words, and click times are computed only
in a window around each port's expected share, sized in the count's own
standard deviations, one bounded block per port at a time.  The cutoff is
then selected from the held click times by one partition.

Events are functions of intensities alone.  Nothing in this module sees an
amplitude or a phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from wavecorr.outcomes import OutcomeDistribution
from wavecorr.splitmix import counter_words, substream

THRESHOLD_DETECTOR = "threshold_detector"
LOADED_DIE = "loaded_die"
EVENT_MODELS = (THRESHOLD_DETECTOR, LOADED_DIE)

# Largest sample_count the threshold detector accepts.  Its memory is one block
# per live port whatever the count, but its time is not: ~2 ns per click, almost
# all of it hashing, so 1e8 clicks take ~0.2 s per sequence; the loaded die has
# no such cost.
MAX_THRESHOLD_SAMPLES = 100_000_000

# The margin around each port's share, in its count's standard deviations plus
# a floor of clicks (see threshold_event_stream).  The result does not depend
# on the chunking, so these two knobs affect speed only.
_CHUNK_SIGMAS = 10.0
_CHUNK_FLOOR = 16
# click times a port holds at once: 512 KiB blocks, small enough for cache
_BLOCK = 1 << 16


@dataclass(frozen=True)
class EventModelConfig:
    """Parameters of one detection run.

    ``threshold`` and ``threshold_spread`` matter only to the threshold
    detector: each click consumes an energy drawn uniformly from the 2^32
    cell midpoints of [threshold - threshold_spread, threshold +
    threshold_spread], redrawn after every click (see threshold_event_stream).
    The spread must stay below the threshold so drawn energies remain
    positive.  A zero spread is a degenerate configuration in which
    equal-rate ports click simultaneously; simultaneous clicks are recorded
    in ascending port order.
    """

    model: str = LOADED_DIE
    threshold: float = 1.0
    threshold_spread: float = 0.25
    sample_count: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in EVENT_MODELS:
            raise ValueError(f"unknown event model {self.model!r}; expected one of {EVENT_MODELS}")
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be at least 1, got {self.sample_count}")
        if self.sample_count > np.iinfo(np.int64).max:  # clicks are counted in int64
            raise ValueError(f"sample_count {self.sample_count} exceeds the int64 limit 2^63 - 1")
        if not 0.0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if not 0.0 <= self.threshold_spread < math.inf:
            raise ValueError(
                f"threshold_spread must be finite and nonnegative, got {self.threshold_spread}"
            )
        if self.model == THRESHOLD_DETECTOR and self.threshold_spread >= self.threshold:
            raise ValueError(
                f"threshold_spread {self.threshold_spread} must stay below threshold {self.threshold}"
            )
        if self.model == THRESHOLD_DETECTOR and self.sample_count > MAX_THRESHOLD_SAMPLES:
            raise ValueError(
                f"sample_count {self.sample_count} exceeds the threshold detector's"
                f" limit of {MAX_THRESHOLD_SAMPLES}"
            )


@dataclass(frozen=True)
class EventCounts:
    """Per-outcome click tallies from one or more detection runs."""

    counts: Mapping[str, int]
    total: int

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("no outcomes tallied")
        running = 0
        for key, c in self.counts.items():
            if not isinstance(c, (int, np.integer)) or isinstance(c, bool):
                raise ValueError(f"count for {key!r} must be an integer, got {c!r}")
            if c < 0:
                raise ValueError(f"negative count {c} for outcome {key!r}")
            running += int(c)
        if running != self.total:
            raise ValueError(f"counts sum to {running}, not the declared total {self.total}")
        if self.total < 1:
            raise ValueError("at least one event is required")


def loaded_die_sample(dist: OutcomeDistribution, config: EventModelConfig) -> EventCounts:
    """Tallies of ``sample_count`` independent draws from ``dist``.

    The joint tally of N categorical draws is multinomial, so it is sampled
    in one shot rather than draw by draw.
    """
    keys = list(dist.probs)
    p = np.clip(np.array([dist.probs[k] for k in keys], dtype=float), 0.0, None)
    p /= p.sum()
    rng = np.random.default_rng(config.seed)
    tally = rng.multinomial(config.sample_count, p)
    return EventCounts(
        counts={k: int(c) for k, c in zip(keys, tally)},
        total=config.sample_count,
    )


def threshold_event_stream(
    intensities: Mapping[str, float], config: EventModelConfig
) -> EventCounts:
    """First ``sample_count`` clicks of per-port threshold detectors.

    Port j accumulates energy at rate I_j and clicks when the running total
    crosses its current threshold; the accumulator then resets and a new
    threshold is drawn.  The recorded stream is the time-ordered merge of all
    ports, truncated after n = ``sample_count`` clicks, simultaneous clicks in
    ascending port order.  Long-run click fractions approach I_j / sum(I).

    Word w of port j's stream s = substream(seed, j) is mix64(s + (w + 1)
    GOLDEN); click i spends lo + q (2 v_i + 1) thresholds, with r = spread /
    threshold, lo = 1 - r, q = 2 r 2^-33 and v_i the low (even i) or high
    (odd i) half of word i // 2.  Click m >= 1 comes at (m lo + q E_m) /
    rate_j, E_m the exact sum of 2 v_i + 1 over i < m and rates divided by
    the largest: integer sums and once-rounded float steps, so the counts are
    the same on every host and depend on the threshold only through r.

    The merge is never built.  A click spends a uniform energy, so a port's
    count has coefficient of variation cv = r / sqrt 3, and the margin is
    _CHUNK_SIGMAS cv sqrt(share + 1) + _CHUNK_FLOOR clicks.  Each
    live port skips its expected share less the margin, rounded down to even,
    summing those clicks' energy from whole words.  Then the port whose latest
    click is earliest draws a block of at most _BLOCK click times, until n
    clicks lie at or before the horizon, the earliest latest click.  The
    cutoff, the n-th click's time, lies at or before the horizon, so it is
    selected by one partition of the held blocks' prefixes up to it; ties at
    it fill the last slots in port order.  Undrawn clicks can only lower a
    count and skipped clicks after x can only raise the count at x, so a
    retired block, whose horizon held fewer than n clicks, precedes the
    cutoff, and if every last skipped click precedes the cutoff, the cutoff
    and tallies are the merge's.  Otherwise the draw is redone with no skip.
    With one live port the merge is that port's stream, so it takes all n
    clicks and no threshold is drawn.
    """
    ports = list(intensities)
    if not ports:
        raise ValueError("no ports given")
    rates = np.array([float(intensities[k]) for k in ports])
    if not np.all(np.isfinite(rates)) or np.any(rates < 0.0):
        raise ValueError("port intensities must be finite and nonnegative")
    if not np.any(rates > 0.0):
        raise ValueError("every port intensity vanishes; no detector can fire")
    if config.threshold_spread >= config.threshold:
        raise ValueError(
            f"threshold_spread {config.threshold_spread} must stay below"
            f" threshold {config.threshold}"
        )

    n = config.sample_count
    # in units of the threshold, which like the overall intensity sets only a
    # time scale: click times stay finite and q nonzero at any finite threshold
    ratio = config.threshold_spread / config.threshold
    lo, q = 1.0 - ratio, 2.0 * ratio * 2.0**-33
    # only relative rates matter for the merge order, and normalizing by the
    # brightest port keeps the click-time arithmetic in a sane float range
    rates = rates / rates.max()
    live = np.flatnonzero(rates > 0.0)
    if live.size == 1:  # the merge is that port's stream alone: it takes every click
        return EventCounts({p: n if i == live[0] else 0 for i, p in enumerate(ports)}, n)
    live_rates = rates[live]
    share = n * (live_rates / live_rates.sum())
    cv = ratio / math.sqrt(3.0)
    margin = _CHUNK_SIGMAS * cv * np.sqrt(share + 1.0) + _CHUNK_FLOOR
    budget = np.minimum(n, np.ceil(share + margin)).astype(np.int64)
    skips = 2 * np.maximum(0.0, (share - margin) // 2).astype(np.int64)
    streams = [substream(config.seed, int(j)) for j in live]
    width = min(_BLOCK, n)
    times = np.empty((live.size, width))
    words = (np.empty(width // 2 + 1, np.uint64), np.empty(width // 2 + 1, np.uint64))
    buffers = (*words, np.empty(width + 2, np.int64), np.arange(1.0, width + 1.0))
    # a port dimmer than the brightest by ~1e300 overflows to inf click
    # times, meaning it never fires in any finite window: the right limit
    with np.errstate(over="ignore"):
        for skip in (skips, 0 * skips):  # without skipping only if the check fails
            drawn = skip.tolist()
            energy = [_energy(s, 0, c // 2, words) for s, c in zip(streams, drawn)]
            first = (skip * lo + q * np.array(energy, dtype=float)) / live_rates
            first[skip == 0] = -np.inf
            latest, retired = first.copy(), sum(drawn)
            blocks = [times[k, :0] for k in range(live.size)]
            while True:
                horizon = latest.min()
                held = [b[: np.searchsorted(b, horizon, side="right")] for b in blocks]
                if retired + sum(h.size for h in held) >= n:
                    break
                k = int(latest.argmin())
                retired += blocks[k].size
                limit = int(budget[k]) if drawn[k] < budget[k] else n
                blocks[k] = times[k, : min(width, limit - drawn[k])]
                energy[k] = _click_times(
                    blocks[k], buffers, streams[k], drawn[k], energy[k], (lo, q, live_rates[k])
                )
                drawn[k] += blocks[k].size
                latest[k] = blocks[k][-1]
            cutoff = _nth_smallest(held, n - retired)
            if np.all(first < cutoff):  # every skipped click precedes the cutoff
                break

    before = [int(np.searchsorted(b, cutoff, side="left")) for b in blocks]
    left = n - retired - sum(before)
    fired = np.zeros(len(ports), dtype=np.int64)
    for k, b in enumerate(blocks):  # ties at the cutoff, ascending port order
        tied = min(int(np.searchsorted(b, cutoff, side="right")) - before[k], left)
        fired[live[k]] = drawn[k] - b.size + before[k] + tied
        left -= tied
    return EventCounts(counts=dict(zip(ports, fired.tolist())), total=n)


def _energy(stream: int, start: int, stop: int, words: tuple[np.ndarray, np.ndarray]) -> int:
    """Exact energy, in quanta, of the clicks paid by words [start, stop).

    A word pays 2 v + 1 quanta for each 32-bit half v.  Per chunk, the words'
    sum modulo 2^64 and their high halves' sum (below 2^48) give both halves'.
    """
    total = high = 0
    for first in range(start, stop, words[0].size):
        w = counter_words(words[0][: stop - first], stream, first, words[1])
        total += int(w.sum())
        high += int(np.right_shift(w, np.uint64(32), out=words[1][: w.size]).sum())
    return 2 * ((total - (high << 32)) % 2**64 + high) + 2 * (stop - start)


def _click_times(
    out: np.ndarray, buffers: tuple, stream: int, start: int, energy: int, scale: tuple
) -> int:
    """Fill ``out`` with one port's click times from click ``start`` on.

    ``energy`` is the energy in quanta before that click; the one after the
    block is returned.  ``scale`` is (lo, q, rate).
    """
    (words, scratch, ints, ones), (lo, q, rate) = buffers, scale
    w = counter_words(words[: (start % 2 + out.size + 1) // 2], stream, start // 2, scratch)
    np.bitwise_and(w, np.uint64(0xFFFFFFFF), out=ints.view(np.uint64)[0 : 2 * w.size : 2])
    np.right_shift(w, np.uint64(32), out=ints.view(np.uint64)[1 : 2 * w.size : 2])
    spent = ints[start % 2 : start % 2 + out.size]
    spent <<= 1
    spent += 1
    spent[0] += energy
    np.cumsum(spent, out=spent)
    np.multiply(spent, q, out=out)
    energy = int(spent[-1])
    clicks = np.add(ones[: out.size], start, out=ints.view(np.float64)[: out.size])
    clicks *= lo
    out += clicks
    if rate != 1.0:  # the brightest port's rate; x / 1.0 == x bit for bit
        out /= rate
    return energy


def _nth_smallest(times: list[np.ndarray], n: int) -> float:
    """The n-th smallest value over arrays of click times, by one partition.

    That is the smallest value with at least n entries at or below it.
    """
    held = np.concatenate(times)
    held.partition(n - 1)
    return float(held[n - 1])


def sample_events(dist: OutcomeDistribution, config: EventModelConfig) -> EventCounts:
    """Run whichever detection model the config names on a distribution.

    The threshold detector integrates the probabilities as port
    intensities: it scales them by the brightest port anyway, so any
    overall intensity would set only a time scale.
    """
    if config.model == THRESHOLD_DETECTOR:
        return threshold_event_stream(dict(dist.probs), config)
    return loaded_die_sample(dist, config)


def empirical_distribution(counts: EventCounts) -> OutcomeDistribution:
    """Click frequencies, with the click total as the sample count."""
    return OutcomeDistribution(
        probs={key: c / counts.total for key, c in counts.counts.items()},
        sample_count=counts.total,
    )
