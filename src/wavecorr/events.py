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
per-port click streams, but it is computed without building that merge, and
in memory that does not grow with the number of clicks: each live port holds
one block of its latest click times, the stream is extended block by block
until the recorded clicks are settled, and the time of the last recorded
click is selected from the held blocks, which are sorted by construction.
Each port's tally is its retired clicks plus those of its held block read off
against that time.  Each port's energy thresholds are hashed from its
counter stream straight into its block, with two uint64 hash buffers serving
every block of one draw, and every float step that turns them into click
times runs in place there too.

Events are functions of intensities alone.  Nothing in this module sees an
amplitude or a phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from wavecorr.outcomes import OutcomeDistribution
from wavecorr.splitmix import counter_uniform_run, substream

THRESHOLD_DETECTOR = "threshold_detector"
LOADED_DIE = "loaded_die"
EVENT_MODELS = (THRESHOLD_DETECTOR, LOADED_DIE)

# Largest sample_count the threshold detector accepts.  Its memory is one
# block per live port whatever the count, but its time is not: it hashes one
# threshold per click, 10-15 ns each, so 1e8 clicks already take over a
# second per sequence; the loaded die has no such cost.
MAX_THRESHOLD_SAMPLES = 100_000_000

# Per-port click budget drawn before whole blocks: expected share plus a wide
# margin, so a dim port draws about what it needs rather than a whole block.
# A port that runs dry before the cutoff goes on a block at a time, and the
# counter-based draws make the result identical no matter how the stream is
# chunked, so these two knobs affect speed only.
_CHUNK_SIGMAS = 10.0
_CHUNK_FLOOR = 16
# click times a port holds at once: 512 KiB blocks, small enough for cache
_BLOCK = 1 << 16


@dataclass(frozen=True)
class EventModelConfig:
    """Parameters of one detection run.

    ``threshold`` and ``threshold_spread`` matter only to the threshold
    detector: each click consumes an energy drawn uniformly from
    [threshold - threshold_spread, threshold + threshold_spread], redrawn
    after every click.  The spread must stay below the threshold so drawn
    energies remain positive.  A zero spread is a degenerate configuration
    in which equal-rate ports click simultaneously; simultaneous clicks are
    recorded in ascending port order.
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
    threshold is drawn.  Each port is therefore a renewal process with click
    times cumsum(thresholds)/I_j, and the recorded stream is the time-ordered
    merge of all ports, truncated after ``sample_count`` clicks.  Simultaneous
    clicks (possible only with zero spread) are recorded in ascending port
    order.  Long-run click fractions approach I_j / sum(I).

    The merged stream is never built, and no port keeps more than its
    latest block of at most _BLOCK click times.  The port whose latest
    click is earliest is extended, first up to a budget near its expected
    share and then a block at a time, until at least n clicks lie at or
    before the horizon, the earliest of the ports' latest clicks.  Every
    click retired with an earlier block precedes the n-th click, so the time
    of the last recorded click is selected from the held blocks, which are
    sorted by construction.  Each port then contributes its retired clicks
    and every held click strictly before that cutoff, and clicks at the
    cutoff fill the remaining slots in ascending port order, which is the
    tally of the merge defined above.  With one live port the merge is that
    port's stream, so it takes all n clicks and no threshold is drawn.
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
    lo = config.threshold - config.threshold_spread
    span = 2.0 * config.threshold_spread
    # only relative rates matter for the merge order, and normalizing by the
    # brightest port keeps the click-time arithmetic in a sane float range
    rates = rates / rates.max()
    live = np.flatnonzero(rates > 0.0)
    if live.size == 1:  # the merge is that port's stream alone: it takes every click
        fired = dict.fromkeys(ports, 0)
        fired[ports[live[0]]] = n
        return EventCounts(counts=fired, total=n)
    live_rates = rates[live]
    frac = live_rates / live_rates.sum()
    streams = [substream(config.seed, int(j)) for j in live]

    budget = np.minimum(
        n, np.ceil(n * frac + _CHUNK_SIGMAS * np.sqrt(n * frac + 1.0) + _CHUNK_FLOOR)
    ).astype(np.int64)
    # each port holds only its latest block of click times; the blocks before
    # it are retired, leaving their click count behind
    width = min(_BLOCK, n)
    buffers = np.empty((live.size, width))
    hashes = (np.empty(width, np.uint64), np.empty(width, np.uint64))
    blocks = [buffers[k, :0] for k in range(live.size)]
    drawn = [0] * live.size
    energy = [0.0] * live.size
    latest = np.full(live.size, -np.inf)
    retired = 0
    # a port dimmer than the brightest by ~1e300 overflows to inf click
    # times, meaning it never fires in any finite window: the right limit
    with np.errstate(over="ignore"):
        while True:
            # every click at or before the horizon is drawn: undrawn clicks
            # of a port come after its latest one
            horizon = latest.min()
            held = sum(int(np.searchsorted(b, horizon, side="right")) for b in blocks)
            if retired + held >= n:
                break
            # extend the port that sets the horizon; its block ends there, so
            # every retired click lies at or before a horizon that held fewer
            # than n clicks, hence strictly before the n-th click
            k = int(latest.argmin())
            retired += blocks[k].size
            limit = int(budget[k]) if drawn[k] < budget[k] else n
            block = buffers[k, : min(width, limit - drawn[k])]
            energy[k] = _click_times(
                block, hashes, streams[k], drawn[k], energy[k], lo, span, live_rates[k]
            )
            blocks[k] = block
            drawn[k] += block.size
            latest[k] = block[-1]

    cutoff = _nth_smallest(blocks, n - retired)
    before = [int(np.searchsorted(b, cutoff, side="left")) for b in blocks]
    left = n - retired - sum(before)
    fired = np.zeros(len(ports), dtype=np.int64)
    for k, b in enumerate(blocks):  # ties at the cutoff, ascending port order
        tied = min(int(np.searchsorted(b, cutoff, side="right")) - before[k], left)
        fired[live[k]] = drawn[k] - b.size + before[k] + tied
        left -= tied
    return EventCounts(
        counts={ports[i]: int(fired[i]) for i in range(len(ports))}, total=n
    )


def _click_times(
    out: np.ndarray,
    hashes: tuple[np.ndarray, np.ndarray],
    stream: int,
    start: int,
    energy: float,
    lo: float,
    span: float,
    rate: float,
) -> float:
    """Fill ``out`` with one port's click times from threshold ``start`` on.

    ``energy`` is the port's accumulated threshold energy before the first
    of these clicks; the energy after the last one is returned, so a later
    call continues the stream.  The thresholds are drawn straight into
    ``out`` by counter_uniform_run, with ``hashes`` as its two uint64 hash
    buffers; every later step runs in place.  The running sum is carried
    from call to call, which reproduces one cumsum over the whole stream bit
    for bit.
    """
    counter_uniform_run(out, stream, start, hashes)
    out *= span
    out += lo
    out[0] += energy
    np.cumsum(out, out=out)
    energy = float(out[-1])
    if rate != 1.0:  # the brightest port's rate; x / 1.0 == x bit for bit
        out /= rate
    return energy


def _nth_smallest(times: list[np.ndarray], n: int) -> float:
    """The n-th smallest value over sorted arrays of positive click times.

    Nonnegative float64 values order like their int64 bit patterns, so the
    value is found by bisecting on bit patterns, counting the entries at or
    below each probe with one searchsorted per array: at most 63 rounds.
    """
    below = int(np.float64(min(float(t[0]) for t in times)).view(np.int64)) - 1
    above = int(np.float64(max(float(t[-1]) for t in times)).view(np.int64))
    # invariant: fewer than n entries <= below, at least n entries <= above
    while above - below > 1:
        mid = (below + above) // 2
        probe = np.int64(mid).view(np.float64)
        if sum(int(np.searchsorted(t, probe, side="right")) for t in times) >= n:
            above = mid
        else:
            below = mid
    return float(np.int64(above).view(np.float64))


def sample_events(dist: OutcomeDistribution, config: EventModelConfig) -> EventCounts:
    """Run whichever detection model the config names on a distribution.

    The threshold detector consumes raw port intensities when the
    distribution carries them, otherwise the normalized probabilities (the
    two differ only by an irrelevant time scale).
    """
    if config.model == THRESHOLD_DETECTOR:
        weights = dist.intensities if dist.intensities is not None else dist.probs
        return threshold_event_stream(dict(weights), config)
    return loaded_die_sample(dist, config)


def empirical_distribution(counts: EventCounts) -> OutcomeDistribution:
    """Click frequencies, with the click total as the sample count."""
    return OutcomeDistribution(
        probs={key: c / counts.total for key, c in counts.counts.items()},
        sample_count=counts.total,
    )
