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
per-port click streams, but it is computed without building that merge: the
time of the last recorded click is selected from the per-port streams, which
are sorted by construction, and each port's tally is read off against it.
Each port's energy thresholds are hashed from its counter stream block by
block straight into its click-time buffer, with two uint64 hash buffers
serving every block of one draw, and every float step that turns them into
click times runs in place there too.

Events are functions of intensities alone.  Nothing in this module sees an
amplitude or a phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from wavecorr.outcomes import OutcomeDistribution, empirical
from wavecorr.splitmix import counter_uniform_run, substream

THRESHOLD_DETECTOR = "threshold_detector"
LOADED_DIE = "loaded_die"
EVENT_MODELS = (THRESHOLD_DETECTOR, LOADED_DIE)

# Largest sample_count the threshold detector accepts.  It holds every click
# time of every port in memory, about 8 bytes per click plus a per-port
# margin, so 1e8 clicks already take ~0.8 GB; the loaded die has no such cost.
MAX_THRESHOLD_SAMPLES = 100_000_000

# Initial per-port click budget: expected share plus a wide margin.  The
# stream extends itself if a port runs dry before the global cutoff, and the
# counter-based draws make the result identical no matter how the budget is
# chunked, so these two knobs affect speed only.
_CHUNK_SIGMAS = 10.0
_CHUNK_FLOOR = 16
# thresholds drawn per hash pass: 512 KiB buffers, small enough for cache
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
        if not self.threshold > 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.threshold_spread < 0.0:
            raise ValueError(f"threshold_spread must be nonnegative, got {self.threshold_spread}")
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

    def frequency(self, outcome: str) -> float:
        return self.counts.get(outcome, 0) / self.total


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

    The merged stream is never built: the time of its last recorded click is
    selected directly from the per-port click times, which are sorted by
    construction.  Each port then contributes every click strictly before
    that cutoff, and clicks at the cutoff fill the remaining slots in
    ascending port order, which is the tally of the merge defined above.
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
    # every port's clicks in one buffer of about n entries: buffers per port
    # change size with the rates, and the allocator may serve each new size
    # from freshly mapped pages, paying their page faults again
    times = np.split(np.empty(int(budget.sum())), np.cumsum(budget)[:-1])
    # a port dimmer than the brightest by ~1e300 overflows to inf click
    # times, meaning it never fires in any finite window: the right limit
    with np.errstate(over="ignore"):
        energy = [
            _click_times(t, streams[k], 0, 0.0, lo, span, live_rates[k])
            for k, t in enumerate(times)
        ]
        while True:
            cutoff = _nth_smallest(times, n)
            # a port whose generated stream ends before the cutoff might
            # still owe clicks inside the window, so extend it and reselect
            short = [
                k
                for k in range(live.size)
                if times[k].size < n and float(times[k][-1]) < cutoff
            ]
            if not short:
                break
            for k in short:
                have = times[k].size
                grow = int(min(n - have, max(have, _CHUNK_FLOOR)))
                longer = np.empty(have + grow)
                longer[:have] = times[k]
                energy[k] = _click_times(
                    longer[have:], streams[k], have, energy[k], lo, span, live_rates[k]
                )
                times[k] = longer

    before = [int(np.searchsorted(t, cutoff, side="left")) for t in times]
    left = n - sum(before)
    fired = np.zeros(len(ports), dtype=np.int64)
    for k, t in enumerate(times):  # ties at the cutoff, ascending port order
        tied = min(int(np.searchsorted(t, cutoff, side="right")) - before[k], left)
        fired[live[k]] = before[k] + tied
        left -= tied
    return EventCounts(
        counts={ports[i]: int(fired[i]) for i in range(len(ports))}, total=n
    )


def _click_times(
    out: np.ndarray, stream: int, start: int, energy: float, lo: float, span: float, rate: float
) -> float:
    """Fill ``out`` with one port's click times from threshold ``start`` on.

    ``energy`` is the port's accumulated threshold energy before the first
    of these clicks; the energy after the last one is returned, so a later
    call continues the stream.  The thresholds are drawn _BLOCK at a time,
    straight into ``out``, by counter_uniform_run with two uint64 hash
    buffers allocated once per call and kept in cache; every later step runs
    in place on the block.  The running sum is carried from block to block,
    which reproduces one cumsum over the whole stream bit for bit.
    """
    size = min(out.size, _BLOCK)
    buffers = (np.empty(size, np.uint64), np.empty(size, np.uint64))
    for b in range(0, out.size, _BLOCK):
        seg = out[b : b + _BLOCK]
        counter_uniform_run(seg, stream, start + b, buffers)
        seg *= span
        seg += lo
        seg[0] += energy
        np.cumsum(seg, out=seg)
        energy = float(seg[-1])
        seg /= rate
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
    """Click frequencies with per-outcome binomial standard errors."""
    return empirical(dict(counts.counts))
