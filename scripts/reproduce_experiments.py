#!/usr/bin/env python3
"""Reproduce the three headline correlation experiments.

Evaluates the pair expression on the chsh state, the three-party
expression on the ghz state, and the nine-observable grid expression on
every stock two-mode-pair state, through a chosen pipeline:

    exact       closed-form sequential update of the wave state
    network     build each preparation and measurement stage and propagate
    events N    draw N classical events per sequence and estimate

All three should agree, the first two to rounding error, the third to a
few standard errors.

    python3 scripts/reproduce_experiments.py
    python3 scripts/reproduce_experiments.py --pipeline network
    python3 scripts/reproduce_experiments.py --pipeline events --samples 1000000
"""

import argparse
import sys
import time

from wavecorr.contextuality import (
    CHSH,
    MERMIN,
    PERES_MERMIN,
    PM_SUITE_STATES,
    format_inequality_report,
    ideal_provider,
    measure_inequality,
)
from wavecorr.events import EventModelConfig, empirical_distribution, sample_events
from wavecorr.network import circuit_distributions
from wavecorr.splitmix import substream

IDEAL = ideal_provider()


def make_provider(args):
    """Distribution source of the chosen pipeline, one member per request.

    The events pipeline samples request k, the k-th term of an inequality,
    with seed substream(args.seed, k).
    """
    if args.pipeline == "exact":
        return IDEAL
    if args.pipeline == "network":
        return lambda requests: circuit_distributions(
            [(state_name, labels, None) for state_name, labels in requests]
        )

    def sampled(requests):
        configs = [
            EventModelConfig(
                model=args.model, sample_count=args.samples, seed=substream(args.seed, k)
            )
            for k in range(len(requests))
        ]
        return [
            [empirical_distribution(sample_events(base, cfg)) for base in members]
            for members, cfg in zip(IDEAL(requests), configs)
        ]

    return sampled


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pipeline", choices=("exact", "network", "events"), default="exact")
    ap.add_argument("--samples", type=int, default=200_000, help="events per sequence")
    ap.add_argument("--model", choices=("loaded_die", "threshold_detector"),
                    default="loaded_die")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pipeline == "events":
        try:
            EventModelConfig(model=args.model, sample_count=args.samples)
        except ValueError as exc:
            ap.error(str(exc))

    t0 = time.perf_counter()
    provider = make_provider(args)
    print(f"pipeline: {args.pipeline}\n")

    (report,) = measure_inequality(CHSH, provider, "chsh")
    print("pair state:")
    print(format_inequality_report(report))

    (report,) = measure_inequality(MERMIN, provider, "ghz")
    print("ghz state:")
    print(format_inequality_report(report))

    print("grid expression, all stock preparations:")
    for name in PM_SUITE_STATES:
        (report,) = measure_inequality(PERES_MERMIN, provider, name)
        flag = "" if report.stderr else "  (exact)"
        print(f"  {name:6s}: {report.value:+.6f} +/- {report.stderr:.6f}{flag}")
    print(f"\nelapsed: {time.perf_counter() - t0:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
