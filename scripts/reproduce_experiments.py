#!/usr/bin/env python3
"""Reproduce the three headline correlation experiments.

Evaluates the pair expression on the chsh state, the three-party
expression on the ghz state, and the nine-observable grid expression on
every stock two-mode-pair state, through a chosen pipeline:

    exact       closed-form sequential update of the wave state
    network     build the splitter mesh for every sequence and propagate
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
    correlator,
    evaluate_inequality,
    format_inequality_report,
    ideal_provider,
)
from wavecorr.events import EventModelConfig, empirical_distribution, sample_events
from wavecorr.network import build_sequence_tree, tree_distribution
from wavecorr.splitmix import substream
from wavecorr.wavecore import pauli_observable

IDEAL = ideal_provider()


def distribution(pipeline, state_name, labels, args, stream):
    if pipeline == "network":
        obs = [pauli_observable(l) for l in labels]
        return tree_distribution(build_sequence_tree(obs, prep=state_name))
    base = IDEAL(state_name, labels)
    if pipeline == "exact":
        return base
    cfg = EventModelConfig(
        model=args.model, sample_count=args.samples, seed=substream(args.seed, stream)
    )
    return empirical_distribution(sample_events(base, cfg))


def evaluate(defn, state_name, args):
    cors = []
    for k, labels in enumerate(defn.sequences):
        dist = distribution(args.pipeline, state_name, labels, args, stream=k)
        cors.append(correlator(dist, labels))
    return evaluate_inequality(defn, cors)


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
    print(f"pipeline: {args.pipeline}\n")

    report = evaluate(CHSH, "chsh", args)
    print("pair state:")
    print(format_inequality_report(report))

    report = evaluate(MERMIN, "ghz", args)
    print("ghz state:")
    print(format_inequality_report(report))

    print("grid expression, all stock preparations:")
    for name in PM_SUITE_STATES:
        report = evaluate(PERES_MERMIN, name, args)
        flag = "" if report.stderr else "  (exact)"
        print(f"  {name:6s}: {report.value:+.6f} +/- {report.stderr:.6f}{flag}")
    print(f"\nelapsed: {time.perf_counter() - t0:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
