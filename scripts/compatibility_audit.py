#!/usr/bin/env python3
"""Run the measurement compatibility suites and print the deviation table.

The suites check, sequence by sequence, that the realized measurements
behave like textbook compatible observables: joint statistics must not
depend on measurement order, repeating an observable must reproduce its
first answer, a compatible partner in between must not disturb it, and
each observable's marginal must not depend on which context it is read
in.  The worst deviation rate feeds the corrected noncontextuality bound.

With no noise every rate reads zero.  With a hardware
model the rates become the measured honesty budget of the apparatus.

    python3 scripts/compatibility_audit.py
    python3 scripts/compatibility_audit.py --jitter 0.012 --imbalance 0.008 \
        --leakage 0.001 --members 10
"""

import argparse
import sys

from wavecorr.contextuality import (
    AUDIT_SUITES,
    INEQUALITIES,
    PAIR_SUITE,
    TRIPLE_SUITE,
    compatibility_suite,
    corrected_bound,
    format_compatibility_report,
)
from wavecorr.network import NoiseModel, PropagationError, ensemble_provider

# fabrications per circuit: at this cap a noisy audit ran in 5.5-6.5 s at a
# ~182 MB peak on a 2-CPU host, and time and memory grow about linearly with
# the count
MAX_MEMBERS = 500


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--imbalance", type=float, default=0.0)
    ap.add_argument("--jitter", type=float, default=0.0)
    ap.add_argument("--leakage", type=float, default=0.0)
    ap.add_argument("--members", type=int, default=10, help="fabrications per circuit")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.members < 1:
        ap.error("--members must be at least 1")
    if args.members > MAX_MEMBERS:
        ap.error(f"--members must be at most {MAX_MEMBERS}")

    noise = None
    if args.imbalance or args.jitter or args.leakage:
        try:
            noise = NoiseModel(
                splitter_imbalance_sigma=args.imbalance,
                phase_jitter_sigma=args.jitter,
                leakage=args.leakage,
            )
        except ValueError as exc:
            ap.error(str(exc))
        print(f"hardware model: imbalance {args.imbalance:g}, jitter {args.jitter:g}, "
              f"leakage {args.leakage:g}, {args.members} fabrications per circuit")
    else:
        print("hardware model: none (exact propagation)")

    rates = {}
    for offset, suite in enumerate((PAIR_SUITE, TRIPLE_SUITE), 1):
        print(f"\n{suite.name}-observable suite "
              f"({len(suite.sequences)} sequences, {len(suite.states)} states):")
        try:
            report = compatibility_suite(
                suite, ensemble_provider(noise, args.seed + offset, args.members)
            )
        except PropagationError as exc:  # such as a noise width whose draw overflows
            sys.stderr.write(f"run failed: {exc}\n")
            return 3
        rates[suite] = report.worst_case
        print(format_compatibility_report(report), end="")

    print("\ncorrected bounds at these rates:")
    for defn in INEQUALITIES.values():
        rate = rates[AUDIT_SUITES[defn.name]]
        print(f"  {defn.name:12s}: noncontextual {defn.nc_bound:g} -> "
              f"{corrected_bound(defn.nc_bound, defn.algebraic_max, rate):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
