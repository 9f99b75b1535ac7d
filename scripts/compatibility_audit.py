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
    CHSH,
    MERMIN,
    MERMIN_SUITE_STATES,
    PERES_MERMIN,
    PM_SUITE_STATES,
    compatibility_suite,
    corrected_bound,
    format_compatibility_report,
    mermin_suite_groups,
    pm_suite_groups,
)
from wavecorr.network import NoiseModel, ensemble_provider


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

    print("\npair-observable suite "
          f"({len(pm_suite_groups().all_sequences())} sequences, "
          f"{len(PM_SUITE_STATES)} states):")
    pair = compatibility_suite(
        PM_SUITE_STATES, pm_suite_groups(), ensemble_provider(noise, args.seed + 1, args.members)
    )
    print(format_compatibility_report(pair))

    print("triple-observable suite "
          f"({len(mermin_suite_groups().all_sequences())} sequences, "
          f"{len(MERMIN_SUITE_STATES)} states):")
    triple = compatibility_suite(
        MERMIN_SUITE_STATES, mermin_suite_groups(),
        ensemble_provider(noise, args.seed + 2, args.members),
    )
    print(format_compatibility_report(triple))

    print("corrected bounds at these rates:")
    for defn, rate in ((CHSH, pair.worst_case), (MERMIN, triple.worst_case),
                       (PERES_MERMIN, pair.worst_case)):
        print(f"  {defn.name:12s}: noncontextual {defn.nc_bound:g} -> "
              f"{corrected_bound(defn.nc_bound, defn.algebraic_max, rate):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
