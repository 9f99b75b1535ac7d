#!/usr/bin/env python3
"""Fabrication-noise study for the three correlation experiments.

Propagates an ensemble of independently perturbed fabrications of each
experiment's circuits (one fabrication draw per seed per circuit) and
reports the mean and spread of each inequality value.  The preparation and
each Pauli word's measurement stage are built once per experiment, and all
fabrications go through them together.  Optionally runs the compatibility
suites on the same hardware model to estimate the deviation rate and the
corrected bound it implies.

Typical use:

    python3 scripts/noise_study.py --seeds 100 \
        --imbalance 0.02 --jitter 0.03 --leakage 0.002 --audit

    python3 scripts/noise_study.py --seeds 40 --sweep jitter \
        --values 0 0.02 0.05 0.1 0.2
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from wavecorr.contextuality import (
    AUDIT_SUITES,
    CHSH,
    MERMIN,
    PAIR_SUITE,
    PERES_MERMIN,
    TRIPLE_SUITE,
    compatibility_suite,
    corrected_bound,
    measure_inequality,
)
from wavecorr.network import NoiseModel, PropagationError, ensemble_provider

EXPERIMENTS = (
    (CHSH, "chsh"),
    (MERMIN, "ghz"),
    (PERES_MERMIN, "psi1"),
)

# fabrication seeds per point: criterion 10 uses 100; at this cap one --audit
# point (whose suites take seeds // 10 members) ran in ~5 s at a ~195 MB peak
# on a 2-CPU host, and time and memory grow about linearly with the count
MAX_SEEDS = 5_000


def run_point(noise, args, label=""):
    print(f"noise{label}: imbalance {noise.splitter_imbalance_sigma:g}, "
          f"jitter {noise.phase_jitter_sigma:g}, leakage {noise.leakage:g}, "
          f"{args.seeds} fabrication seeds")
    means = {}
    fabrications = ensemble_provider(noise, args.seed, args.seeds)
    for defn, state_name in EXPERIMENTS:
        reports = measure_inequality(defn, fabrications, state_name)
        vals = np.array([report.value for report in reports])
        means[defn.name] = vals.mean()
        print(f"  {defn.name:12s} on {state_name:5s}: mean {vals.mean():.4f} "
              f"std {vals.std(ddof=1):.4f}  sem {vals.std(ddof=1)/np.sqrt(len(vals)):.4f}  "
              f"range [{vals.min():.4f}, {vals.max():.4f}]")
    if not args.audit:
        return

    members = max(4, args.seeds // 10)
    rates = {}
    for offset, suite in enumerate((PAIR_SUITE, TRIPLE_SUITE), 1):
        report = compatibility_suite(suite, ensemble_provider(noise, args.seed + offset, members))
        rates[suite] = report.worst_case
        print(f"  {suite.name + ' suite':12s} : worst {report.worst_case:.4f} "
              f"({report.worst_description})")
    for defn, _ in EXPERIMENTS:
        rate = rates[AUDIT_SUITES[defn.name]]
        corr = corrected_bound(defn.nc_bound, defn.algebraic_max, rate)
        ok = "below" if corr < means[defn.name] else "NOT below"
        print(f"  corrected {defn.name:12s}: {corr:.4f} ({ok} the mean {means[defn.name]:.4f})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40, help="fabrication draws per point")
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--imbalance", type=float, default=0.0, help="coupling error sigma")
    ap.add_argument("--jitter", type=float, default=0.0, help="phase error sigma, radians")
    ap.add_argument("--leakage", type=float, default=0.0, help="uniform loss fraction")
    ap.add_argument("--audit", action="store_true",
                    help="also run the compatibility suites and corrected bounds")
    ap.add_argument("--sweep", choices=("imbalance", "jitter", "leakage"),
                    help="vary one parameter over --values instead of a single point")
    ap.add_argument("--values", type=float, nargs="+", default=None)
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("--seeds must be at least 2: the spread needs two fabrications")
    if args.seeds > MAX_SEEDS:
        ap.error(f"--seeds must be at most {MAX_SEEDS}")

    if args.sweep and not args.values:
        ap.error("--sweep needs --values")
    if args.values and not args.sweep:
        ap.error("--values needs --sweep")
    # every point is validated before the first one runs
    try:
        base = NoiseModel(
            splitter_imbalance_sigma=args.imbalance,
            phase_jitter_sigma=args.jitter,
            leakage=args.leakage,
        )
        if args.sweep:
            field = {
                "imbalance": "splitter_imbalance_sigma",
                "jitter": "phase_jitter_sigma",
                "leakage": "leakage",
            }[args.sweep]
            points = [
                (replace(base, **{field: v}), f" [{args.sweep}={v:g}]") for v in args.values
            ]
        else:
            points = [(base, "")]
    except ValueError as exc:
        ap.error(str(exc))
    try:
        for noise, label in points:
            run_point(noise, args, label=label)
    except PropagationError as exc:  # such as a noise width whose draw overflows
        sys.stderr.write(f"run failed: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
