"""The law gate: noisy circuits against the per-element reference propagation.

A change to how noise is drawn or applied may move every noisy bit, so bit
pins cannot tell a faithful change from a wrong one.  This gate compares the
library's leaf distributions with those of oracles.propagate_per_element,
which draws one error per element, over disjoint member seeds: each leaf
probability's mean and variance and each circuit's correlator must agree
within a two-sample z-bound.
"""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

import wavecorr.network as network
from oracles import propagate_per_element
from wavecorr.network import NoiseModel, circuit_distributions
from wavecorr.outcomes import outcome_signs
from wavecorr.splitmix import substream

LAW_CIRCUITS = {
    "chsh ZI*IX": ("chsh", ("ZI", "IX")),
    "psi1 ZX*XZ*YY": ("psi1", ("ZX", "XZ", "YY")),
    "ghz XII*IXI*IIX": ("ghz", ("XII", "IXI", "IIX")),
}
LAW_NOISE = {
    "imbalance": NoiseModel(splitter_imbalance_sigma=0.02),
    "jitter": NoiseModel(phase_jitter_sigma=0.03),
    "both": NoiseModel(splitter_imbalance_sigma=0.02, phase_jitter_sigma=0.03),
}
LAW_MEMBERS = 2000
# disjoint member seeds for the two sides, fixed before the gate first ran
LIBRARY_SEEDS = [substream(0x1A11, m) for m in range(LAW_MEMBERS)]
ORACLE_SEEDS = [substream(0x0AC1, m) for m in range(LAW_MEMBERS)]
# the largest |z| the gate accepts; see the calibration note below
Z_BOUND = 5.0


def member_samples(dists):
    """Shape (members, outcomes + 1): each outcome's probability, then the correlator.

    The correlator is the product of every measurement's sign, the term an
    inequality reads.
    """
    outcomes = list(dists[0].probs)
    signs = np.array([np.prod(outcome_signs(o)) for o in outcomes])
    probs = np.array([[d.probs[o] for o in outcomes] for d in dists])
    return np.column_stack([probs, probs @ signs])


def z_scores(a, b):
    """Two-sample z of each column's mean, then of each column's variance."""
    n, m = len(a), len(b)
    da, db = (a - a.mean(axis=0)) ** 2, (b - b.mean(axis=0)) ** 2
    diff = np.concatenate([a.mean(axis=0) - b.mean(axis=0), da.mean(axis=0) - db.mean(axis=0)])
    se = np.sqrt(np.concatenate([
        a.var(axis=0, ddof=1) / n + b.var(axis=0, ddof=1) / m,
        da.var(axis=0, ddof=1) / n + db.var(axis=0, ddof=1) / m,
    ]))
    # a column that no draw moves must agree exactly
    return np.divide(diff, se, out=np.where(diff == 0.0, 0.0, np.inf), where=se > 0.0)


def distributions(circuit, noise, seeds):
    prep, labels = LAW_CIRCUITS[circuit]
    [dists] = circuit_distributions([(prep, labels, seeds)], noise)
    return dists


@cache
def oracle_samples(circuit, noise_name, seeds=tuple(ORACLE_SEEDS)):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "propagate", propagate_per_element)
        return member_samples(distributions(circuit, LAW_NOISE[noise_name], list(seeds)))


def law_z(circuit, noise_name, noise=None):
    """The largest |z| of the library, under ``noise`` if given, against the oracle."""
    library = member_samples(distributions(circuit, noise or LAW_NOISE[noise_name], LIBRARY_SEEDS))
    return float(np.max(np.abs(z_scores(library, oracle_samples(circuit, noise_name)))))


# Calibration, the null: the oracle against itself, ORACLE_SEEDS against
# substream(s, m) for s = 1 ... 20.  Over those 20 seed sets the largest
# |z| of all nine cases had median 2.4 and maximum 3.52 (18 z per case, 162
# per set), so Z_BOUND = 5 leaves a margin that no null set came near.
@pytest.mark.parametrize("noise_name", list(LAW_NOISE))
@pytest.mark.parametrize("circuit", list(LAW_CIRCUITS))
def test_noisy_circuits_follow_the_per_element_law(circuit, noise_name):
    assert law_z(circuit, noise_name) <= Z_BOUND


@pytest.mark.parametrize("mutation", ["unscaled runs", "half width"])
def test_the_law_gate_rejects_a_wrong_jitter_law(mutation, monkeypatch):
    # a fused run that draws sigma instead of sqrt(n) sigma, and a jitter of
    # half the width, on the circuit whose stages hold runs of up to 12
    noise = LAW_NOISE["jitter"]
    if mutation == "unscaled runs":
        compile_fused = network.Netlist._compile

        def compile_unscaled(net):
            return [replace(g, scale=np.ones_like(g.scale)) for g in compile_fused(net)]

        monkeypatch.setattr(network.Netlist, "_compile", compile_unscaled)
    else:
        noise = NoiseModel(phase_jitter_sigma=noise.phase_jitter_sigma / 2)
    assert law_z("psi1 ZX*XZ*YY", "jitter", noise) > Z_BOUND
