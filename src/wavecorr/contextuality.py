"""Noncontextuality inequalities, their bounds, and compatibility audits.

Three inequality families are built in: the four-correlator CHSH
expression, the four-correlator Mermin expression on triple products, and
the Peres-Mermin square whose six row and column products witness
state-independent contextuality.  Each evaluates to a report holding the
measured correlators, from which it derives the value, set next to four
reference numbers: the noncontextual bound, the same bound corrected for a
measured deviation rate, the quantum maximum, and the algebraic maximum.

The deviation rate comes from a compatibility audit: sequences that probe
whether marginals are context independent, whether joint correlators are
order independent, whether repeated measurements repeat, and whether
interleaved compatible measurements disturb each other.

Both the inequality and the audit are pure bookkeeping over outcome
distributions supplied by a provider callable, which answers every request
with a list of member distributions: one member from the projector oracle
or from sampled events, one per fabrication seed from a noisy circuit.  So
one code path evaluates exact projector chains, circuit propagation, and
event-sampled counts: an inequality gives one report per member, and the
audit averages each audited quantity over the members.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from wavecorr.outcomes import OutcomeDistribution, outcome_signs
from wavecorr.wavecore import (
    WaveState,
    check_pairwise_compatible,
    pauli_observable,
    sequential_distribution,
    state_library,
)

_VALUE_TOL = 1e-12


# ------------------------------------------------------------- correlators


@dataclass(frozen=True)
class Correlator:
    """Mean product of the outcomes of one measurement sequence."""

    labels: tuple[str, ...]
    value: float
    stderr: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.stderr < 0.0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr}")
        if abs(self.value) > 1.0 + 3.0 * self.stderr + _VALUE_TOL:
            raise ValueError(
                f"correlator {self.value} lies outside [-1, 1] beyond 3 sigma"
            )


def correlator(dist: OutcomeDistribution, labels: Sequence[str] = ()) -> Correlator:
    """Average of the product of the +/-1 outcomes under ``dist``.

    When the distribution is empirical the standard error of a mean of
    +/-1 products is sqrt((1 - v^2)/N); exact distributions carry zero.
    """
    labels = tuple(labels)
    if labels and len(labels) != dist.outcome_length:
        raise ValueError(
            f"{len(labels)} labels for outcome strings of length {dist.outcome_length}"
        )
    value = 0.0
    for key, p in dist.probs.items():
        value += math.prod(outcome_signs(key)) * p
    stderr = 0.0
    if dist.sample_count is not None:
        stderr = math.sqrt(max(0.0, 1.0 - value * value) / dist.sample_count)
    return Correlator(labels=labels, value=float(value), stderr=stderr)


# ------------------------------------------------------------ inequalities


@dataclass(frozen=True)
class InequalityDefinition:
    """A signed sum of sequence correlators with its reference bounds."""

    name: str
    terms: tuple[tuple[tuple[str, ...], float], ...]
    nc_bound: float
    quantum_max: float
    algebraic_max: float

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("an inequality needs at least one term")
        for labels, sign in self.terms:
            if not labels:
                raise ValueError("empty measurement sequence in term")
            if sign == 0.0 or not math.isfinite(sign):
                raise ValueError(f"term sign must be finite and nonzero, got {sign}")
        if not self.nc_bound <= self.algebraic_max:
            raise ValueError("noncontextual bound exceeds the algebraic maximum")
        if not self.nc_bound <= self.quantum_max <= self.algebraic_max:
            raise ValueError("quantum maximum must lie between the bounds")

    @property
    def sequences(self) -> tuple[tuple[str, ...], ...]:
        return tuple(labels for labels, _ in self.terms)

    @property
    def observable_labels(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for labels, _ in self.terms:
            for lab in labels:
                seen.setdefault(lab)
        return tuple(seen)


_SQRT8 = 2.0 * math.sqrt(2.0)

# factor observables: Z on the first mode pair, Z on the second, X on the
# second, X on the first; the four correlators pair them crosswise
CHSH = InequalityDefinition(
    name="CHSH",
    terms=(
        (("ZI", "IZ"), 1.0),
        (("XI", "IZ"), 1.0),
        (("ZI", "IX"), 1.0),
        (("XI", "IX"), -1.0),
    ),
    nc_bound=2.0,
    quantum_max=_SQRT8,
    algebraic_max=4.0,
)

MERMIN = InequalityDefinition(
    name="Mermin",
    terms=(
        (("ZII", "IZI", "IIX"), 1.0),
        (("XII", "IZI", "IIZ"), 1.0),
        (("ZII", "IXI", "IIZ"), 1.0),
        (("XII", "IXI", "IIX"), -1.0),
    ),
    nc_bound=2.0,
    quantum_max=4.0,
    algebraic_max=4.0,
)

# the nine two-mode-pair observables arranged as rows then columns of the
# 3x3 grid; every triple multiplies to +identity except the last, which
# multiplies to -identity, so the ideal value is 6 for every input state
PERES_MERMIN = InequalityDefinition(
    name="PeresMermin",
    terms=(
        (("ZI", "IZ", "ZZ"), 1.0),
        (("IX", "XI", "XX"), 1.0),
        (("ZX", "XZ", "YY"), 1.0),
        (("ZI", "IX", "ZX"), 1.0),
        (("IZ", "XI", "XZ"), 1.0),
        (("ZZ", "XX", "YY"), -1.0),
    ),
    nc_bound=4.0,
    quantum_max=6.0,
    algebraic_max=6.0,
)

INEQUALITIES: Mapping[str, InequalityDefinition] = {
    d.name: d for d in (CHSH, MERMIN, PERES_MERMIN)
}


@dataclass(frozen=True)
class InequalityReport:
    """A definition's term correlators as measured, and the rate that corrects its bound.

    Correlator k measures the definition's k-th sequence.  The value, its
    standard error and the corrected bound are computed from these on each
    read; the name and the other bounds are read from ``definition``.
    """

    definition: InequalityDefinition
    terms: tuple[Correlator, ...]
    deviation_rate: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not 0.0 <= self.deviation_rate <= 1.0:
            raise ValueError(f"deviation rate {self.deviation_rate} outside [0, 1]")
        sequences = [tuple(labels) for labels in self.definition.sequences]
        if [cor.labels for cor in self.terms] != sequences:
            raise ValueError(
                f"{self.definition.name} measures {', '.join('*'.join(s) for s in sequences)}; "
                f"got correlators for {', '.join('*'.join(c.labels) for c in self.terms)}"
            )

    @property
    def value(self) -> float:
        value = 0.0
        for (_, sign), cor in zip(self.definition.terms, self.terms):
            value += sign * cor.value
        return value

    @property
    def stderr(self) -> float:
        variance = 0.0
        for (_, sign), cor in zip(self.definition.terms, self.terms):
            variance += (sign * cor.stderr) ** 2
        return math.sqrt(variance)

    @property
    def corrected_bound(self) -> float:
        defn = self.definition
        return corrected_bound(defn.nc_bound, defn.algebraic_max, self.deviation_rate)

    def violates(self, bound: float) -> bool:
        """Whether the value exceeds ``bound``."""
        return self.value > bound

    @property
    def verdict(self) -> str:
        defn = self.definition
        parts = []
        word = "violates" if self.violates(defn.nc_bound) else "respects"
        parts.append(f"{word} NC bound {defn.nc_bound:g}")
        if self.deviation_rate > 0.0:
            word = "violates" if self.violates(self.corrected_bound) else "respects"
            parts.append(f"{word} corrected bound {self.corrected_bound:g}")
        if abs(self.value - defn.quantum_max) <= max(1e-6, 3.0 * self.stderr):
            parts.append("saturates quantum max")
        return ", ".join(parts)


def corrected_bound(nc_bound: float, algebraic_max: float, deviation_rate: float) -> float:
    """Noncontextual bound inflated linearly toward the algebraic maximum.

    A deviation rate xi mixes the two bounds as (1-xi)*nc + xi*algebraic.
    Each input is read as its shortest decimal form n * 10^k, the one repr
    prints, and the mix is formed exactly in integers over the least common
    power of ten, then rounded once by int true division.  So bounds
    computed from hand-entered rates print exactly (0.14 on the 2..4 range
    gives 2.28, not 2.2800000000000002), and the result is the correctly
    rounded value of the exact rational mix.
    """
    if not 0.0 <= deviation_rate <= 1.0:
        raise ValueError(f"deviation rate {deviation_rate} outside [0, 1]")
    if not (math.isfinite(nc_bound) and math.isfinite(algebraic_max)):
        raise ValueError(f"bounds {nc_bound} and {algebraic_max} must be finite")
    if algebraic_max < nc_bound:
        raise ValueError(
            f"algebraic maximum {algebraic_max} below noncontextual bound {nc_bound}"
        )
    (a, p), (b, q), (c, r) = map(_shortest_decimal, (nc_bound, algebraic_max, deviation_rate))
    # nc + xi (alg - nc) = a 10^p + c b 10^(q+r) - c a 10^(p+r) = num 10^k
    k = min(p, p + r, q + r)
    num = a * 10 ** (p - k) + c * (b * 10 ** (q + r - k) - a * 10 ** (p + r - k))
    return num * 10 ** max(k, 0) / 10 ** max(-k, 0)


def _shortest_decimal(x: float) -> tuple[int, int]:
    """(n, k) such that n * 10^k is repr's shortest decimal form of the float x."""
    mantissa, _, exponent = repr(float(x)).partition("e")
    whole, _, digits = mantissa.partition(".")
    return int(whole + digits), int(exponent or 0) - len(digits)


def classical_bound_oracle(defn: InequalityDefinition) -> float:
    """Exact noncontextual maximum by brute-force +/-1 assignment.

    Every observable label gets a fixed outcome independent of which
    sequence it appears in; the maximum of the signed sum over all such
    assignments is the noncontextual bound.  All 2^labels assignments are
    evaluated at once, in itertools.product((1, -1), ...) order, and the
    terms are added one by one in definition order, so every partial sum is
    the one a loop over assignments would form.
    """
    labels = defn.observable_labels
    column = {lab: j for j, lab in enumerate(labels)}
    # row r assigns -1 to label j where bit L-1-j of r is set, as product does
    bits = np.arange(2 ** len(labels))[:, None] >> np.arange(len(labels) - 1, -1, -1)
    assignments = 1.0 - 2.0 * (bits & 1)
    total = np.zeros(len(assignments))
    for seq, sign in defn.terms:
        total += sign * assignments[:, [column[lab] for lab in seq]].prod(axis=1)
    return float(total.max())


# ------------------------------------------------------ distribution source

# A request names a state and a measurement sequence.  A provider maps a
# batch of requests to one list of member distributions per request, in
# order: a single member from an exact or sampled source, one per fabrication
# seed from a noise ensemble.
Request = tuple[str, tuple[str, ...]]
Provider = Callable[[Sequence[Request]], Sequence[Sequence[OutcomeDistribution]]]


def ideal_provider(resolve: Callable[[str], WaveState] = state_library) -> Provider:
    """Distributions from the projector oracle, no circuit in the loop."""

    def provide(requests: Sequence[Request]) -> list[list[OutcomeDistribution]]:
        return [
            [sequential_distribution(resolve(name), [pauli_observable(lab) for lab in labels])]
            for name, labels in requests
        ]

    return provide


def _provide(provider: Provider, requests: list[Request]) -> list[list[OutcomeDistribution]]:
    """One provider call for every request, checked for equally many members each.

    Every distinct sequence is checked for pairwise commuting observables
    before the provider is called, so an incompatible sequence fails the
    same way on every source, before any circuit is built.
    """
    for labels in dict.fromkeys(labels for _, labels in requests):
        check_pairwise_compatible([pauli_observable(lab) for lab in labels])
    results = [list(members) for members in provider(requests)]
    if len(results) != len(requests):
        raise ValueError(f"provider returned {len(results)} results for {len(requests)} requests")
    for (state_name, labels), members in zip(requests, results):
        if not members or len(members) != len(results[0]):
            raise ValueError(
                f"provider returned {len(members)} members for {state_name} "
                f"{'*'.join(labels)}, expected {len(results[0]) or 'at least one'}"
            )
    return results


def inequality_requests(defn: InequalityDefinition, state_name: str) -> list[Request]:
    """The requests measure_inequality makes: term k's sequence on the state."""
    return [(state_name, tuple(labels)) for labels in defn.sequences]


def measure_inequality(
    defn: InequalityDefinition,
    provider: Provider,
    state_name: str,
    deviation_rate: float = 0.0,
) -> list[InequalityReport]:
    """Evaluate every term of ``defn`` on one state through one provider call.

    The call asks for exactly ``inequality_requests(defn, state_name)``.
    Returns one report per member: report m is built from the m-th member of every term's
    distributions.  A provider that brings no members, or different member
    counts for different terms, raises ValueError.
    """
    return [
        InequalityReport(
            defn,
            [correlator(dist, labels) for labels, dist in zip(defn.sequences, member)],
            deviation_rate,
        )
        for member in zip(*_provide(provider, inequality_requests(defn, state_name)))
    ]


# ------------------------------------------------------ compatibility suite


@dataclass(frozen=True)
class AuditSuite:
    """Audit plan: its states, orderings to compare, chains to repeat, probes to interleave."""

    name: str
    states: tuple[str, ...]
    permutation_groups: tuple[tuple[tuple[str, ...], ...], ...]
    repeat_sequences: tuple[tuple[str, ...], ...]
    disturbance_sequences: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("no states to audit")
        if not self.sequences:
            raise ValueError("no sequences to audit")
        for seq in self.repeat_sequences:
            if len(seq) != 3 or len(set(seq)) != 1:
                raise ValueError(f"repeat sequences must look like (O, O, O), got {seq}")
        for seq in self.disturbance_sequences:
            if len(seq) != 3 or seq[0] != seq[2]:
                raise ValueError(f"disturbance sequences must look like (O, P, O), got {seq}")

    @property
    def sequences(self) -> tuple[tuple[str, ...], ...]:
        groups = (*self.permutation_groups, self.repeat_sequences, self.disturbance_sequences)
        return tuple(tuple(seq) for group in groups for seq in group)

    @property
    def requests(self) -> list[Request]:
        """The requests compatibility_suite makes: every sequence, state by state."""
        sequences = self.sequences
        return [(state, seq) for state in self.states for seq in sequences]


_GRID_LABELS = ("ZI", "IZ", "ZZ", "IX", "XI", "XX", "ZX", "XZ", "YY")

# the nineteen sequences of the nine grid observables on the eleven two-mode
# benchmark preparations
PAIR_SUITE = AuditSuite(
    name="pair",
    states=tuple(f"psi{i}" for i in range(1, 12)),
    permutation_groups=(tuple(itertools.permutations(("ZX", "XZ", "YY"))),),
    repeat_sequences=tuple((lab, lab, lab) for lab in _GRID_LABELS),
    disturbance_sequences=tuple(("ZX", lab, "ZX") for lab in ("ZI", "IX", "XZ", "YY")),
)

# the twelve sequences of the triple-product observables on the four
# three-mode preparations
TRIPLE_SUITE = AuditSuite(
    name="triple",
    states=("ghz", "000", "111", "singlet3"),
    permutation_groups=(tuple(itertools.permutations(("ZII", "IZI", "IIX"))),),
    repeat_sequences=(("ZII",) * 3, ("XII",) * 3),
    disturbance_sequences=tuple(("ZII", lab, "ZII") for lab in ("IZI", "IIZ", "IXI", "IIX")),
)

# the suite whose deviation rate corrects each built-in inequality's bound:
# the grid observables include CHSH's, the triple products are Mermin's
AUDIT_SUITES: Mapping[str, AuditSuite] = {
    "CHSH": PAIR_SUITE,
    "Mermin": TRIPLE_SUITE,
    "PeresMermin": PAIR_SUITE,
}


@dataclass(frozen=True)
class DeviationRecord:
    """One audited quantity: its category, where it was measured, its size."""

    category: str
    state: str
    label: str
    value: float


@dataclass(frozen=True)
class CompatibilityReport:
    """An audit's deviation records, each in [0, 1].

    A category's rate is its largest record (0 when it has none), and the
    worst case, the suite's deviation rate, is the first largest of all.
    """

    records: tuple[DeviationRecord, ...]

    def _peak(self, category: str) -> float:
        return max((r.value for r in self.records if r.category == category), default=0.0)

    context_independence = property(lambda self: self._peak("context-independence"))
    order_independence = property(lambda self: self._peak("order-independence"))
    repeatability = property(lambda self: self._peak("repeatability"))
    nondisturbance = property(lambda self: self._peak("nondisturbance"))

    @property
    def worst(self) -> DeviationRecord:
        return max(self.records, key=lambda r: r.value)

    @property
    def worst_case(self) -> float:
        return self.worst.value

    @property
    def worst_description(self) -> str:
        worst = self.worst
        return f"{worst.category}: state {worst.state}, {worst.label}"


def _clamped(x: float) -> float:
    """``x`` in [0, 1]; a deviation at round-off level reads as exactly zero."""
    x = float(x)
    return 0.0 if x <= _VALUE_TOL else min(1.0, x)


def compatibility_suite(suite: AuditSuite, provider: Provider) -> CompatibilityReport:
    """Audit compatibility assumptions over a suite's states and sequences.

    Four deviations are tracked.  Order independence: within each
    permutation group, half the spread of the joint correlator across
    orderings.  Repeatability and nondisturbance: for three-link chains,
    the probability that the first and third results differ.  Context
    independence: the spread of each observable's single-outcome marginal
    across every sequence and slot where it appears.  Each audited quantity
    is computed member by member and averaged over the members, so a noisy
    circuit's deviation is the mean over its seeds.  The worst case over
    everything is the suite's deviation rate.

    The suite's shape is checked when it is built, and every sequence's
    commutation before the provider is called.  The provider is then called
    once, with ``suite.requests``: every (state, sequence) pair, state by
    state in the order of ``suite.sequences``.  It must bring the same
    nonzero number of members for every pair.
    """
    # every distribution the records below read, fetched in one provider call
    # and consumed in the same order
    results = iter(_provide(provider, suite.requests))
    records: list[DeviationRecord] = []

    for state in suite.states:
        # marginal of each observable in every context it appears in,
        # collected as one row of per-member values per (label, slot, seq)
        contexts: dict[str, list[np.ndarray]] = {}

        def note_marginals(seq: tuple[str, ...], members: list[OutcomeDistribution]) -> None:
            for pos, lab in enumerate(seq):
                row = np.array([m.marginal(pos)["+"] for m in members])
                contexts.setdefault(lab, []).append(row)

        for group in suite.permutation_groups:
            per_member = []
            for seq in group:
                members = next(results)
                note_marginals(tuple(seq), members)
                per_member.append([correlator(m, seq).value for m in members])
            spread = (np.max(per_member, axis=0) - np.min(per_member, axis=0)) / 2.0
            records.append(
                DeviationRecord(
                    category="order-independence",
                    state=state,
                    label=f"orderings of {'*'.join(sorted(group[0]))}",
                    value=_clamped(float(np.mean(spread))),
                )
            )
        for category, seqs in (
            ("repeatability", suite.repeat_sequences),
            ("nondisturbance", suite.disturbance_sequences),
        ):
            for seq in seqs:
                members = next(results)
                note_marginals(tuple(seq), members)
                mass = [m.mass_where(lambda s: s[0] != s[2]) for m in members]
                records.append(
                    DeviationRecord(
                        category=category,
                        state=state,
                        label="*".join(seq),
                        value=_clamped(float(np.mean(mass))),
                    )
                )
        for lab, rows in contexts.items():
            if len(rows) < 2:
                continue
            stacked = np.vstack(rows)
            spread = np.max(stacked, axis=0) - np.min(stacked, axis=0)
            records.append(
                DeviationRecord(
                    category="context-independence",
                    state=state,
                    label=f"marginal of {lab}",
                    value=_clamped(float(np.mean(spread))),
                )
            )

    return CompatibilityReport(tuple(records))


# ------------------------------------------------------------------ output


def format_inequality_report(report: InequalityReport) -> str:
    """Human-readable table for one evaluated inequality."""
    defn = report.definition
    lines = [f"{defn.name}: value = {report.value:+.6f} +/- {report.stderr:.6f}"]
    width = max(len("*".join(c.labels)) for c in report.terms)
    for cor, (_, sign) in zip(report.terms, defn.terms):
        mark = "+" if sign > 0 else "-"
        lines.append(
            f"  {mark} {'*'.join(cor.labels):<{width}}  "
            f"{cor.value:+.6f} +/- {cor.stderr:.6f}"
        )
    lines.append(
        "  bounds: noncontextual {:g}, corrected {:g} (deviation rate {:g}), "
        "quantum {:g}, algebraic {:g}".format(
            defn.nc_bound,
            report.corrected_bound,
            report.deviation_rate,
            defn.quantum_max,
            defn.algebraic_max,
        )
    )
    lines.append(f"  verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


def format_compatibility_report(report: CompatibilityReport) -> str:
    """Human-readable summary of a compatibility audit."""
    lines = [
        "compatibility audit:",
        f"  context independence : {report.context_independence:.6f}",
        f"  order independence   : {report.order_independence:.6f}",
        f"  repeatability        : {report.repeatability:.6f}",
        f"  nondisturbance       : {report.nondisturbance:.6f}",
        f"  worst case           : {report.worst_case:.6f} ({report.worst_description})",
    ]
    return "\n".join(lines) + "\n"
