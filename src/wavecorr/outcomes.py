"""Joint outcome distributions shared by the simulation backends.

Every backend (projector algebra, circuit propagation, event counting)
reduces to the same thing: a normalized probability over outcome strings
such as ``"++-"``.  Empirical distributions additionally carry the sample
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

PROB_SUM_TOL = 1e-10

OUTCOME_CHARS = frozenset("+-")


def check_outcome_string(s: str) -> str:
    """Validate an outcome string over the two-letter alphabet {+, -}."""
    if not s or any(ch not in OUTCOME_CHARS for ch in s):
        raise ValueError(f"malformed outcome string {s!r}: expected one of '+'/'-' per slot")
    return s


def outcome_signs(s: str) -> tuple[int, ...]:
    """Map an outcome string to its +/-1 results, first measurement first."""
    check_outcome_string(s)
    return tuple(1 if ch == "+" else -1 for ch in s)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized probabilities over outcome strings.

    ``sample_count`` is None for exact (intensity-derived) distributions and
    the number of recorded events for empirical ones.  ``intensities`` keeps
    the raw per-outcome intensities when the distribution came from circuit
    ports.
    """

    probs: Mapping[str, float]
    sample_count: int | None = None
    intensities: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("empty distribution")
        total = 0.0
        for key, p in self.probs.items():
            if p < -PROB_SUM_TOL:
                raise ValueError(f"negative probability {p} for outcome {key!r}")
            total += p
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @property
    def outcome_length(self) -> int:
        return len(next(iter(self.probs)))

    def prob(self, outcome: str) -> float:
        return float(self.probs.get(outcome, 0.0))

    def marginal(self, position: int) -> dict[str, float]:
        """Marginal distribution of the measurement at the given slot."""
        out = {"+": 0.0, "-": 0.0}
        for key, p in self.probs.items():
            out[key[position]] += p
        return out

    def mass_where(self, predicate) -> float:
        """Total probability of outcome strings satisfying ``predicate``."""
        return float(sum(p for key, p in self.probs.items() if predicate(key)))

