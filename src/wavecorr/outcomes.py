"""Joint outcome distributions shared by the simulation backends.

Every backend (projector algebra, circuit propagation, event counting)
reduces to the same thing: a normalized probability over outcome strings
such as ``"++-"``.  Empirical distributions additionally carry the sample
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add
from typing import Mapping

PROB_SUM_TOL = 1e-10

OUTCOME_CHARS = frozenset("+-")


def check_outcome_string(s: str) -> str:
    """Validate an outcome string over the two-letter alphabet {+, -}."""
    if not s or any(ch not in OUTCOME_CHARS for ch in s):
        raise ValueError(f"malformed outcome string {s!r}: expected one of '+'/'-' per slot")
    return s


# a correlator reads the signs of every outcome of every member's distribution,
# and a run meets a few dozen distinct strings at most
@lru_cache(maxsize=256)
def outcome_signs(s: str) -> tuple[int, ...]:
    """Map an outcome string to its +/-1 results, first measurement first.

    A malformed string raises on every call: the cache keeps only results.
    """
    check_outcome_string(s)
    return tuple(1 if ch == "+" else -1 for ch in s)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized probabilities over outcome strings.

    ``sample_count`` is None for exact distributions and the number of
    recorded events for empirical ones.  A circuit's distribution is its
    leaf intensities over their total and keeps no intensities: every
    consumer, the threshold detector included, reads probabilities.
    """

    probs: Mapping[str, float]
    sample_count: int | None = None

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("empty distribution")
        total = 0.0
        # written so that a NaN fails each test
        for key, p in self.probs.items():
            if not p >= -PROB_SUM_TOL:
                raise ValueError(f"probability {p} for outcome {key!r} is negative or NaN")
            total += p
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @property
    def outcome_length(self) -> int:
        return len(next(iter(self.probs)))

    def marginal(self, position: int) -> dict[str, float]:
        """Marginal distribution of the measurement at the given slot."""
        out = {"+": 0.0, "-": 0.0}
        for key, p in self.probs.items():
            out[key[position]] += p
        return out

    def mass_where(self, predicate) -> float:
        """Total probability of outcome strings satisfying ``predicate``."""
        # left to right on every Python; builtin sum compensates from 3.12
        return float(reduce(add, (p for key, p in self.probs.items() if predicate(key)), 0))

