"""Small shared numeric helpers: enclosures and deterministic log-sum-exp."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Enclosure:
    """A closed interval [lo, hi] certifying that a scalar lies inside."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def padded(self, eps: float) -> "Enclosure":
        return Enclosure(self.lo - eps, self.hi + eps)

    def __repr__(self):
        return f"Enclosure({self.lo!r}, {self.hi!r})"


def combine_partition_sums(parts: list[tuple[float, float]]) -> float:
    """Combine per-partition (max_exponent, sum_of_scaled) pairs.

    Each partition reports the log-sum-exp decomposition of its own terms;
    the combination is done in list order, so the result is reproducible.
    """
    finite = [(m, s) for m, s in parts if m > -math.inf and s > 0.0]
    if not finite:
        return -math.inf
    m0 = max(m for m, _ in finite)
    total = math.fsum(s * math.exp(m - m0) for m, s in finite)
    return m0 + math.log(total)


def stable_json(obj) -> str:
    """Canonical JSON used for config hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(stable_json(obj).encode("utf-8")).hexdigest()


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form used by all CSV output."""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")
