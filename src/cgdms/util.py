"""Small shared helpers: enclosures, config hashes and float formatting."""

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


def config_hash(obj) -> str:
    """SHA-256 of the canonical JSON (sorted keys, no spaces) of ``obj``."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form used by all CSV output."""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")
