"""Small shared numeric helpers: enclosures and compensated sums."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np


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


def compensated_sum(x: np.ndarray):
    """Sum of ``x`` along its first axis (each column of a 2-D array).

    Pairwise TwoSum levels: each level adds the second half of the terms to
    the first and keeps the exact rounding error of every addition; the
    errors are summed pairwise alongside and added back at the end.  The
    error is half an ulp of the sum plus about (eps * log2 M)**2 times the
    sum of |x|, so for terms of one sign the result lies within one ulp of
    ``math.fsum`` and almost always equals it.  Every step is elementwise,
    so a column's sum does not depend on the other columns.  An (M, k)
    array in Fortran order reduces contiguous rows.
    """
    s = np.asarray(x, dtype=float).T
    c = None  # the summed rounding errors, aligned with s
    while s.shape[-1] > 1:
        n = s.shape[-1]
        h = n // 2
        a, b = s[..., :h], s[..., h:2 * h]
        t = np.empty(s.shape[:-1] + (n - h,))
        e = np.empty_like(t)
        th, eh = t[..., :h], e[..., :h]
        # TwoSum: th + eh == a + b exactly
        np.add(a, b, out=th)
        z = th - a
        np.subtract(th, z, out=eh)
        np.subtract(a, eh, out=eh)
        np.subtract(b, z, out=z)
        eh += z
        if c is not None:
            np.add(c[..., :h], c[..., h:2 * h], out=z)
            eh += z
        if n % 2:  # the odd last term moves up a level unpaired
            t[..., h] = s[..., -1]
            e[..., h] = 0.0 if c is None else c[..., -1]
        s, c = t, e
    return s[..., 0] + (0.0 if c is None else c[..., 0])


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
