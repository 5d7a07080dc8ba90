"""SystemDescriptor.support_hull stops at the fixed point of its interval
iteration and returns the hull that HULL_ITERATIONS iterations give."""

import math

import pytest

from cgdms.families import Custom1DFamily
from cgdms.symbolic import IncidenceMatrix, Multigraph
from cgdms.system import (HULL_ITERATIONS, SystemDescriptor, similarity_system,
                          truncated_cf_system)


def _custom_system():
    fam = Custom1DFamily("1/(x+k)", "(x+k)^-2", contraction_bound=0.5,
                         contraction_prefactor=2.0, n_edges=3)
    graph = Multigraph.single_vertex(n_edges=3)
    return SystemDescriptor(graph, IncidenceMatrix.full(graph), fam)


SYSTEMS = {
    "cf24": lambda: truncated_cf_system(24),
    "custom-1/(x+k)": _custom_system,
    "flipped-similarity": lambda: similarity_system(
        [0.4, 0.3], offsets=[0.4, 0.7], flips=[-1, 1]),
}


def _reference_hull(sysd, N):
    """Every one of the HULL_ITERATIONS iterations, then the same padding."""
    a, b = sysd.family.domain()
    for _ in range(HULL_ITERATIONS):
        images = [sysd.family.image(e, (a, b)) for e in range(1, N + 1)]
        a, b = min(i[0] for i in images), max(i[1] for i in images)
    pad = 1e-12 * max(1.0, abs(a), abs(b))
    return (a - pad, b + pad)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_hull_equals_full_iteration(name):
    sysd = SYSTEMS[name]()
    N = sysd.alphabet_size
    assert sysd.hull(N) == _reference_hull(sysd, N)


def test_cf24_hull_stops_early(monkeypatch):
    sysd = truncated_cf_system(24)
    calls = []
    image = sysd.family.image
    monkeypatch.setattr(sysd.family, "image",
                        lambda e, iv: calls.append(e) or image(e, iv))
    lo, hi = sysd.hull(24)
    assert len(calls) < HULL_ITERATIONS * 24
    assert 0.0 < lo < hi < 1.0 and math.isfinite(hi)
