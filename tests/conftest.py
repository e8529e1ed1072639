import math
import random
from dataclasses import dataclass

import pytest

from zdgraph import rings as R
from zdgraph.graphs import Graph


def brute_zero_divisor_graph(ring) -> Graph:
    """Independent O(n^2) construction straight from the definition."""
    n = ring.size
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if ring.mul(a, b) == 0]
    g = Graph.from_edges(n, edges, [ring.label(i) for i in range(n)])
    return g


@dataclass(frozen=True)
class ElementClass:
    index: int
    is_zero: bool
    is_unit: bool
    is_nilpotent: bool
    is_zero_divisor: bool
    gcd_with_n: int | None = None


def is_nilpotent(ring, a: int) -> bool:
    """Repeated squaring with cycle detection; exact, O(log size) squarings."""
    x = a
    seen = set()
    while x not in seen:
        seen.add(x)
        x = ring.mul(x, x)
        if x == 0:
            return True
    return False


def classify_element(ring, a: int) -> ElementClass:
    """Unit, nilpotent and zero-divisor status of ``a`` by O(n) search."""
    unit = any(ring.mul(a, b) == ring.one for b in range(ring.size))
    zd = a == 0 or any(b != 0 and ring.mul(a, b) == 0 for b in range(ring.size))
    gcd_n = math.gcd(a, ring.size) if isinstance(ring, R.ZnRing) else None
    return ElementClass(
        index=a,
        is_zero=a == 0,
        is_unit=unit,
        is_nilpotent=is_nilpotent(ring, a),
        is_zero_divisor=zd,
        gcd_with_n=gcd_n,
    )


def is_reduced(ring) -> bool:
    return not any(is_nilpotent(ring, a) for a in range(1, ring.size))


def is_field(ring) -> bool:
    one = ring.one
    return all(
        any(ring.mul(a, b) == one for b in range(ring.size))
        for a in range(1, ring.size)
    )


def random_graph(rng: random.Random, n: int, density: float | None = None) -> Graph:
    d = rng.random() if density is None else density
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < d]
    return Graph.from_edges(n, edges)


# a spread of small rings covering every family and a few products
SMALL_RING_SPECS = [
    R.Zn(2),
    R.Zn(4),
    R.Zn(6),
    R.Zn(12),
    R.Zn(27),
    R.Zn(30),
    R.GF(2, 1),
    R.GF(2, 2),
    R.GF(3, 2),
    R.GF(2, 4),
    R.MonicQuotient(R.Zn(4), (0, 0, 1)),
    R.MonicQuotient(R.Zn(2), (0, 0, 0, 1)),
    R.MonicQuotient(R.Zn(9), (3, 1, 1)),
    R.FamA(2, 1),
    R.FamA(2, 2),
    R.FamA(2, 3),
    R.FamA(3, 2),
    R.FamB(2),
    R.FamB(3),
    R.FamC(2),
    R.FamC(3),
    R.FamD(2),
    R.FamD(3),
    R.Product((R.Zn(2), R.GF(3))),
    R.Product((R.Zn(4), R.Zn(4))),
    R.Product((R.GF(3), R.GF(3))),
    R.Product((R.Zn(2), R.Zn(2), R.Zn(2))),
    R.Product((R.Zn(4), R.GF(2, 2))),
]


@pytest.fixture(scope="session")
def small_rings():
    return [(spec, R.make_ring(spec)) for spec in SMALL_RING_SPECS]
