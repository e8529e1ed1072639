"""Annihilator keys against the per-element joint Hermite normal form.

The library keys one orbit of units at a time and products one factor at a
time.  The reference below is the per-element loop it replaced: one HNF per
element over all coordinates of the ring, products included.
"""

import math
import random

import pytest

from zdgraph import rings as R
from zdgraph._util import hermite_normal_form
from zdgraph.verify import product_sweep_specs


def joint_hnf_keys(ring) -> list:
    mods = ring.coord_moduli
    t = len(mods)
    M = math.lcm(*mods)
    gens = ring.generator_indices()
    scales = [M // m for m in mods]
    m_rows = [[M if i == j else 0 for i in range(t)] for j in range(t)]
    keys = []
    for x in range(ring.size):
        cols = [ring.decode(ring.mul(x, g)) for g in gens]
        rows = [[scales[j] * cols[i][j] for i in range(t)] for j in range(t)]
        keys.append(hermite_normal_form(rows + m_rows, t))
    return keys


def partition(keys) -> list[int]:
    """Each element's class, classes numbered by first appearance."""
    index: dict = {}
    return [index.setdefault(k, len(index)) for k in keys]


def seeded_specs(seed: int) -> list:
    """Every family at sizes where orbits and factors matter."""
    rng = random.Random(seed)
    specs = [
        R.GF(rng.choice((2, 3)), rng.randrange(2, 7)), R.GF(rng.choice((5, 7, 11, 23)), 2), R.GF(7, 3),
        R.FamA(rng.choice((2, 3)), rng.randrange(1, 6)), R.FamA(5, 3), R.FamA(11, 2),
        R.FamB(rng.choice((2, 3))), R.FamB(5),
        R.FamC(rng.choice((2, 3, 5))), R.FamD(rng.choice((2, 3, 5, 7, 11))),
        R.MonicQuotient(R.Zn(9), (3, 0, 1)),        # local: x^2 + 3 over Z/9
        R.MonicQuotient(R.Zn(27), (1, 0, 1)),       # local: x^2 + 1 is irreducible mod 3
        R.MonicQuotient(R.Zn(5), (4, 0, 1)),        # not local: x^2 - 1 = (x - 1)(x + 1)
        R.MonicQuotient(R.Zn(12), (5, 0, 0, 1)),    # not local: Z/12 already splits
    ]
    for _ in range(6):
        n = rng.choice((4, 6, 8, 9, 10, 12, 25))
        deg = rng.randrange(2, 4 if n < 13 else 3)
        specs.append(R.MonicQuotient(R.Zn(n), tuple(rng.randrange(n) for _ in range(deg)) + (1,)))
    small = [s for s in specs if R.spec_size(s) <= 64] + [R.Zn(rng.randrange(2, 40)) for _ in range(3)]
    for _ in range(6):
        specs.append(R.Product(tuple(rng.choice(small) for _ in range(rng.choice((2, 3))))))
    return [s for s in specs if R.spec_size(s) <= 3000]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_keys_equal_joint_hnf_on_seeded_specs(seed):
    for spec in seeded_specs(seed):
        ring = R.make_ring(spec)
        keys, ref = R.annihilator_keys(ring), joint_hnf_keys(ring)
        if isinstance(ring, R.ProductRing):
            assert partition(keys) == partition(ref), spec
        elif len(ring.coord_moduli) > 1:
            assert keys == ref, spec  # orbits reuse their representative's HNF


def test_keys_partition_like_joint_hnf_on_product_sweep():
    for spec in product_sweep_specs():
        ring = R.make_ring(spec)
        assert partition(R.annihilator_keys(ring)) == partition(joint_hnf_keys(ring)), spec


CODEC_SPECS = [
    R.Zn(12), R.GF(5), R.GF(3, 3), R.MonicQuotient(R.Zn(6), (1, 5, 1)), R.FamA(3, 2),
    R.FamB(3), R.FamC(3), R.FamD(5), R.Product((R.FamA(2, 2), R.Zn(3), R.GF(2, 2))),
]


def test_codec_and_multiplication_map_match_ring_arithmetic():
    """The numpy coordinates are ``decode`` and the map x -> u*x is ``mul``,
    for every Ring class and for units and non-units alike."""
    rng = random.Random(5)
    kinds = set()
    for spec in CODEC_SPECS:
        ring = R.make_ring(spec)
        kinds.add(type(ring).__name__)
        coords, radix = R._element_coords(ring)
        assert coords.tolist() == [list(ring.decode(i)) for i in range(ring.size)], spec
        assert (coords @ radix).tolist() == list(range(ring.size)), spec
        for u in [ring.one, 0] + [rng.randrange(ring.size) for _ in range(4)]:
            image = R._multiplication_map(ring, coords, radix, u)
            for x in rng.sample(range(ring.size), min(ring.size, 40)):
                assert image[x] == ring.mul(u, x), (spec, u, x)
    assert kinds == {"ZnRing", "PolyQuotientRing", "FamARing", "FamCRing", "FamDRing", "ProductRing"}

