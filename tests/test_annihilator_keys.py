"""Annihilator codes and classes against the per-element joint Hermite
normal form.

The library keys one orbit of units at a time and products one factor at a
time.  The references in conftest are the per-element loop it replaced: one
HNF per element over all coordinates of the ring, products included
(``joint_hnf_keys``), and the tuple of the factors' keys for a product
(``annihilator_keys``).
"""

import math
import random

import numpy as np
import pytest

from conftest import CODEC_SPECS, annihilator_keys, doubling_orbit_reps, joint_hnf_keys
from zdgraph import graphs as G
from zdgraph import rings as R
from zdgraph.verify import product_sweep_specs


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
        ref = partition(joint_hnf_keys(ring))
        if isinstance(ring, R.ProductRing):
            assert partition(annihilator_keys(ring)) == ref, spec
            assert partition(G._annihilator_classes(ring)[0].tolist()) == ref, spec
        else:
            # orbits reuse their representative's HNF, so codes split no finer
            assert partition(R.annihilator_codes(ring).tolist()) == ref, spec


def test_keys_partition_like_joint_hnf_on_product_sweep():
    for spec in product_sweep_specs():
        ring = R.make_ring(spec)
        ref = partition(annihilator_keys(ring))
        assert ref == partition(joint_hnf_keys(ring)), spec
        assert partition(G._annihilator_classes(ring)[0].tolist()) == ref, spec


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unit_orbit_reps_stop_at_the_doubling_fixpoint(seed):
    """One pass and a check give the arrays of passes repeated until none
    changes anything, on every ring with several coordinates."""
    for spec in seeded_specs(seed):
        ring = R.make_ring(spec)
        if len(ring.coord_moduli) > 1:
            assert np.array_equal(R._unit_orbit_reps(ring), doubling_orbit_reps(ring)), spec


def test_codec_and_multiplication_map_match_ring_arithmetic():
    """The numpy coordinates are ``decode`` and the map x -> u*x is ``mul``,
    for every kind of ring and for units and non-units alike."""
    rng = random.Random(5)
    kinds = set()
    for spec in CODEC_SPECS:
        ring = R.make_ring(spec)
        kinds.add(type(spec).__name__)
        coords, radix = R._element_coords(ring)
        assert coords.tolist() == [list(ring.decode(i)) for i in range(ring.size)], spec
        assert (coords @ radix).tolist() == list(range(ring.size)), spec
        for u in [ring.one, 0] + [rng.randrange(ring.size) for _ in range(4)]:
            image = R._multiplication_map(ring, coords, radix, u)
            for x in rng.sample(range(ring.size), min(ring.size, 40)):
                assert image[x] == ring.mul(u, x), (spec, u, x)
    assert kinds == {"Zn", "GF", "MonicQuotient", "FamA", "FamB", "FamC", "FamD", "Product"}



def test_single_coordinate_codes_are_gcds():
    for spec in [R.Zn(n) for n in range(2, 300)] + [R.GF(p) for p in (2, 3, 97)] + [R.Zn(97 * 97), R.Zn(14400)]:
        ring = R.make_ring(spec)
        n = ring.size
        assert R.annihilator_codes(ring).tolist() == [math.gcd(x, n) for x in range(n)], spec
