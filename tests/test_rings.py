import math
import random

import pytest

from conftest import (
    CODEC_SPECS,
    SMALL_RING_SPECS,
    annihilator_keys,
    classify_element,
    closed_form_mul,
    is_field,
    is_nilpotent,
    is_reduced,
    reference_labels,
)
from zdgraph import graphs as G
from zdgraph import rings as R
from zdgraph.errors import CompositePrimeError, NonMonicModulus, SizeCapExceeded


def test_sizes_match_formulas():
    assert R.make_ring(R.Zn(27)).size == 27
    assert R.make_ring(R.FamA(2, 3)).size == 16
    assert R.make_ring(R.FamB(3)).size == 27
    assert R.make_ring(R.FamC(2)).size == 16
    assert R.make_ring(R.FamD(3)).size == 27
    assert R.make_ring(R.GF(3, 2)).size == 9
    assert R.make_ring(R.MonicQuotient(R.Zn(4), (0, 0, 1))).size == 16
    assert R.make_ring(R.Product((R.Zn(6), R.GF(5)))).size == 30


def test_spec_size_agrees_with_enumeration(small_rings):
    for spec, ring in small_rings:
        assert R.spec_size(spec) == ring.size
        # the index codec is a bijection onto the coordinate box
        seen = {ring.encode(ring.decode(i)) for i in range(ring.size)}
        assert seen == set(range(ring.size))


def test_index_zero_is_zero_and_one_is_distinct(small_rings):
    for _, ring in small_rings:
        assert all(c == 0 for c in ring.decode(0))
        assert ring.one != 0
        for a in range(ring.size):
            assert ring.mul(0, a) == 0
            assert ring.mul(ring.one, a) == a


def test_ring_laws(small_rings):
    """Commutativity on all pairs; associativity/distributivity exhaustively
    for small rings and on random triples for the rest."""
    rng = random.Random(0)
    for spec, ring in small_rings:
        n = ring.size
        for a in range(n):
            for b in range(a, n):
                assert ring.mul(a, b) == ring.mul(b, a), (spec, a, b)
        if n <= 40:
            triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
        else:
            triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(3000)]
        for a, b, c in triples:
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        for a in range(n):
            assert ring.add(a, ring.neg(a)) == 0


# rings of about 10^4 elements: one per multi-coordinate family and a product
LARGE_RING_SPECS = [
    R.GF(23, 3), R.MonicQuotient(R.Zn(10), (3, 0, 7, 0, 1)), R.FamA(3, 8), R.FamB(5),
    R.FamC(11), R.FamD(23), R.Product((R.Zn(8), R.FamA(3, 2), R.GF(7, 2))),
]


def test_arithmetic_and_labels_match_closed_forms():
    """``mul``, ``zero_product_table`` and ``labels`` against the per-family
    closed forms: all pairs of the small rings, sampled pairs of the large
    ones.  Ring laws alone would pass a wrong but valid generator table."""
    rng = random.Random(8)
    for spec in SMALL_RING_SPECS + CODEC_SPECS + LARGE_RING_SPECS:
        ring = R.make_ring(spec)
        mul = closed_form_mul(ring)
        n = ring.size
        xs = range(n) if n <= 200 else rng.sample(range(n), 120)
        want = [[mul(a, b) for b in xs] for a in xs]
        assert [[ring.mul(a, b) for b in xs] for a in xs] == want, spec
        assert R.zero_product_table(ring, xs).tolist() == [[c == 0 for c in row] for row in want], spec
        assert ring.labels() == reference_labels(ring), spec


def test_mul_examples():
    mq = R.make_ring(R.MonicQuotient(R.Zn(4), (0, 0, 1)))
    x = mq.encode((0, 1))
    x3 = mq.encode((0, 3))
    assert mq.mul(x, x3) == 0
    fa = R.make_ring(R.FamA(2, 3))
    e = fa.encode((1, 1))  # 1 + x
    assert fa.mul(e, e) == fa.one


def test_famd_square_of_x_is_p():
    fd = R.make_ring(R.FamD(3))
    x = fd.encode((0, 1))
    assert fd.mul(x, x) == fd.encode((3, 0))


def test_classify_element():
    r27 = R.make_ring(R.Zn(27))
    c3 = classify_element(r27, 3)
    assert c3.is_nilpotent and c3.is_zero_divisor and not c3.is_unit
    assert classify_element(r27, 2).is_unit
    z6 = R.make_ring(R.Zn(6))
    c2 = classify_element(z6, 2)
    assert c2.is_zero_divisor and not c2.is_nilpotent and not c2.is_unit
    c0 = classify_element(z6, 0)
    assert c0.is_zero and c0.is_zero_divisor and c0.is_nilpotent


def test_unit_xor_zero_divisor(small_rings):
    for spec, ring in small_rings:
        if ring.size > 128:
            continue
        for a in range(ring.size):
            cls = classify_element(ring, a)
            assert cls.is_unit != cls.is_zero_divisor, (spec, a)


def test_zn_gcd_and_units():
    ring = R.make_ring(R.Zn(36))
    for a in range(36):
        cls = classify_element(ring, a)
        assert cls.gcd_with_n == math.gcd(a, 36)
        assert cls.is_unit == (math.gcd(a, 36) == 1)


def test_euler_phi_values_and_divisor_sum():
    assert R.euler_phi(27) == 18
    assert R.euler_phi(1) == 1
    assert R.euler_phi(12) == 4
    limit = 10_000
    phi = [R.euler_phi(m) for m in range(1, limit + 1)]
    sums = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            sums[m] += phi[d - 1]
    assert all(sums[m] == m for m in range(1, limit + 1))


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    sieve = [False, False] + [True] * (100_000 - 2)
    for f in range(2, math.isqrt(len(sieve)) + 1):
        if sieve[f]:
            sieve[f * f::f] = [False] * len(range(f * f, len(sieve), f))
    assert [n for n in range(-5, len(sieve)) if R.is_prime(n)] == \
        [n for n in range(len(sieve)) if sieve[n]]
    # strong pseudoprimes to every prime base up to 7, 31 and 37
    for n in (3_215_031_751, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461):
        assert not R.is_prime(n), n
    for p in (2 ** 61 - 1, 10 ** 18 + 3, 2 ** 89 - 1):
        assert R.is_prime(p) and not R.is_prime(p * (2 ** 31 - 1))


def test_reduced_and_field():
    assert is_reduced(R.make_ring(R.Zn(6)))
    assert not is_field(R.make_ring(R.Zn(6)))
    assert is_field(R.make_ring(R.GF(3, 2)))
    assert not is_reduced(R.make_ring(R.FamA(2, 3)))
    assert is_reduced(R.make_ring(R.Product((R.GF(2), R.GF(3)))))
    assert not is_reduced(R.make_ring(R.Product((R.Zn(4), R.GF(3)))))


def test_reduced_iff_no_nonzero_nilpotent(small_rings):
    for spec, ring in small_rings:
        expected = not any(is_nilpotent(ring, a) for a in range(1, ring.size))
        assert is_reduced(ring) == expected, spec


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1)])
def test_gf_multiplicative_group(p, k):
    ring = R.make_ring(R.GF(p, k))
    order = p ** k - 1
    for a in range(1, ring.size):
        acc = ring.one
        for _ in range(order):
            acc = ring.mul(acc, a)
        assert acc == ring.one


def test_construction_errors():
    with pytest.raises(CompositePrimeError):
        R.GF(6)
    with pytest.raises(CompositePrimeError):
        R.FamA(4, 2)
    with pytest.raises(NonMonicModulus):
        R.MonicQuotient(R.Zn(4), (1, 2))
    with pytest.raises(NonMonicModulus):
        R.MonicQuotient(R.Zn(4), (1,))
    with pytest.raises(SizeCapExceeded):
        R.make_ring(R.FamB(7))  # 7^7 is over the default cap
    with pytest.raises(SizeCapExceeded):
        R.make_ring(R.Zn(50), cap=10)


def test_product_flattening():
    spec = R.Product((R.Zn(2), R.Product((R.Zn(3), R.Zn(5)))))
    assert spec.factors == (R.Zn(2), R.Zn(3), R.Zn(5))


def test_gf_modulus_is_smallest_irreducible():
    assert R.find_irreducible(2, 2) == (1, 1, 1)
    assert R.find_irreducible(2, 3) == (1, 1, 0, 1)
    assert R.find_irreducible(3, 2) == (1, 0, 1)


def test_annihilator_keys_group_equal_annihilators(small_rings):
    """Equal keys must imply equal annihilator sets, both the reference keys
    and the builder's classes, which rely on it."""
    for spec, ring in small_rings:
        if ring.size > 100:
            continue
        anns = [frozenset(b for b in range(ring.size) if ring.mul(a, b) == 0)
                for a in range(ring.size)]
        for keys in (annihilator_keys(ring), G._annihilator_classes(ring)[0].tolist()):
            by_key = {}
            for a in range(ring.size):
                by_key.setdefault(keys[a], set()).add(anns[a])
            for key, group in by_key.items():
                assert len(group) == 1, (spec, key)
