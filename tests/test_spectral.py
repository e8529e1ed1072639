import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import charpoly_mod_reference, random_graph

from zdgraph import graphs as G
from zdgraph import rings as R
from zdgraph import spectral as S
from zdgraph import threshold as T
from zdgraph.errors import MixedBlock, NotEquitable


@pytest.fixture(scope="module")
def order10():
    g = T.build_threshold_from_code("0000111001")
    part = T.run_block_partition("0000111001")
    return g, part


def test_quotient_matrix_of_order10(order10):
    g, part = order10
    qm = S.equitable_quotient_matrix(g, part)
    assert qm.rows() == [[0, 3, 0, 1], [4, 2, 0, 1], [0, 0, 0, 1], [4, 3, 2, 0]]
    assert qm.part_sizes == (4, 3, 2, 1)
    assert qm.part_kinds == ("independent", "clique", "independent", "clique")


def test_quotient_charpoly_and_multiplicities(order10):
    g, part = order10
    qm = S.equitable_quotient_matrix(g, part)
    poly = S.char_poly(qm)
    assert poly.coeffs == (1, -2, -21, -12, 24)
    assert poly.to_text() == "x^4-2x^3-21x^2-12x+24"
    assert S.eigenvalue_multiplicity(g, 0) == 4
    assert S.eigenvalue_multiplicity(g, -1) == 2


def test_full_charpoly_factorization(order10):
    g, part = order10
    qm = S.equitable_quotient_matrix(g, part)
    qpoly = S.char_poly(qm)
    full = S.char_poly(g)
    x4 = S.IntPolynomial((1, 0, 0, 0, 0))
    xp1 = S.IntPolynomial((1, 1))
    assert (x4 * xp1 * xp1 * qpoly).coeffs == full.coeffs
    quotient, rem = full.divmod_exact(qpoly)
    assert not any(rem)
    assert quotient.coeffs == (x4 * xp1 * xp1).coeffs


def test_single_block_and_simple_matrices():
    k5 = G.complete_graph(5)
    part = G.make_partition([("all", range(5))], "custom", 5)
    qm = S.equitable_quotient_matrix(k5, part)
    assert qm.rows() == [[4]]
    assert S.char_poly([[0] * 3 for _ in range(3)]).to_text() == "x^3"
    kn = S.char_poly(G.complete_graph(4))
    factored = S.IntPolynomial((1, -3)) * S.IntPolynomial((1, 1)) * S.IntPolynomial((1, 1)) * S.IntPolynomial((1, 1))
    assert kn.coeffs == factored.coeffs


def test_z27_quotient():
    ring = R.make_ring(R.Zn(27))
    g = G.build_zero_divisor_graph(ring)
    qm = S.equitable_quotient_matrix(g, G.gcd_class_partition(ring))
    assert [qm.entries[i][i] for i in range(4)] == [0, 0, 1, 0]
    assert qm.rows() == [[0, 0, 0, 1], [0, 0, 2, 1], [0, 6, 1, 1], [18, 6, 2, 0]]
    assert S.char_poly(qm).divides(S.char_poly(g))


def test_star_multiplicities():
    g5 = G.build_zero_divisor_graph(R.make_ring(R.GF(5)))
    assert S.eigenvalue_multiplicity(g5, 0) == 3
    assert S.eigenvalue_multiplicity(G.complete_graph(6), -1) == 5


def test_equitability_rejection():
    p4 = G.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    part = G.make_partition([("B0", (0, 1)), ("B1", (2, 3))], "custom", 4)
    with pytest.raises((NotEquitable, MixedBlock)):
        S.equitable_quotient_matrix(p4, part)
    # mixed block: a triangle plus pendant inside one block
    g = G.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    part = G.make_partition([("B0", (0, 1, 2, 3))], "custom", 4)
    with pytest.raises(MixedBlock):
        S.equitable_quotient_matrix(g, part)


def test_not_equitable_carries_location():
    # block {1,2} joins block {3} for vertex 2 only
    g = G.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    part = G.make_partition([("Z", (0,)), ("M", (1, 2)), ("E", (3,))], "custom", 4)
    with pytest.raises(NotEquitable) as info:
        S.equitable_quotient_matrix(g, part)
    assert info.value.block_label == "E"
    assert info.value.vertex in (1, 2)


P61 = (1 << 61) - 1


def _det_mod(rows, p=P61) -> int:
    """det mod p by Gaussian elimination: a reference that shares no code
    with the library's charpoly."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


def _assert_charpoly_matches_det(rows, poly, what):
    """det(x0 I - M) == poly(x0) mod P61 at n+1 points pins poly mod P61."""
    n = len(rows)
    assert poly.degree == n and poly.coeffs[0] == 1, what
    for x0 in range(n + 1):
        shifted = [[(x0 if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
        assert _det_mod(shifted) == poly(x0) % P61, (what, x0)


def _adjacency(g):
    return [[(g.rows[u] >> v) & 1 for v in range(g.n)] for u in range(g.n)]


def _fraction_rank(rows) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


RANK_SPECS = [R.Zn(12), R.Zn(27), R.Zn(36), R.FamA(2, 3), R.FamC(2),
              R.Product((R.Zn(4), R.Zn(4))), R.Product((R.GF(3), R.GF(3)))]


def test_charpoly_cross_validation_and_determinant():
    """Random integer matrices, negative entries included: the charpoly
    agrees with an independent modular determinant of x0 I - M."""
    rng = random.Random(17)
    for n in (1, 2, 3, 8, 20, 33, 41):
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        _assert_charpoly_matches_det(rows, S.char_poly(rows), n)
    assert S.char_poly([[2 ** 70, 1], [0, -3]]).coeffs == (1, 3 - 2 ** 70, -3 * 2 ** 70)


def test_batched_kernel_matches_per_prime_reference():
    """Every residue of the batched kernel equals the per-prime reference,
    also where a pivot or a whole column vanishes modulo one prime only."""
    primes = S._primes_for_crt(2 ** 200, 26)
    p0 = S._primes_for_crt(1, 26)[0]
    assert p0 == primes[0] == 67108859
    rng = random.Random(23)
    mats = []
    for n in (1, 2, 3, 5, 12, 30, 47):
        mats.append([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        mats.append([[rng.choice((0, 0, 0, 0, 1, -2)) for _ in range(n)] for _ in range(n)])
    for n in (4, 9, 16):
        # subdiagonal multiples of p0: only p0 must swap rows to find a pivot
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        for j in range(n - 1):
            rows[j + 1][j] = p0 * rng.randrange(1, 3)
        mats.append(rows)
        # a first column that vanishes mod p0 below the diagonal: p0 skips the step
        rows = [row[:] for row in rows]
        for i in range(1, n):
            rows[i][0] = p0 * rng.randrange(-2, 3)
        mats.append(rows)
    for rows in mats:
        got = S._charpoly_mod(np.array(rows, dtype=np.int64), np.array(primes, dtype=np.int64))
        for p, res in zip(primes, got.tolist()):
            assert res == charpoly_mod_reference(rows, p), (len(rows), p)
        _assert_charpoly_matches_det(rows, S.char_poly(rows), len(rows))


def test_chunks_of_primes_give_the_same_polynomial(monkeypatch):
    rng = random.Random(31)
    mats = [[[rng.randrange(-20, 21) for _ in range(n)] for _ in range(n)] for n in (3, 17, 40)]
    whole = [S.char_poly(rows) for rows in mats]
    monkeypatch.setattr(S, "_CHUNK_ENTRIES", 1)  # one prime per chunk
    assert [S.char_poly(rows) for rows in mats] == whole


def _square_sum(m) -> int:
    """tr(Q^2) for a quotient matrix, whose spectrum is real; the squared
    Frobenius norm of anything else (Schur's inequality)."""
    rows = m.rows() if isinstance(m, S.QuotientMatrix) else m
    n = len(rows)
    if isinstance(m, S.QuotientMatrix) and all(
            m.part_sizes[i] * rows[i][j] == m.part_sizes[j] * rows[j][i]
            for i in range(n) for j in range(n)):
        return sum(rows[i][j] * rows[j][i] for i in range(n) for j in range(n))
    return sum(x * x for row in rows for x in row)


def test_coefficients_within_the_bound():
    """|c_k| <= C(n,k) (s/n)^(k/2) for every k, checked exactly as
    c_k^2 n^k <= C(n,k)^2 s^k, and the library's bound covers them all.
    Rotations have tr(A^2) < 0 < sum |lambda|^2, so plain rows and quotient
    matrices that are not symmetrizable must take the Frobenius form."""
    mats = []
    for spec in RANK_SPECS + [R.Zn(720), R.Zn(2310), R.Product((R.Zn(4), R.Zn(8), R.Zn(9)))]:
        g = G.build_zero_divisor_graph(R.make_ring(spec))
        mats.append(S.equitable_quotient_matrix(g, G.twin_partition(g)))
    rng = random.Random(8)
    for _ in range(20):
        bits = "0" + "".join(rng.choice("01") for _ in range(rng.randrange(1, 40)))
        mats.append(S.equitable_quotient_matrix(T.build_threshold_from_code(bits),
                                                T.run_block_partition(bits)))
    for n in (1, 2, 3, 6, 10, 25):
        mats.append([[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)])
    mats += [[[0, -1], [1, 0]], [[0, -3], [3, 0]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
             S.QuotientMatrix(((0, -3), (3, 0)), (1, 1), ("clique", "clique"), ("a", "b")),
             [[1] * 7 for _ in range(7)], [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]]]
    assert any(sum(r[i][j] * r[j][i] for i in range(len(r)) for j in range(len(r))) < 0
               for r in map(S._as_int_rows, mats))
    for m in mats:
        rows = S._as_int_rows(m)
        n, s = len(rows), _square_sum(m)
        coeffs = S.char_poly(m).coeffs
        for k, c in enumerate(coeffs):
            assert c * c * n ** k <= math.comb(n, k) ** 2 * s ** k, (rows, k)
        assert max(map(abs, coeffs)) <= S._charpoly_coeff_bound(m, rows)


def test_bound_of_a_64_class_quotient():
    """A work count instead of a time bound: the Z/30030 twin quotient needs
    a bound of at most 450 bits, so at most 18 primes of 26 bits."""
    g = G.build_zero_divisor_graph(R.make_ring(R.Zn(30030)))
    qm = S.equitable_quotient_matrix(g, G.twin_partition(g))
    bound = S._charpoly_coeff_bound(qm, qm.rows())
    assert qm.size == 64 and bound.bit_length() <= 450
    assert max(map(abs, S.char_poly(qm).coeffs)) <= bound


def test_graph_charpoly_runs_the_kernel_once(monkeypatch):
    """char_poly(g) is kept on the graph, and the multiplicities read it."""
    calls = []
    kernel = S._charpoly_crt
    monkeypatch.setattr(S, "_charpoly_crt", lambda *args: calls.append(1) or kernel(*args))
    g = G.build_zero_divisor_graph(R.make_ring(R.Zn(36)))
    full = S.char_poly(g)
    assert S.eigenvalue_multiplicity(g, 0) == full.root_multiplicity(0) > 0
    assert S.eigenvalue_multiplicity(g, -1) == full.root_multiplicity(-1)
    assert S.char_poly(g) is full and len(calls) == 1
    # kept per graph, not per matrix value: an equal graph runs the kernel again
    assert S.char_poly(G.Graph(g.n, list(g.rows))) == full and len(calls) == 2


def test_graph_charpoly_matches_determinant():
    """The twin-quotient factorisation of graph charpolys, checked against
    dense modular determinants on ring graphs, random code graphs and random
    graphs with few or no twins."""
    graphs = [(spec, G.build_zero_divisor_graph(R.make_ring(spec)))
              for spec in RANK_SPECS + [R.Zn(30), R.Product((R.Zn(2), R.GF(3, 2)))]]
    rng = random.Random(99)
    for _ in range(12):
        n = rng.randrange(1, 30)
        bits = "0" + "".join(rng.choice("01") for _ in range(n - 1))
        graphs.append((bits, T.build_threshold_from_code(bits)))
    for _ in range(12):
        n = rng.randrange(1, 30)
        graphs.append((f"random {n}", random_graph(rng, n, 0.5)))
    assert any(len(G.twin_partition(g).blocks) == g.n > 10 for _, g in graphs)
    for what, g in graphs:
        _assert_charpoly_matches_det(_adjacency(g), S.char_poly(g), what)


def test_rank_multiplicity_equals_charpoly_root_order():
    """n - rank(A - lam I), by exact rational elimination in the test, must
    equal the multiplicity the library reads off the charpoly."""
    for spec in RANK_SPECS:
        g = G.build_zero_divisor_graph(R.make_ring(spec))
        for lam in (0, -1):
            rows = _adjacency(g)
            for i in range(g.n):
                rows[i][i] -= lam
            assert S.eigenvalue_multiplicity(g, lam) == g.n - _fraction_rank(rows), (spec, lam)


def test_multiplicity_consistency_factorization():
    """n = m0 + m1 + deg(rest) with rest(0) != 0 and rest(-1) != 0."""
    for spec in [R.Zn(27), R.Zn(16), R.FamA(2, 2), R.Product((R.Zn(2), R.GF(5)))]:
        g = G.build_zero_divisor_graph(R.make_ring(spec))
        poly = S.char_poly(g)
        m0 = S.eigenvalue_multiplicity(g, 0)
        m1 = S.eigenvalue_multiplicity(g, -1)
        rest = poly
        for _ in range(m0):
            rest, rem = rest.divmod_exact(S.IntPolynomial((1, 0)))
            assert not any(rem)
        for _ in range(m1):
            rest, rem = rest.divmod_exact(S.IntPolynomial((1, 1)))
            assert not any(rem)
        assert rest(0) != 0 and rest(-1) != 0
        assert m0 + m1 + rest.degree == g.n


def test_run_partition_equitable_and_divides_on_random_codes():
    """Run blocks of any code-built graph form an equitable partition whose
    quotient charpoly divides the adjacency charpoly."""
    rng = random.Random(404)
    for _ in range(150):
        n = rng.randrange(1, 25)
        bits = "0" + "".join(rng.choice("01") for _ in range(n - 1))
        g = T.build_threshold_from_code(bits)
        part = T.run_block_partition(bits)
        qm = S.equitable_quotient_matrix(g, part)
        assert S.char_poly(qm).divides(S.char_poly(g)), bits


def test_charpoly_crt_matches_known_spectra_at_scale():
    """Closed-form charpolys of complete and star graphs at sizes that take
    the modular reconstruction path."""
    n = 150
    poly = S.char_poly(G.complete_graph(n))
    expected = S.IntPolynomial((1, -(n - 1)))
    for _ in range(n - 1):
        expected = expected * S.IntPolynomial((1, 1))
    assert poly.coeffs == expected.coeffs

    m = 200
    star = G.Graph.from_edges(m + 1, [(0, v) for v in range(1, m + 1)])
    poly = S.char_poly(star)
    expected = S.IntPolynomial((1, 0, -m))
    for _ in range(m - 1):
        expected = expected * S.IntPolynomial((1, 0))
    assert poly.coeffs == expected.coeffs


def test_polynomial_text_rendering():
    assert S.IntPolynomial((1, 0, -6, -8, -3)).to_text() == "x^4-6x^2-8x-3"
    assert S.IntPolynomial((1, 1)).to_text() == "x+1"
    assert S.IntPolynomial((1, 0)).to_text() == "x"
    assert S.IntPolynomial((1,)).to_text() == "1"
    assert S.IntPolynomial((1, -2, -21, -12, 24)).to_json_list() == [1, -2, -21, -12, 24]


def test_twin_partition_is_always_equitable(small_rings):
    from zdgraph.graphs import build_zero_divisor_graph, twin_partition

    for spec, ring in small_rings:
        g = build_zero_divisor_graph(ring)
        qm = S.equitable_quotient_matrix(g, twin_partition(g))  # must not raise
        assert sum(qm.part_sizes) == g.n
