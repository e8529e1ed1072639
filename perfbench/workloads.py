"""The benchmark's workloads: seeded inputs, the timed operation, and checks.

Each workload turns a seeded ``random.Random`` into an endless stream of
``Op`` values.  Ops come in rounds: a round visits every stratum of the
workload once, in a fixed order, and the seed picks which input of each
stratum is used.  Strata group inputs of similar cost, so a run of any seed
executes the same mix of work; only the inputs inside each stratum change.
Dear and cheap strata alternate within a round, so a run that ends
mid-round still has about a round's average cost per op.

``Op.run`` is the timed part and calls the library only.  ``Op.check``
compares the result against references computed here, outside the timing,
and returns a list of failure messages (empty when the output is correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

# ---------------------------------------------------------------------------
# Small number theory, independent of the library
# ---------------------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def divisor_count(n: int) -> int:
    return math.prod(e + 1 for e in factorize(n).values())


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant modulo the prime p by Gaussian elimination."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                row_r, row_c = a[r], a[c]
                for j in range(c, n):
                    row_r[j] = (row_r[j] - f * row_c[j]) % p
    return det % p


_P61 = (1 << 61) - 1


def charpoly_matches_det(coeffs, rows: list[list[int]], x0: int) -> bool:
    """det(x0*I - M) == charpoly(x0), both modulo 2^61 - 1."""
    n = len(rows)
    shifted = [[(x0 if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
    value = 0
    for c in coeffs:
        value = (value * x0 + c) % _P61
    return det_mod(shifted, _P61) == value


# ---------------------------------------------------------------------------
# Reference answers
# ---------------------------------------------------------------------------

# Ring families by construction: local rings give threshold graphs, as does
# a product of a 2-element field with a field; every other product does not.
# Each factor is (kind, size) with kind "field", "local" (non-field local).


def zn_modulus(expr: str) -> int | None:
    """n for a plain "Z/n" expression, else None."""
    return int(expr[2:]) if expr.startswith("Z/") and expr[2:].isdigit() else None


def zn_factors(n: int) -> list[tuple[str, int]]:
    return [("field" if e == 1 else "local", p ** e) for p, e in factorize(n).items()]


def expected_threshold(factors: list[tuple[str, int]]) -> bool:
    if len(factors) == 1:
        return True
    if len(factors) == 2:
        (k1, q1), (k2, q2) = factors
        return k1 == k2 == "field" and min(q1, q2) == 2
    return False


def degrees_from_code(bits: str) -> list[int]:
    """Degrees of the graph a creation sequence builds, in build order."""
    ones_after = bits.count("1")
    out = []
    for i, b in enumerate(bits):
        if b == "1":
            ones_after -= 1
            out.append(i + ones_after)
        else:
            out.append(ones_after)
    return out


def brute_force_rows(n: int, mul) -> list[int]:
    """Adjacency bit rows straight from x*y == 0."""
    rows = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            if mul(x, y) == 0:
                rows[x] |= 1 << y
                rows[y] |= 1 << x
    return rows


def triangle_count(rows: list[int]) -> int:
    total = 0
    for u, row in enumerate(rows):
        high = row >> (u + 1)
        v = u + 1
        while high:
            if high & 1:
                total += (row & rows[v]).bit_count()
            high >>= 1
            v += 1
    return total // 3


def charpoly_invariant_failures(coeffs, rows: list[int]) -> list[str]:
    """Adjacency charpoly x^n + c1 x^(n-1) + ...: c1 = 0, c2 = -edges, c3 = -2 triangles."""
    n = len(rows)
    edges = sum(r.bit_count() for r in rows) // 2
    want = [1, 0, -edges, -2 * triangle_count(rows)]
    got = list(coeffs[:4])
    if len(coeffs) != n + 1 or got != want[:len(got)]:
        return [f"charpoly head {got} != {want[:len(got)]} (degree {len(coeffs) - 1}, n {n})"]
    return []


def partition_failures(blocks, n: int, what: str) -> list[str]:
    seen = [False] * n
    for block in blocks:
        for v in block:
            if v < 0 or v >= n or seen[v]:
                return [f"{what}: vertex {v} repeated or out of range"]
            seen[v] = True
    if not all(seen):
        return [f"{what}: does not cover all {n} vertices"]
    return []


def refines(fine, coarse, n: int) -> bool:
    owner = [0] * n
    for i, block in enumerate(coarse):
        for v in block:
            owner[v] = i
    return all(len({owner[v] for v in block}) == 1 for block in fine)


# ---------------------------------------------------------------------------
# Ops and the round-robin stream
# ---------------------------------------------------------------------------


@dataclass
class Op:
    stratum: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # input properties of one executed op, for the run's record
    props: Callable[[object], dict]


def rounds(rng: random.Random, strata: list[tuple[str, list]], make_op) -> Iterator[Op]:
    """Visit the strata in order, forever; each stratum deals its pool in a
    seeded order and reshuffles once the pool is used up."""
    decks = {name: [] for name, _ in strata}
    while True:
        for name, pool in strata:
            deck = decks[name]
            if not deck:
                deck.extend(pool)
                rng.shuffle(deck)
            yield make_op(name, deck.pop())


# ---------------------------------------------------------------------------
# large-rings
# ---------------------------------------------------------------------------

# element counts of the large rings: Z/n is dense in n and takes the middle
# of the band, which keeps the cost of one stratum within about 15 %; the
# other families have few members and take the whole band
LARGE_BAND = (12_000, 16_000)
LARGE_ZN_BAND = (14_000, 15_000)


def large_ring_strata(band, zn_band) -> list[tuple[str, list]]:
    """Ring expressions grouped so that one stratum's members cost about the same.

    Composite Z/n split three ways.  The lexicographic 4-cycle oracle scans
    every unit below the smallest prime factor, so n whose smallest prime is
    17 or 19 form their own stratum; even n split by class count, which sets
    the cost of the quotient.  GF keeps degree 2 or 3, as the key
    cost grows with the degree.  Each entry is (expression, factors, twin classes).
    """
    lo, hi = band
    prime_powers = [(f"Z/{q}", zn_factors(q), e + 1) for p in range(2, math.isqrt(hi) + 1)
                    if is_prime(p) for e in range(2, hi.bit_length())
                    for q in [p ** e] if lo <= q <= hi]
    primes, few, many, oracle = [], [], [], []
    for n in range(zn_band[0], zn_band[1] + 1):
        f = factorize(n)
        entry = (f"Z/{n}", zn_factors(n))
        if len(f) == 1:
            if n in f:
                primes.append(entry + (2,))
            continue
        d = divisor_count(n)
        if min(f) in (17, 19):
            oracle.append(entry + (d,))
        elif min(f) == 2 and d <= 8:
            few.append(entry + (d,))
        elif min(f) == 2 and 24 <= d <= 32:
            many.append(entry + (d,))
    fam_a, fam_d, gf = [], [], []
    for p in range(2, math.isqrt(hi) + 1):
        if not is_prime(p):
            continue
        for q in (p * p, p ** 3):
            if lo <= q <= hi:
                gf.append((f"GF({q})", [("field", q)], 2))
        if lo <= p ** 3 <= hi:
            fam_d.append((f"FamD({p})", [("local", p ** 3)], 4))
        for a in range(1, hi.bit_length()):
            q = p ** (a + 1)
            if lo <= q <= hi:
                # alpha = 1 splits the nonzero non-units in two when p is odd
                twins = a + 1 if a >= 2 or p == 2 else 3
                fam_a.append((f"FamA({p},{a})", [("local", q)], twins))
    # zn-many-classes comes twice per round, and the cheap zn-prime twice to
    # balance it, so that as many ops per round cost less than zn-many-classes
    # as cost more: the median op falls in the middle of that stratum's cost
    # cluster rather than at one of its edges
    many_classes = ("zn-many-classes", many)
    zn_prime = ("zn-prime", primes)
    return [
        ("zn-oracle-scan", oracle),
        zn_prime,
        ("gf", gf),
        many_classes,
        ("zn-few-classes", few),
        ("fam-a", fam_a),
        zn_prime,
        many_classes,
        ("zn-prime-power", prime_powers),
        ("fam-d", fam_d),
    ]


def large_rings(lib, rng: random.Random, smoke: bool = False) -> Iterator[Op]:
    strata = large_ring_strata(*(((600, 1000), (700, 800)) if smoke
                                 else (LARGE_BAND, LARGE_ZN_BAND)))
    strata = [(name, pool) for name, pool in strata if pool]

    def make_op(stratum, entry):
        expr, factors, twins_expected = entry
        pair_rng = random.Random(rng.random())

        def run():
            spec = lib.ringexpr.parse_ring_spec(expr)
            ring = lib.rings.make_ring(spec)
            g = lib.graphs.build_zero_divisor_graph(ring)
            res = lib.threshold.is_threshold(g)
            witness_ok = res.is_threshold or res.witness.validate(g)
            cycle = lib.threshold.find_alternating_four_cycle(g)
            twins = lib.graphs.twin_partition(g)
            orbits = lib.orbits.aut_orbits(g)
            q = lib.spectral.equitable_quotient_matrix(g, twins)
            qpoly = lib.spectral.char_poly(q)
            return ring, g, res, witness_ok, cycle, twins, orbits, q, qpoly

        def check(out):
            ring, g, res, witness_ok, cycle, twins, orbits, q, qpoly = out
            fails = []
            n = ring.size
            if g.n != n or n != math.prod(s for _, s in factors):
                fails.append(f"size {g.n} != {math.prod(s for _, s in factors)}")
            want = expected_threshold(factors)
            if res.is_threshold != want:
                fails.append(f"verdict threshold={res.is_threshold}, expected {want}")
            if not witness_ok:
                fails.append("is_threshold witness does not validate")
            if (cycle is None) != want or (cycle is not None and not cycle.validate(g)):
                fails.append(f"four-cycle oracle returned {cycle}")
            if res.is_threshold and sorted(degrees_from_code(res.code.bits)) != sorted(g.degrees()):
                fails.append("creation sequence degrees differ from the graph")
            mul = (lambda x, y: x * y % n) if zn_modulus(expr) else ring.mul
            for _ in range(64):
                x, y = pair_rng.randrange(n), pair_rng.randrange(n)
                if x != y and g.adjacent(x, y) != (mul(x, y) == 0):
                    fails.append(f"adjacency of {x},{y} disagrees with x*y == 0")
                    break
            tb = [b for _, b in twins.blocks]
            fails += partition_failures(tb, n, "twin partition")
            if twins_expected is not None and len(tb) != twins_expected:
                fails.append(f"{len(tb)} twin classes, expected {twins_expected}")
            ob = [b for _, b in orbits.blocks]
            fails += partition_failures(ob, n, "orbits")
            if not refines(tb, ob, n):
                fails.append("twin classes do not refine the orbits")
            for i, block in enumerate(tb):
                if sum(q.entries[i]) != g.degree(block[0]):
                    fails.append(f"quotient row {i} sums to {sum(q.entries[i])}, degree {g.degree(block[0])}")
                    break
            if qpoly.degree != len(tb) or not charpoly_matches_det(qpoly.coeffs, q.rows(), 3):
                fails.append("quotient charpoly disagrees with det(3I - Q)")
            return fails

        def props(out):
            return {"elements": out[0].size, "twin_classes": len(out[5].blocks)}

        return Op(stratum, expr, run, check, props)

    return rounds(rng, strata, make_op)


# ---------------------------------------------------------------------------
# claim-sweep
# ---------------------------------------------------------------------------

# field sizes of the reduced-classification points: pairs from the default
# grid's sizes up to 11 (the full ten-size default point is one 20 s call)
REDUCED_SIZES = (2, 3, 4, 5, 7, 8, 9, 11)
# product rings up to this many elements; 4096..10^4-element products take
# 0.4-4 s per call, too uneven for a steady run of a few tens of seconds
PRODUCT_SIZE_CAP = 2916
# default-grid local-family points of 1.3-3.1 s per call; they are large-ring
# work (FamA with 2^15..5^7 elements), which large-rings measures
HEAVY_LOCAL_POINTS = {(2, 14), (2, 15), (3, 9), (5, 6)}


def local_family_elements(p: int, a: int, cap: int) -> int:
    """Elements over the rings verify_local_families(p, a) builds."""
    sizes = (p ** (a + 1), p ** p, p ** 4, p ** 3, p ** a)
    return sum(s for s in sizes if s <= cap)


def claim_strata(lib, smoke: bool) -> list[tuple[str, list]]:
    """Strata of verify_* points.  Each claim family is split where its cost
    per call spreads widely, using ring size as the measure of cost."""
    V = lib.verify
    cfg = V.SweepConfig()
    if smoke:
        cfg.primes, cfg.adjacency_max, cfg.orbit_claim_max = (2, 3), 30, 30
        cfg.local_family_cap = 200

    def alphas(p: int, bound: int):
        a = 1
        while p ** a <= bound:
            yield a
            a += 1

    chain = [(p, a) for p in cfg.primes for a in alphas(p, cfg.adjacency_max)]
    local = [(p, a) for p in cfg.primes for a in alphas(p, cfg.local_family_cap)
             if (p, a) not in HEAVY_LOCAL_POINTS]
    local_split = 200 if smoke else 3000
    specs = V.product_sweep_specs(200 if smoke else PRODUCT_SIZE_CAP)
    sizes = REDUCED_SIZES[:4] if smoke else REDUCED_SIZES
    pairs = [(q1, q2) for i, q1 in enumerate(sizes) for q2 in sizes[i + 1:]]

    def products(lo, hi):
        return [("verify_nonthreshold_products", ([s],)) for s in specs
                if lo < lib.rings.spec_size(s) <= hi]

    def locals_(heavy):
        return [("verify_local_families", pt) for pt in local
                if (local_family_elements(*pt, cfg.local_family_cap) >= local_split) == heavy]

    # orbit-claim is the bulk of the default grid (199 of its points) and
    # comes nine times per round, so the median op falls inside its cluster
    # of sub-millisecond calls rather than in the gap above it
    orbit_claim = ("orbit-claim", [("verify_orbit_claim", (n,))
                                   for n in range(2, cfg.orbit_claim_max + 1)])
    return [orbit_claim] * 3 + [
        ("adjacency-lemma", [("verify_adjacency_lemma", pt) for pt in chain]),
        orbit_claim,
        ("local-families-large", locals_(heavy=True)),
        ("orbit-sizes", [("verify_orbit_size_formulas", pt) for pt in chain]),
        orbit_claim,
        ("products-2k", products(2000, 10_000)),
        ("join-decomposition", [("verify_join_decomposition", pt) for pt in chain]),
        orbit_claim,
        ("reduced-classification-small", [("verify_reduced_classification", ([q1, q2],))
                                          for q1, q2 in pairs if q2 <= 7]),
        ("local-families-small", locals_(heavy=False)),
        ("products-tiny", products(0, 150)),
        orbit_claim,
        ("products-1k", products(1000, 2000)),
        orbit_claim,
        ("products-small", products(150, 1000)),
        orbit_claim,
        ("reduced-classification-large", [("verify_reduced_classification", ([q1, q2],))
                                          for q1, q2 in pairs if q2 > 7]),
        orbit_claim,
    ]


def claim_sweep(lib, rng: random.Random, smoke: bool = False) -> Iterator[Op]:
    strata = [(name, pool) for name, pool in claim_strata(lib, smoke) if pool]

    def make_op(stratum, entry):
        fn_name, args = entry

        def run():
            return getattr(lib.verify, fn_name)(*args)

        def check(report):
            if report.verdict == "fail" and not report.informational:
                return [f"hard failure: {report.to_json_line()}"]
            if lib.verify.hard_failures([report]):
                return ["hard_failures() lists the report"]
            if report.verdict not in ("pass", "fail"):
                return [f"verdict {report.verdict!r}"]
            return []

        def props(report):
            if fn_name != "verify_nonthreshold_products":
                return {}
            return {"product_elements": lib.rings.spec_size(args[0][0])}

        return Op(stratum, f"{fn_name}{args!r}", run, check, props)

    return rounds(rng, strata, make_op)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

# local rings of 49-128 elements, with their sizes
SPECTRA_LOCAL = (("Z/49", 49), ("Z/64", 64), ("Z/81", 81), ("Z/121", 121), ("Z/125", 125),
                 ("FamA(2,5)", 64), ("FamA(2,6)", 128), ("FamA(3,3)", 81), ("FamA(5,2)", 125),
                 ("FamA(7,1)", 49), ("FamA(11,1)", 121), ("FamC(3)", 81), ("FamD(5)", 125),
                 ("GF(64)", 64), ("GF(81)", 81), ("GF(121)", 121), ("GF(125)", 125),
                 ("Z/4[x]/(x^3)", 64), ("Z/2[x]/(x^6)", 64), ("Z/8[x]/(x^2)", 64),
                 ("Z/9[x]/(x^2)", 81))
# product factors: (expression, kind, size)
SMALL_FACTORS = (("Z/2", "field", 2), ("Z/3", "field", 3), ("Z/4", "local", 4),
                 ("Z/5", "field", 5), ("Z/7", "field", 7), ("Z/8", "local", 8),
                 ("Z/9", "local", 9), ("GF(4)", "field", 4), ("GF(8)", "field", 8),
                 ("GF(9)", "field", 9), ("Z/4[x]/(x^2)", "local", 16),
                 ("FamA(2,2)", "local", 8))


def small_products(lo: int, hi: int) -> list[tuple[str, list]]:
    out = []
    n = len(SMALL_FACTORS)
    for i in range(n):
        for j in range(i, n):
            combos = [(i, j)] + [(i, j, k) for k in range(j, n)]
            for combo in combos:
                parts = [SMALL_FACTORS[c] for c in combo]
                size = math.prod(p[2] for p in parts)
                if lo <= size <= hi:
                    out.append((" x ".join(p[0] for p in parts), [(p[1], p[2]) for p in parts]))
    return out


def spectra_strata(smoke: bool) -> list[tuple[str, list]]:
    """Narrow size bands per graph family, so that the op costs of a round
    cover 30-600 ms without gaps and the median op falls inside a band."""
    def zn(lo, hi):
        return (f"zn-{lo}", [("ring", f"Z/{n}") for n in range(lo, hi)])

    def codes(lo, hi):
        return (f"code-{lo}", [("code", n) for n in range(lo, hi)])

    def rings(name, lo, hi, exprs):
        return (name, [("ring", e) for e, size in exprs if lo <= size < hi])

    local = SPECTRA_LOCAL
    products = [(e, math.prod(s for _, s in f)) for e, f in small_products(50, 150)]
    if smoke:
        return [zn(20, 30), rings("local", 16, 30, [("Z/27", 27), ("FamC(2)", 16)]),
                codes(20, 34), codes(34, 40)]
    return [zn(50, 70), zn(150, 175), codes(50, 70), rings("local-small", 0, 100, local),
            zn(130, 150), rings("product-small", 50, 90, products), codes(90, 110),
            zn(70, 90), rings("local-large", 100, 200, local), codes(70, 90), zn(110, 130),
            rings("product-large", 90, 151, products), zn(90, 110)]


def spectra(lib, rng: random.Random, smoke: bool = False) -> Iterator[Op]:
    strata = spectra_strata(smoke)
    S = lib.spectral

    def make_op(stratum, entry):
        source, value = entry
        sample_rng = random.Random(rng.random())
        if source == "code":
            bits = "0" + "".join(sample_rng.choice("01") for _ in range(value - 1))
            label = f"code:{bits}"
        else:
            label = value
        brute_check = sample_rng.random() < 0.5

        def run():
            ring = None
            if source == "code":
                g = lib.threshold.build_threshold_from_code(bits)
                parts = [lib.graphs.twin_partition(g), lib.threshold.run_block_partition(bits)]
            else:
                ring = lib.rings.make_ring(lib.ringexpr.parse_ring_spec(value))
                g = lib.graphs.build_zero_divisor_graph(ring)
                parts = [lib.graphs.twin_partition(g)]
                if zn_modulus(value):
                    parts.append(lib.graphs.gcd_class_partition(ring))
            full = S.char_poly(g)
            quotients = []
            for part in parts:
                qpoly = S.char_poly(S.equitable_quotient_matrix(g, part))
                _, rem = full.divmod_exact(qpoly)
                quotients.append((part, qpoly, rem))
            m0 = S.eigenvalue_multiplicity(g, 0)
            m1 = S.eigenvalue_multiplicity(g, -1)
            return ring, g, full, quotients, m0, m1

        def check(out):
            ring, g, full, quotients, m0, m1 = out
            fails = []
            if source == "code":
                if sorted(degrees_from_code(bits)) != sorted(g.degrees()) or g.n != len(bits):
                    fails.append("graph degrees differ from the creation sequence")
            elif brute_check and g.n <= 200:
                n = ring.size
                mul = (lambda x, y: x * y % n) if zn_modulus(value) else ring.mul
                if brute_force_rows(n, mul) != g.rows:
                    fails.append("graph differs from the brute-force x*y == 0 build")
            fails += charpoly_invariant_failures(full.coeffs, g.rows)
            for part, qpoly, rem in quotients:
                if any(rem):
                    fails.append(f"{part.kind} quotient charpoly does not divide the full one")
                if qpoly.degree != len(part.blocks):
                    fails.append(f"{part.kind} quotient charpoly has degree {qpoly.degree}")
            if m0 != full.root_multiplicity(0):
                fails.append(f"multiplicity of 0 is {m0}, charpoly says {full.root_multiplicity(0)}")
            if m1 != full.root_multiplicity(-1):
                fails.append(f"multiplicity of -1 is {m1}, charpoly says {full.root_multiplicity(-1)}")
            return fails

        def props(out):
            return {"vertices": out[1].n, "charpoly_order": out[2].degree,
                    "quotient_orders": [q.degree for _, q, _ in out[3]]}

        return Op(stratum, label, run, check, props)

    return rounds(rng, strata, make_op)


# ---------------------------------------------------------------------------
# query-stream
# ---------------------------------------------------------------------------

# command templates; "{r}" is the ring expression
QUERY_KINDS = (
    ("graph-json", ["graph", "{r}"]),
    ("graph-dot", ["graph", "{r}", "--dot"]),
    ("threshold", ["threshold", "{r}"]),
    ("orbits-aut", ["orbits", "{r}"]),
    ("orbits-twin", ["orbits", "{r}", "--method", "twin"]),
    ("orbits-gcd", ["orbits", "{r}", "--method", "gcd"]),
    ("spectra", ["spectra", "{r}", "--full"]),
)
# each command's rings fall into SIZE_BANDS equal-width bands of element
# count, one stratum each, so that every seed runs the same mix of sizes
SIZE_BANDS = 3
# plus one hot stratum per command: HOT_PER_KIND plain Z/n rings per seed,
# dealt over and over, so a quarter of all queries repeat an earlier one.
# Hot rings are drawn from the HOT_CANDIDATES plain Z/n next above a tenth
# of the command's size range, a narrow band, so that which rings the seed
# picks moves the cost of the mix little
HOT_PER_KIND = 3
HOT_CANDIDATES = 8
HOT_AT = 0.1


def query_rings(kind: str, smoke: bool) -> list[tuple[str, list]]:
    """(expression, factors) candidates for one query kind."""
    if kind == "spectra":
        hi = 40 if smoke else 100
        zn = [(f"Z/{n}", zn_factors(n)) for n in range(12, hi + 1)]
        return zn + small_products(12, hi)
    hi = 300 if smoke else 2000
    zn = [(f"Z/{n}", zn_factors(n)) for n in range(100, hi + 1)]
    if kind == "orbits-gcd":
        return zn
    local = [(f"FamA({p},{a})", [("local", p ** (a + 1))]) for p in (2, 3, 5, 7, 11, 13)
             for a in range(1, 11) if 100 <= p ** (a + 1) <= hi]
    local += [(f"FamD({p})", [("local", p ** 3)]) for p in (5, 7, 11) if p ** 3 <= hi]
    return zn + local + small_products(100, min(hi, 1000))


def ring_size(entry) -> int:
    return math.prod(s for _, s in entry[1])


def query_strata(kind: str, rng: random.Random, smoke: bool) -> list[tuple[str, list]]:
    """The size-band strata and the hot stratum of one command."""
    pool = query_rings(kind, smoke)
    lo = min(map(ring_size, pool))
    width = max(map(ring_size, pool)) - lo
    strata = []
    for b in range(SIZE_BANDS):
        band = [e for e in pool
                if lo + b * width / SIZE_BANDS <= ring_size(e) < lo + (b + 1) * width / SIZE_BANDS
                or (b == SIZE_BANDS - 1 and ring_size(e) == lo + width)]
        strata.append((f"{kind}/{b}", band))
    small = sorted((e for e in pool if zn_modulus(e[0]) and ring_size(e) >= lo + HOT_AT * width),
                   key=ring_size)
    strata.append((f"{kind}/hot", rng.sample(small[:HOT_CANDIDATES], HOT_PER_KIND)))
    return strata


def query_stream(lib, rng: random.Random, smoke: bool = False) -> Iterator[Op]:
    templates = dict(QUERY_KINDS)
    strata = [st for kind, _ in QUERY_KINDS for st in query_strata(kind, rng, smoke)]
    seen: set = set()

    def make_op(stratum, entry):
        kind = stratum.split("/")[0]
        expr, factors = entry
        argv = [a.replace("{r}", expr) for a in templates[kind]]
        repeat = tuple(argv) in seen
        seen.add(tuple(argv))

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.cli.main(argv)
            return code, buf.getvalue()

        def check(out):
            return query_failures(lib, kind, expr, factors, *out)

        def props(out):
            return {"elements": math.prod(s for _, s in factors), "output_bytes": len(out[1]),
                    "repeat": repeat}

        return Op(stratum, " ".join(argv), run, check, props)

    return rounds(rng, strata, make_op)


def zn_degree(x: int, n: int) -> int:
    """Degree of x in the Z/n graph: the y != x with x*y == 0."""
    if x == 0:
        return n - 1
    return math.gcd(x, n) - (1 if x * x % n == 0 else 0)


def query_failures(lib, kind, expr, factors, code, text) -> list[str]:
    n = math.prod(s for _, s in factors)
    is_zn = zn_modulus(expr) is not None
    want_threshold = expected_threshold(factors)
    want_code = 3 if kind == "threshold" and not want_threshold else 0
    if code != want_code:
        return [f"exit code {code}, expected {want_code}"]
    if kind == "graph-dot":
        lines = text.splitlines()
        if not lines or lines[0] != "graph G {" or lines[-1] != "}":
            return ["DOT output is not one graph block"]
        edges = sum(1 for line in lines if " -- " in line)
        if is_zn and edges != (sum(zn_degree(x, n) for x in range(n)) // 2):
            return [f"DOT has {edges} edges"]
        return []
    try:
        data = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if kind == "graph-json":
        edges = data["edges"]
        if data["n"] != n or len(data["labels"]) != n:
            return [f"graph has n={data['n']}, expected {n}"]
        if any(not (0 <= u < v < n) for u, v in edges) or edges != sorted(edges):
            return ["edge list is not sorted u < v pairs"]
        if is_zn:
            for u, v in edges:
                if u * v % n:
                    return [f"edge {u}-{v} but u*v != 0 mod {n}"]
            if len(edges) != sum(zn_degree(x, n) for x in range(n)) // 2:
                return [f"{len(edges)} edges, expected {sum(zn_degree(x, n) for x in range(n)) // 2}"]
        elif n <= 200:
            ring = lib.rings.make_ring(lib.ringexpr.parse_ring_spec(expr))
            rows = brute_force_rows(n, ring.mul)
            want = [[u, v] for u in range(n) for v in range(u + 1, n) if (rows[u] >> v) & 1]
            if edges != want:
                return ["edges differ from the brute-force x*y == 0 build"]
        return []
    if kind == "threshold":
        if (data["verdict"] == "threshold") != want_threshold:
            return [f"verdict {data['verdict']}"]
        w = data["witness"]
        if w is not None:
            ring = lib.rings.make_ring(lib.ringexpr.parse_ring_spec(expr))
            mul = (lambda x, y: x * y % n) if is_zn else ring.mul
            a, b, c, d = w["a"], w["b"], w["c"], w["d"]
            if len({a, b, c, d}) != 4 or mul(a, b) or mul(c, d) or not mul(a, c) or not mul(b, d):
                return [f"witness {w} is not an alternating 4-cycle"]
        elif len(data["code"]) != n:
            return [f"creation sequence of length {len(data['code'])}"]
        return []
    if kind.startswith("orbits"):
        blocks = [b["vertices"] for b in data["blocks"]]
        fails = partition_failures(blocks, n, "orbits")
        if fails:
            return fails
        if kind == "orbits-gcd":
            if len(blocks) != divisor_count(n):
                return [f"{len(blocks)} gcd classes, expected {divisor_count(n)}"]
            if any(len({math.gcd(v, n) for v in b}) != 1 for b in blocks):
                return ["a gcd block mixes gcd values"]
        elif is_zn and any(len({zn_degree(v, n) for v in b}) != 1 for b in blocks):
            return ["a block mixes vertex degrees"]
        return []
    # spectra --full
    full = lib.spectral.IntPolynomial(tuple(data["adjacency_charpoly"]["coeffs"]))
    quo = lib.spectral.IntPolynomial(tuple(data["charpoly"]["coeffs"]))
    ring = lib.rings.make_ring(lib.ringexpr.parse_ring_spec(expr))
    rows = brute_force_rows(n, (lambda x, y: x * y % n) if is_zn else ring.mul)
    fails = charpoly_invariant_failures(full.coeffs, rows)
    _, rem = full.divmod_exact(quo)
    if any(rem):
        fails.append("quotient charpoly does not divide the full one")
    if data["multiplicity_0"] != full.root_multiplicity(0):
        fails.append("multiplicity of 0 disagrees with the charpoly")
    if data["multiplicity_minus_1"] != full.root_multiplicity(-1):
        fails.append("multiplicity of -1 disagrees with the charpoly")
    return fails


WORKLOADS = {
    "large-rings": large_rings,
    "claim-sweep": claim_sweep,
    "spectra": spectra,
    "query-stream": query_stream,
}
