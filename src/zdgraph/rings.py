"""Finite commutative rings with unity, with elements indexed 0..size-1.

Every ring is one ``Ring``: coordinates over cyclic moduli
(``coord_moduli``) and the products of its generators.  One mixed-radix
codec maps coordinate tuples to indices, index 0 being the additive
identity; addition is componentwise and multiplication bilinear in the
coordinates, which the annihilator-key machinery relies on.  ``make_ring``
states each family by its generator products, and ``labels()`` names every
element at once.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .errors import CompositePrimeError, NonMonicModulus, SizeCapExceeded, ZdgError
from ._util import hermite_normal_form

DEFAULT_CAP = 100_000


# Miller-Rabin with the first 13 prime bases is exact for n below
# 3 317 044 064 679 887 385 961 981 (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: exact for n < 3.3e24; above that, a strong
    probable-prime test to the same 13 bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def euler_phi(m: int) -> int:
    """Euler totient via trial-division factorization."""
    if m < 1:
        raise ValueError("euler_phi requires m >= 1")
    result = m
    rem = m
    f = 2
    while f * f <= rem:
        if rem % f == 0:
            result -= result // f
            while rem % f == 0:
                rem //= f
        f += 1
    if rem > 1:
        result -= result // rem
    return result


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise CompositePrimeError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# Ring specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Zn:
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ZdgError(f"Z/{self.n}: modulus must be >= 2")


@dataclass(frozen=True)
class GF:
    p: int
    k: int = 1

    def __post_init__(self):
        _check_prime(self.p)
        if self.k < 1:
            raise ZdgError("GF: extension degree must be >= 1")


@dataclass(frozen=True)
class MonicQuotient:
    """Z/n[x] modulo a monic polynomial; modulus stored as ascending coefficients."""

    base: Zn
    modulus: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.base, Zn):
            raise ZdgError("MonicQuotient base must be Z/n")
        n = self.base.n
        coeffs = [c % n for c in self.modulus]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise NonMonicModulus(f"modulus {self.modulus} is not monic of degree >= 1 over Z/{n}")
        object.__setattr__(self, "modulus", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1


@dataclass(frozen=True)
class FamA:
    """Z_{p^alpha}[x] with x^2 = 0 and p*x = 0."""

    p: int
    alpha: int

    def __post_init__(self):
        _check_prime(self.p)
        if self.alpha < 1:
            raise ZdgError("FamA: alpha must be >= 1")


@dataclass(frozen=True)
class FamB:
    """Z_p[x] with x^p = 0."""

    p: int

    def __post_init__(self):
        _check_prime(self.p)


@dataclass(frozen=True)
class FamC:
    """Z_p[x, y] with x^3 = xy = y^2 = 0."""

    p: int

    def __post_init__(self):
        _check_prime(self.p)


@dataclass(frozen=True)
class FamD:
    """Z_{p^2}[x] with p*x = 0 and x^2 = p."""

    p: int

    def __post_init__(self):
        _check_prime(self.p)


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self):
        flat = []
        for f in self.factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if not flat:
            raise ZdgError("Product needs at least one factor")
        object.__setattr__(self, "factors", tuple(flat))


RingSpec = Zn | GF | MonicQuotient | FamA | FamB | FamC | FamD | Product


def _spec_powers(spec: RingSpec) -> list[tuple[int, int]]:
    """(base, exponent) pairs whose powers multiply to the size of ``spec``."""
    if isinstance(spec, Product):
        return [pw for f in spec.factors for pw in _spec_powers(f)]
    if isinstance(spec, Zn):
        return [(spec.n, 1)]
    if isinstance(spec, GF):
        return [(spec.p, spec.k)]
    if isinstance(spec, MonicQuotient):
        return [(spec.base.n, spec.degree)]
    if isinstance(spec, FamA):
        return [(spec.p, spec.alpha + 1)]
    if isinstance(spec, FamB):
        return [(spec.p, spec.p)]
    if isinstance(spec, FamC):
        return [(spec.p, 4)]
    if isinstance(spec, FamD):
        return [(spec.p, 3)]
    raise TypeError(f"not a RingSpec: {spec!r}")


def spec_size(spec: RingSpec) -> int:
    """Analytic element count, computed without building the ring."""
    return math.prod(base ** e for base, e in _spec_powers(spec))


def _spec_log10_size(spec: RingSpec) -> float:
    """log10 of spec_size(spec), computed without the size itself."""
    return sum(e * math.log10(base) for base, e in _spec_powers(spec))


# ---------------------------------------------------------------------------
# Polynomial helpers over Z/n (ascending coefficient lists)
# ---------------------------------------------------------------------------

def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by monic den, coefficients mod p."""
    num = [c % p for c in num]
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return num[:d]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division of a monic polynomial by all lower-degree monic polynomials."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for m in range(p ** d):
            div = _digits(m, p, d) + [1]
            if not any(_poly_mod(coeffs, div, p)):
                return False
    return True


def _digits(m: int, base: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(m % base)
        m //= base
    return out


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over Z_p.

    "Smallest" compares the non-leading coefficients (a_{k-1}, ..., a_0)
    lexicographically, i.e. enumerates them as a base-p integer.
    """
    for m in range(p ** k):
        coeffs = _digits(m, p, k) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ZdgError(f"no irreducible polynomial of degree {k} over Z_{p}")  # unreachable


# ---------------------------------------------------------------------------
# Ring arithmetic
# ---------------------------------------------------------------------------

class Ring:
    """A ring as coordinates over cyclic moduli and the products of its
    generators: one index codec, bilinear multiplication and labels.

    Codec invariant, which ``annihilator_codes`` relies on: the index of the
    element with coordinates (c_1, ..., c_t) is the little-endian mixed-radix
    number c_1 + m_1*(c_2 + m_2*(c_3 + ...)) over ``coord_moduli``
    (m_1, ..., m_t), with 0 <= c_j < m_j, and addition is componentwise
    mod m_j.  A product's coordinates are its factors' in order, the first
    factor's lowest.

    The element with coordinates c is sum_i c_i e_i over generators e_i
    (1, x, x^2, ... or y), so multiplication is bilinear:
    coord_j(x*y) = sum_{i,l} c_i(x) c_l(y) coord_j(e_i e_l) mod m_j, where
    ``products[i][l]`` holds the coordinates of e_i e_l.  Outside a product
    e_1 = 1, so ``one`` is index 1.  ``symbols[i]`` names e_i in labels,
    "" for the constant.
    """

    one = 1

    def __init__(self, spec: RingSpec, moduli, products, symbols):
        self.spec = spec
        self.coord_moduli = tuple(moduli)
        self.size = math.prod(moduli)
        self.products = products
        self.symbols = symbols
        # (radix weight, modulus) per coordinate
        self._codec = tuple(zip(itertools.accumulate(moduli[:-1], operator.mul, initial=1), moduli))
        # the nonzero generator products as (i, l, [(j, coord_j(e_i e_l)), ...])
        self._terms = [(i, l, [(j, c) for j, c in enumerate(e) if c])
                       for i, row in enumerate(products) for l, e in enumerate(row) if any(e)]

    def decode(self, i: int) -> tuple[int, ...]:
        return tuple([i // r % m for r, m in self._codec])

    def encode(self, coords) -> int:
        return sum([c % m * r for c, (r, m) in zip(coords, self._codec)])

    def add(self, a: int, b: int) -> int:
        return self.encode([x + y for x, y in zip(self.decode(a), self.decode(b))])

    def neg(self, a: int) -> int:
        return self.encode([-x for x in self.decode(a)])

    def mul(self, a: int, b: int) -> int:
        x, y = self.decode(a), self.decode(b)
        out = [0] * len(x)
        for i, l, terms in self._terms:
            c = x[i] * y[l]
            if c:
                for j, v in terms:
                    out[j] += c * v
        return self.encode(out)

    def labels(self) -> list[str]:
        """Every element's label in index order: its nonzero terms (c, x,
        cx, ...) joined by "+", or "0"."""
        tables = []
        for m, sym in zip(self.coord_moduli, self.symbols):
            terms = [str(c) + sym for c in range(m)]
            terms[0] = ""
            if sym:
                terms[1] = sym
            tables.append(terms)
        out = tables[0]
        for terms in tables[1:]:
            # the earlier coordinates vary fastest
            out = [f"{lo}+{hi}" if lo and hi else lo or hi for hi in terms for lo in out]
        out[0] = "0"
        return out

    def generator_indices(self) -> list[int]:
        """Elements whose coordinate vector is a unit vector."""
        return [r for r, _ in self._codec]

    def __repr__(self):
        return f"<Ring {self.spec!r} size={self.size}>"


class ProductRing(Ring):
    """R_1 x ... x R_m: the factors' coordinates side by side and their
    generator products block-diagonal; labels are parenthesised tuples."""

    def __init__(self, spec: Product, factors: list[Ring]):
        moduli = [m for f in factors for m in f.coord_moduli]
        t = len(moduli)
        products = [[(0,) * t] * t for _ in range(t)]
        at = 0
        for f in factors:
            w = len(f.coord_moduli)
            for i, row in enumerate(f.products):
                for l, e in enumerate(row):
                    products[at + i][at + l] = (0,) * at + tuple(e) + (0,) * (t - at - w)
            at += w
        super().__init__(spec, moduli, products, None)
        self.factors = factors
        self.one = self.encode([c for f in factors for c in f.decode(f.one)])

    def labels(self) -> list[str]:
        parts = [f.labels() for f in self.factors]
        # the first factor's index varies fastest, as in itertools.product's last
        return ["(" + ",".join(reversed(combo)) + ")" for combo in itertools.product(*reversed(parts))]


def _poly_products(n: int, modulus) -> list:
    """x^i * x^l reduced by a monic modulus over Z/n, for 0 <= i, l < degree."""
    d = len(modulus) - 1
    return [[tuple(_poly_mod([0] * (i + l) + [1] + [0] * d, list(modulus), n)) for l in range(d)]
            for i in range(d)]


def make_ring(spec: RingSpec, cap: int = DEFAULT_CAP) -> Ring:
    """Construct arithmetic for ``spec``; rejects rings above ``cap`` elements.

    The size is compared in log form first, so a spec far above the cap
    costs no big-integer power."""
    log10_size = _spec_log10_size(spec)
    if log10_size > math.log10(max(cap, 1)) + 1 or spec_size(spec) > cap:
        from .ringexpr import render_ring_spec  # ringexpr imports this module
        raise SizeCapExceeded.over(render_ring_spec(spec), log10_size, cap)
    if isinstance(spec, Product):
        return ProductRing(spec, [make_ring(f, cap) for f in spec.factors])
    if isinstance(spec, Zn):
        return Ring(spec, (spec.n,), [[(1,)]], ("",))
    if isinstance(spec, (GF, MonicQuotient, FamB)):
        if isinstance(spec, GF):
            n, modulus = spec.p, find_irreducible(spec.p, spec.k)
        elif isinstance(spec, MonicQuotient):
            n, modulus = spec.base.n, spec.modulus
        else:  # x^p = 0
            n, modulus = spec.p, (0,) * spec.p + (1,)
        d = len(modulus) - 1
        symbols = ["", "x"] + [f"x^{e}" for e in range(2, d)]
        return Ring(spec, (n,) * d, _poly_products(n, modulus), symbols)
    if isinstance(spec, (FamA, FamD)):
        # a + b x with p x = 0, and x^2 = 0 (FamA) or x^2 = p (FamD)
        p = spec.p
        if isinstance(spec, FamA):
            moduli, x2 = (p ** spec.alpha, p), (0, 0)
        else:
            moduli, x2 = (p * p, p), (p, 0)
        return Ring(spec, moduli, [[(1, 0), (0, 1)], [(0, 1), x2]], ("", "x"))
    if isinstance(spec, FamC):
        # on 1, x, x^2, y: x^3 = xy = y^2 = 0
        one, x, xx, y = (tuple(int(j == i) for j in range(4)) for i in range(4))
        z = (0,) * 4
        products = [[one, x, xx, y], [x, xx, z, z], [xx, z, z, z], [y, z, z, z]]
        return Ring(spec, (spec.p,) * 4, products, ("", "x", "x^2", "y"))
    raise TypeError(f"not a RingSpec: {spec!r}")


# ---------------------------------------------------------------------------
# Annihilator classes
# ---------------------------------------------------------------------------

def annihilator_codes(ring: Ring) -> np.ndarray:
    """Each element's annihilator key as an integer, for a ring outside a
    product (a product's keys are its factors' codes side by side, since
    ann(x_1, ..., x_m) = ann(x_1) x ... x ann(x_m)).  Equal codes imply
    equal annihilators; codes may split finer than annihilator classes.

    For x with coordinate generators e_1..e_t, the annihilator of x is cut
    out by the congruences sum_i c_i * coord_j(x*e_i) = 0 (mod m_j).  Those
    congruences depend only on the integer row lattice spanned by the scaled
    coefficient rows together with M*I (M = lcm of the moduli), so the
    Hermite normal form (HNF) of that lattice is a sound key.

    One coordinate (``Z/n``, ``GF(p)``): the lattice is gcd(x, n) Z, and the
    code is that gcd, with no HNF.  Otherwise one HNF per orbit of the group
    that a few units generate under multiplication, the distinct HNFs
    numbered 0, 1, ... by least element, plus numpy work linear in the size.
    Orbits are sound because multiplying by a unit u maps the rows of x to
    the rows of ux by an integer matrix that is invertible mod M (that of
    u^-1 maps them back), so x and ux span the same lattice and get the
    same HNF.  Orbits finer than the associate classes cost extra HNFs,
    never a different code.  The maps x -> ux are read off the mixed-radix
    codec (see ``Ring``) from t products, and u counts as a unit only when
    its map is a bijection.
    """
    mods = ring.coord_moduli
    M = math.lcm(*mods)
    if len(mods) == 1:
        # gcd(y, M) is the largest divisor of M that divides y, so writing
        # each divisor over its multiples, ascending, leaves every gcd
        small = np.arange(1, math.isqrt(M) + 1)
        low = small[M % small == 0].tolist()
        gcd = np.empty(M, dtype=np.int64)
        for d in low + [M // d for d in reversed(low)]:
            gcd[::d] = d
        # x*e_1 has coordinate x * coord(e_1*e_1), multiplication being bilinear
        return gcd[np.arange(M, dtype=np.int64) * ring.products[0][0][0] % M]
    gens = ring.generator_indices()
    reps = _unit_orbit_reps(ring)
    heads = np.flatnonzero(reps == np.arange(ring.size))
    number: dict = {}
    code = np.empty(ring.size, dtype=np.int64)
    code[heads] = [number.setdefault(_hnf_key(ring, x, gens, M), len(number)) for x in heads.tolist()]
    return code[reps]


def _hnf_key(ring: Ring, x: int, gens: list[int], M: int) -> tuple:
    mods = ring.coord_moduli
    t = len(mods)
    cols = [ring.decode(ring.mul(x, g)) for g in gens]
    rows = [[M // mods[j] * cols[i][j] for i in range(t)] for j in range(t)]
    rows += [[M if i == j else 0 for i in range(t)] for j in range(t)]
    return hermite_normal_form(rows, t)


def _element_coords(ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of every element (one row per index) and the radix
    weights that encode a coordinate row back to its index."""
    radix = np.array(ring.generator_indices(), dtype=np.int64)
    return np.arange(ring.size, dtype=np.int64)[:, None] // radix % ring.coord_moduli, radix


def zero_product_table(ring: Ring, xs) -> np.ndarray:
    """table[a, b] is whether xs[a] * xs[b] = 0, for all pairs at once.

    With X the coordinate rows of ``xs`` and P_j coordinate j of the
    generator products, coordinate j of every pairwise product is
    (X P_j mod m_j) X^T mod m_j.  Entries stay below t * m^2, as in
    ``_multiplication_map``.
    """
    x = np.asarray(xs, dtype=np.int64)[:, None] // np.array(ring.generator_indices()) % ring.coord_moduli
    p = np.array(ring.products, dtype=np.int64)
    table = np.ones((len(x), len(x)), dtype=bool)
    for j, m in enumerate(ring.coord_moduli):
        table &= (x @ p[:, :, j] % m) @ x.T % m == 0
    return table


def _multiplication_map(ring: Ring, coords: np.ndarray, radix: np.ndarray, u: int) -> np.ndarray:
    """Index of u*x for every index x.

    x is the integer combination sum_l c_l e_l of its coordinates and
    multiplication distributes over it, so the coordinates of u*x are
    coords @ B mod m, where row l of B holds the coordinates of u*e_l.
    Entries stay below t * m^2, far inside int64 for any ring small enough
    to list its elements.
    """
    mods = np.array(ring.coord_moduli, dtype=np.int64)
    b = np.array([ring.decode(ring.mul(u, e)) for e in ring.generator_indices()], dtype=np.int64)
    return (coords @ b % mods) @ radix


# Units are drawn from a seeded generator so that the number of HNFs, and
# with it the time, repeats from run to run; the keys do not depend on it.
_UNITS = 3
_UNIT_DRAWS = 16


def _unit_orbit_reps(ring: Ring) -> np.ndarray:
    """For every element, the least element of its orbit under the group
    generated by a few units (each element alone if none is drawn).

    A pass takes, for each generator in turn, the minimum along its cycles
    by pointer doubling.  Throughout, rep[x] is a member of x's orbit no
    larger than x.  Once rep[perm] == rep for every generator, rep is
    constant on each orbit; as rep[y] <= y for every member y, that value
    is the orbit's minimum.  The check costs one gather per generator, a
    second pass ``rounds`` of them.
    """
    n = ring.size
    coords, radix = _element_coords(ring)
    rng = random.Random(n)
    perms = []
    for _ in range(_UNIT_DRAWS):
        perm = _multiplication_map(ring, coords, radix, rng.randrange(1, n))
        hit = np.zeros(n, dtype=bool)
        hit[perm] = True
        if hit.all():
            perms.append(perm)
            if len(perms) == _UNITS:
                break
    rep = np.arange(n, dtype=np.int64)
    rounds = max(1, (n - 1).bit_length())
    stable = not perms
    while not stable:
        for perm in perms:
            step = perm
            for _ in range(rounds):
                rep = np.minimum(rep, rep[step])
                step = step[step]
        stable = all(np.array_equal(rep[perm], rep) for perm in perms)
    return rep
