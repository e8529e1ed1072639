"""Finite commutative rings with unity, with elements indexed 0..size-1.

Every ring exposes closed-form arithmetic on canonical element indices.
Index 0 is always the additive identity.  Elements decode to a coordinate
tuple over cyclic moduli (``coord_moduli``); addition is componentwise in
those coordinates, which the annihilator-key machinery relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def spec_size(spec: RingSpec) -> int:
    """Analytic element count, computed without building the ring."""
    if isinstance(spec, Zn):
        return spec.n
    if isinstance(spec, GF):
        return spec.p ** spec.k
    if isinstance(spec, MonicQuotient):
        return spec.base.n ** spec.degree
    if isinstance(spec, FamA):
        return spec.p ** (spec.alpha + 1)
    if isinstance(spec, FamB):
        return spec.p ** spec.p
    if isinstance(spec, FamC):
        return spec.p ** 4
    if isinstance(spec, FamD):
        return spec.p ** 3
    if isinstance(spec, Product):
        out = 1
        for f in spec.factors:
            out *= spec_size(f)
        return out
    raise TypeError(f"not a RingSpec: {spec!r}")


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


def _poly_label(coeffs, symbols) -> str:
    terms = []
    for c, sym in zip(coeffs, symbols):
        if c == 0:
            continue
        if sym == "":
            terms.append(str(c))
        elif c == 1:
            terms.append(sym)
        else:
            terms.append(f"{c}{sym}")
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Ring arithmetic
# ---------------------------------------------------------------------------

class Ring:
    """Common interface: mixed-radix index codec plus add/neg/mul."""

    spec: RingSpec
    size: int
    one: int
    zero = 0
    coord_moduli: tuple[int, ...]

    def decode(self, i: int) -> tuple[int, ...]:
        raise NotImplementedError

    def encode(self, coords) -> int:
        raise NotImplementedError

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def label(self, i: int) -> str:
        raise NotImplementedError

    def generator_indices(self) -> list[int]:
        """Elements whose coordinate vector is a unit vector."""
        t = len(self.coord_moduli)
        out = []
        for i in range(t):
            coords = [0] * t
            coords[i] = 1
            out.append(self.encode(coords))
        return out

    def __repr__(self):
        return f"<Ring {self.spec!r} size={self.size}>"


class ZnRing(Ring):
    def __init__(self, spec: Zn):
        self.spec = spec
        self.n = spec.n
        self.size = spec.n
        self.one = 1
        self.coord_moduli = (spec.n,)

    def decode(self, i):
        return (i,)

    def encode(self, coords):
        return coords[0] % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def label(self, i):
        return str(i)


class PolyQuotientRing(Ring):
    """Z/n[x] modulo a monic polynomial, elements as coefficient vectors.

    Also backs GF(p^k) (irreducible modulus) and the x^p = 0 family.
    """

    def __init__(self, spec: RingSpec, n: int, modulus: tuple[int, ...]):
        self.spec = spec
        self.n = n
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.size = n ** self.degree
        self.one = 1
        self.coord_moduli = (n,) * self.degree
        self._symbols = [""] + ["x"] + [f"x^{e}" for e in range(2, self.degree)]

    def decode(self, i):
        return tuple(_digits(i, self.n, self.degree))

    def encode(self, coords):
        i = 0
        for c in reversed(coords):
            i = i * self.n + (c % self.n)
        return i

    def add(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        return self.encode([x + y for x, y in zip(ca, cb)])

    def neg(self, a):
        return self.encode([-x for x in self.decode(a)])

    def mul(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        d = self.degree
        tmp = [0] * (2 * d - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    tmp[i + j] += x * y
        n = self.n
        for i in range(2 * d - 2, d - 1, -1):
            c = tmp[i] % n
            if c:
                for j in range(d):
                    tmp[i - d + j] = (tmp[i - d + j] - c * self.modulus[j]) % n
        return self.encode([c % n for c in tmp[:d]])

    def label(self, i):
        return _poly_label(self.decode(i), self._symbols)


class FamARing(Ring):
    """Elements a + b*x with a mod p^alpha, b mod p; x^2 = 0, p*x = 0."""

    def __init__(self, spec: FamA):
        self.spec = spec
        self.p = spec.p
        self.pa = spec.p ** spec.alpha
        self.size = self.pa * spec.p
        self.one = 1
        self.coord_moduli = (self.pa, self.p)

    def decode(self, i):
        return (i % self.pa, i // self.pa)

    def encode(self, coords):
        return (coords[0] % self.pa) + self.pa * (coords[1] % self.p)

    def add(self, a, b):
        a0, a1 = self.decode(a)
        b0, b1 = self.decode(b)
        return self.encode((a0 + b0, a1 + b1))

    def neg(self, a):
        a0, a1 = self.decode(a)
        return self.encode((-a0, -a1))

    def mul(self, a, b):
        a0, a1 = self.decode(a)
        b0, b1 = self.decode(b)
        return self.encode((a0 * b0, a0 * b1 + b0 * a1))

    def label(self, i):
        return _poly_label(self.decode(i), ["", "x"])


class FamCRing(Ring):
    """Elements a0 + a1*x + a2*x^2 + b1*y over Z_p; x^3 = xy = y^2 = 0."""

    def __init__(self, spec: FamC):
        self.spec = spec
        self.p = spec.p
        self.size = spec.p ** 4
        self.one = 1
        self.coord_moduli = (spec.p,) * 4

    def decode(self, i):
        return tuple(_digits(i, self.p, 4))

    def encode(self, coords):
        p = self.p
        i = 0
        for c in reversed(coords):
            i = i * p + (c % p)
        return i

    def add(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        return self.encode([x + y for x, y in zip(ca, cb)])

    def neg(self, a):
        return self.encode([-x for x in self.decode(a)])

    def mul(self, a, b):
        a0, a1, a2, a3 = self.decode(a)
        b0, b1, b2, b3 = self.decode(b)
        return self.encode((
            a0 * b0,
            a0 * b1 + a1 * b0,
            a0 * b2 + a1 * b1 + a2 * b0,
            a0 * b3 + a3 * b0,
        ))

    def label(self, i):
        return _poly_label(self.decode(i), ["", "x", "x^2", "y"])


class FamDRing(Ring):
    """Elements a + b*x with a mod p^2, b mod p; p*x = 0, x^2 = p."""

    def __init__(self, spec: FamD):
        self.spec = spec
        self.p = spec.p
        self.p2 = spec.p * spec.p
        self.size = self.p2 * spec.p
        self.one = 1
        self.coord_moduli = (self.p2, self.p)

    def decode(self, i):
        return (i % self.p2, i // self.p2)

    def encode(self, coords):
        return (coords[0] % self.p2) + self.p2 * (coords[1] % self.p)

    def add(self, a, b):
        a0, a1 = self.decode(a)
        b0, b1 = self.decode(b)
        return self.encode((a0 + b0, a1 + b1))

    def neg(self, a):
        a0, a1 = self.decode(a)
        return self.encode((-a0, -a1))

    def mul(self, a, b):
        a0, a1 = self.decode(a)
        b0, b1 = self.decode(b)
        return self.encode((a0 * b0 + self.p * a1 * b1, a0 * b1 + b0 * a1))

    def label(self, i):
        return _poly_label(self.decode(i), ["", "x"])


class ProductRing(Ring):
    def __init__(self, spec: Product, factors: list[Ring]):
        self.spec = spec
        self.factors = factors
        self.size = math.prod(f.size for f in factors)
        self.coord_moduli = tuple(m for f in factors for m in f.coord_moduli)
        self._coord_splits = [len(f.coord_moduli) for f in factors]
        self.one = self._join([f.one for f in factors])

    def _split(self, i):
        parts = []
        for f in self.factors:
            parts.append(i % f.size)
            i //= f.size
        return parts

    def _join(self, parts):
        i = 0
        for f, part in zip(reversed(self.factors), reversed(parts)):
            i = i * f.size + part
        return i

    def decode(self, i):
        out = []
        for f, part in zip(self.factors, self._split(i)):
            out.extend(f.decode(part))
        return tuple(out)

    def encode(self, coords):
        parts = []
        at = 0
        for f, w in zip(self.factors, self._coord_splits):
            parts.append(f.encode(coords[at:at + w]))
            at += w
        return self._join(parts)

    def add(self, a, b):
        return self._join([f.add(x, y) for f, x, y in zip(self.factors, self._split(a), self._split(b))])

    def neg(self, a):
        return self._join([f.neg(x) for f, x in zip(self.factors, self._split(a))])

    def mul(self, a, b):
        return self._join([f.mul(x, y) for f, x, y in zip(self.factors, self._split(a), self._split(b))])

    def label(self, i):
        return "(" + ",".join(f.label(x) for f, x in zip(self.factors, self._split(i))) + ")"


def _spec_log10_size(spec: RingSpec) -> float:
    """log10 of spec_size(spec), computed without the size itself."""
    log = math.log10
    if isinstance(spec, Zn):
        return log(spec.n)
    if isinstance(spec, GF):
        return spec.k * log(spec.p)
    if isinstance(spec, MonicQuotient):
        return spec.degree * log(spec.base.n)
    if isinstance(spec, FamA):
        return (spec.alpha + 1) * log(spec.p)
    if isinstance(spec, FamB):
        return spec.p * log(spec.p)
    if isinstance(spec, FamC):
        return 4 * log(spec.p)
    if isinstance(spec, FamD):
        return 3 * log(spec.p)
    if isinstance(spec, Product):
        return sum(_spec_log10_size(f) for f in spec.factors)
    raise TypeError(f"not a RingSpec: {spec!r}")


def make_ring(spec: RingSpec, cap: int = DEFAULT_CAP) -> Ring:
    """Construct arithmetic for ``spec``; rejects rings above ``cap`` elements.

    The size is compared in log form first, so a spec far above the cap
    costs no big-integer power."""
    log10_size = _spec_log10_size(spec)
    if log10_size > math.log10(max(cap, 1)) + 1 or spec_size(spec) > cap:
        from .ringexpr import render_ring_spec  # ringexpr imports this module
        raise SizeCapExceeded.over(render_ring_spec(spec), log10_size, cap)
    if isinstance(spec, Zn):
        return ZnRing(spec)
    if isinstance(spec, GF):
        return PolyQuotientRing(spec, spec.p, find_irreducible(spec.p, spec.k))
    if isinstance(spec, MonicQuotient):
        return PolyQuotientRing(spec, spec.base.n, spec.modulus)
    if isinstance(spec, FamA):
        return FamARing(spec)
    if isinstance(spec, FamB):
        return PolyQuotientRing(spec, spec.p, (0,) * spec.p + (1,))
    if isinstance(spec, FamC):
        return FamCRing(spec)
    if isinstance(spec, FamD):
        return FamDRing(spec)
    if isinstance(spec, Product):
        return ProductRing(spec, [make_ring(f, cap) for f in spec.factors])
    raise TypeError(f"not a RingSpec: {spec!r}")


# ---------------------------------------------------------------------------
# Element classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementClass:
    index: int
    is_zero: bool
    is_unit: bool
    is_nilpotent: bool
    is_zero_divisor: bool
    gcd_with_n: int | None = None


def is_nilpotent(ring: Ring, a: int) -> bool:
    """Repeated squaring with cycle detection; exact, O(log size) squarings."""
    x = a
    seen = set()
    while x not in seen:
        seen.add(x)
        x = ring.mul(x, x)
        if x == 0:
            return True
    return False


def classify_element(ring: Ring, a: int) -> ElementClass:
    unit = any(ring.mul(a, b) == ring.one for b in range(ring.size))
    zd = a == 0 or any(b != 0 and ring.mul(a, b) == 0 for b in range(ring.size))
    gcd_n = math.gcd(a, ring.size) if isinstance(ring, ZnRing) else None
    return ElementClass(
        index=a,
        is_zero=a == 0,
        is_unit=unit,
        is_nilpotent=is_nilpotent(ring, a),
        is_zero_divisor=zd,
        gcd_with_n=gcd_n,
    )


def is_reduced(ring: Ring) -> bool:
    return not any(is_nilpotent(ring, a) for a in range(1, ring.size))


def is_field(ring: Ring) -> bool:
    one = ring.one
    return all(
        any(ring.mul(a, b) == one for b in range(ring.size))
        for a in range(1, ring.size)
    )


# ---------------------------------------------------------------------------
# Annihilator classes
# ---------------------------------------------------------------------------

def annihilator_keys(ring: Ring) -> list:
    """A canonical key per element such that equal keys imply equal annihilators.

    For x with coordinate generators e_1..e_t, the annihilator of x is cut
    out by the congruences sum_i c_i * coord_j(x*e_i) = 0 (mod m_j).  Those
    congruences depend only on the integer row lattice spanned by the scaled
    coefficient rows together with M*I (M = lcm of the moduli), so the
    Hermite normal form of that lattice is a sound grouping key.  Keys may
    split finer than exact annihilator classes; they never merge distinct
    annihilators.
    """
    mods = ring.coord_moduli
    t = len(mods)
    M = math.lcm(*mods)
    gens = ring.generator_indices()
    if t == 1:
        return [(math.gcd(ring.decode(ring.mul(x, gens[0]))[0], M),) for x in range(ring.size)]
    scales = [M // m for m in mods]
    m_rows = [[M if i == j else 0 for i in range(t)] for j in range(t)]
    keys = []
    decode = ring.decode
    mul = ring.mul
    for x in range(ring.size):
        cols = [decode(mul(x, g)) for g in gens]
        rows = [[scales[j] * cols[i][j] for i in range(t)] for j in range(t)]
        keys.append(hermite_normal_form(rows + m_rows, t))
    return keys
