"""Exact integer linear algebra: quotient matrices, characteristic polynomials,
and eigenvalue multiplicities read off them.

Everything here is arbitrary-precision integer arithmetic; the modular
charpoly path reconstructs exact coefficients through CRT under a proven
coefficient bound, so no result ever depends on floating point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import MixedBlock, NotEquitable
from .graphs import Graph, Partition, twin_partition
from .rings import is_prime


@dataclass(frozen=True)
class IntPolynomial:
    """Monic integer polynomial; coefficients descending, constant term last."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPolynomial(tuple(out))

    def divmod_exact(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", tuple[int, ...]]:
        """Polynomial long division by a monic divisor over the integers."""
        if divisor.coeffs[0] != 1:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dq = len(rem) - len(divisor.coeffs)
        if dq < 0:
            return IntPolynomial((0,)), tuple(rem)
        quo = [0] * (dq + 1)
        for i in range(dq + 1):
            c = rem[i]
            quo[i] = c
            if c:
                for j, d in enumerate(divisor.coeffs):
                    rem[i + j] -= c * d
        tail = tuple(rem[dq + 1:])
        return IntPolynomial(tuple(quo)), tail

    def divides(self, other: "IntPolynomial") -> bool:
        _, rem = other.divmod_exact(self)
        return not any(rem)

    def root_multiplicity(self, r: int) -> int:
        """Order of the integer root r (0 when r is not a root)."""
        poly = list(self.coeffs)
        if r == 0:  # count trailing zeros rather than divide once per root
            nonzero = [i for i, c in enumerate(poly) if c]
            return len(poly) - 1 - nonzero[-1] if nonzero else 0
        count = 0
        while len(poly) > 1:
            # synthetic division by (x - r)
            out = [poly[0]]
            for c in poly[1:]:
                out.append(out[-1] * r + c)
            if out[-1] != 0:
                break
            count += 1
            poly = out[:-1]
        return count

    def to_text(self, var: str = "x") -> str:
        terms = []
        deg = self.degree
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = deg - i
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{var}" if power == 1 else f"{head}{var}^{power}"
            sign = "-" if c < 0 else ("+" if terms else "")
            terms.append(sign + body)
        return "".join(terms) if terms else "0"

    def to_json_list(self) -> list[int]:
        return list(self.coeffs)


@dataclass(frozen=True)
class QuotientMatrix:
    """Equitable quotient of a graph: block adjacency counts."""

    entries: tuple[tuple[int, ...], ...]
    part_sizes: tuple[int, ...]
    part_kinds: tuple[str, ...]   # "clique" | "independent"
    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def to_json_dict(self) -> dict:
        return {
            "entries": self.rows(),
            "part_sizes": list(self.part_sizes),
            "part_kinds": list(self.part_kinds),
            "labels": list(self.labels),
        }


def equitable_quotient_matrix(g: Graph, partition: Partition) -> QuotientMatrix:
    """Block matrix: diagonal |Vi|-1 for clique blocks else 0; off-diagonal
    |Vj| when block i is fully joined to block j, else 0.

    Raises NotEquitable unless every block pair is fully joined or fully
    separated, and MixedBlock unless each block is a clique or independent.

    The checks run on cells, the nonempty intersections of blocks with the
    graph's skeleton classes.  A cell is a set of twins, so its vertices
    agree on every block: a block is checked once per cell, and the first
    failing vertex of a block is the first vertex of its first failing cell.
    """
    sk = g.skeleton()
    class_of = sk.class_of
    blocks = partition.blocks
    # per block: vertices per class, in order of first vertex, and the class mask
    cells = [Counter(map(class_of.__getitem__, block)) for _, block in blocks]
    class_masks = [sum(1 << c for c in cell) for cell in cells]

    def touching(c: int, j: int) -> int:
        """Classes of block j's cells that a vertex of class c is adjacent to
        (a cell of class c itself counts when the class is a clique)."""
        adj = sk.join[c] & class_masks[j]
        if sk.clique[c]:
            adj |= class_masks[j] & (1 << c)
        return adj

    kinds = []
    for (label, block), cell, mask in zip(blocks, cells, class_masks):
        if len(block) == 1:
            kinds.append("clique")  # neutral; diagonal entry is 0 either way
        elif all(sk.join[c] & mask == mask ^ (1 << c) and (size == 1 or sk.clique[c])
                 for c, size in cell.items()):
            kinds.append("clique")
        elif all(sk.join[c] & mask == 0 and (size == 1 or not sk.clique[c])
                 for c, size in cell.items()):
            kinds.append("independent")
        else:
            raise MixedBlock(label)
    k = len(blocks)
    entries = [[0] * k for _ in range(k)]
    for i, (label_i, block_i) in enumerate(blocks):
        for j, (label_j, block_j) in enumerate(blocks):
            if i == j:
                if kinds[i] == "clique":
                    entries[i][i] = len(block_i) - 1
                continue
            expect = class_masks[j] if touching(class_of[block_i[0]], j) else 0
            for c in cells[i]:
                if touching(c, j) != expect:
                    raise NotEquitable(next(v for v in block_i if class_of[v] == c), label_j)
            if expect:
                entries[i][j] = len(block_j)
    return QuotientMatrix(
        tuple(tuple(r) for r in entries),
        tuple(len(b) for _, b in blocks),
        tuple(kinds),
        tuple(lab for lab, _ in blocks),
    )


# ---------------------------------------------------------------------------
# Exact characteristic polynomials
# ---------------------------------------------------------------------------

def _as_int_rows(m) -> list[list[int]]:
    if isinstance(m, QuotientMatrix):
        return m.rows()
    return [[int(x) for x in row] for row in m]


def _charpoly_coeff_bound(rows: list[list[int]]) -> int:
    """Bound max |c_k| via sums of k x k principal minors and Hadamard."""
    n = len(rows)
    col_norm2 = [sum(rows[i][j] * rows[i][j] for i in range(n)) for j in range(n)]
    big = max(col_norm2, default=0)
    bound = 1
    for k in range(1, n + 1):
        minor = math.isqrt(big ** k) + 1
        bound = max(bound, math.comb(n, k) * minor)
    return bound


def _charpoly_mod(rows: np.ndarray, p: int) -> np.ndarray:
    """charpoly mod prime p: Hessenberg similarity then the leading-minor recurrence."""
    a = np.mod(rows, p).astype(np.int64)
    n = a.shape[0]
    for j in range(n - 2):
        col = a[j + 1:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = int(nz[0]) + j + 1
        if piv != j + 1:
            a[[j + 1, piv], :] = a[[piv, j + 1], :]
            a[:, [j + 1, piv]] = a[:, [piv, j + 1]]
        inv = pow(int(a[j + 1, j]), p - 2, p)
        f = (a[j + 2:, j] * inv) % p
        if f.any():
            a[j + 2:, :] = (a[j + 2:, :] - f[:, None] * a[j + 1, :]) % p
            a[:, j + 1] = (a[:, j + 1] + a[:, j + 2:] @ f) % p
    # c_k = (x - h[k-1,k-1]) c_{k-1} - sum_i h[i,k-1] * (prod subdiagonals) c_i
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)  # ascending coefficients
    polys[0, 0] = 1
    for k in range(1, n + 1):
        ck = np.zeros(n + 1, dtype=np.int64)
        prev = polys[k - 1]
        ck[1:k + 1] = prev[:k]
        ck[:k] = (ck[:k] - a[k - 1, k - 1] * prev[:k]) % p
        if k >= 2:
            weights = np.zeros(k - 1, dtype=np.int64)
            prod = 1
            for i in range(k - 2, -1, -1):
                prod = (prod * int(a[i + 1, i])) % p
                weights[i] = (int(a[i, k - 1]) * prod) % p
            if weights.any():
                ck[:k] = (ck[:k] - weights @ polys[:k - 1, :k]) % p
        ck %= p
        polys[k] = ck
    return polys[n]


def _primes_for_crt(need: int, bits: int) -> list[int]:
    """Primes just under 2**bits whose product exceeds ``need``."""
    out = []
    cand = (1 << bits) - 1
    have = 1
    while have <= need:
        if is_prime(cand):
            out.append(cand)
            have *= cand
        cand -= 2
    return out


def _charpoly_crt(rows: list[list[int]]) -> list[int]:
    n = len(rows)
    bound = _charpoly_coeff_bound(rows)
    try:
        rows_np = np.array(rows, dtype=np.int64)
    except OverflowError:  # entries past int64 stay exact until reduced mod p
        rows_np = np.array(rows, dtype=object)
    # keep p^2 * n within int64 for the dot products in the reduction
    bits = min(26, (62 - n.bit_length()) // 2)
    primes = _primes_for_crt(2 * bound + 1, bits)
    residues = [_charpoly_mod(rows_np, p) for p in primes]
    modulus = 1
    acc = [0] * (n + 1)
    for p, res in zip(primes, residues):
        if modulus == 1:
            acc = [int(x) % p for x in res]
            modulus = p
            continue
        inv = pow(modulus % p, p - 2, p)
        for i in range(n + 1):
            delta = ((int(res[i]) - acc[i]) * inv) % p
            acc[i] += modulus * delta
        modulus *= p
    half = modulus // 2
    lifted = [c - modulus if c > half else c for c in acc]
    return list(reversed(lifted))  # to descending


def lift_twin_char_poly(qm: QuotientMatrix, qpoly: IntPolynomial) -> IntPolynomial:
    """The graph's charpoly from ``qpoly``, the charpoly of its twin quotient
    ``qm``: times (x+1)^(s-1) per clique class of size s and x^(s-1) per
    independent class.

    Within a twin class, e_u - e_v is an eigenvector for -1 (clique) or 0
    (independent); the quotient carries the rest of the spectrum.  Cardoso,
    de Freitas, Martins & Robbiano, Discrete Math. 313 (2013).
    """
    ones = sum(s - 1 for s, kind in zip(qm.part_sizes, qm.part_kinds) if kind == "clique")
    zeros = sum(qm.part_sizes) - qm.size - ones
    poly = qpoly * IntPolynomial(tuple(math.comb(ones, i) for i in range(ones + 1)))
    return IntPolynomial(poly.coeffs + (0,) * zeros)


def char_poly(m) -> IntPolynomial:
    """Exact det(xI - M) for an integer matrix, quotient matrix, or graph."""
    if isinstance(m, Graph):
        qm = equitable_quotient_matrix(m, twin_partition(m))
        return lift_twin_char_poly(qm, char_poly(qm))
    rows = _as_int_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return IntPolynomial((1,))
    return IntPolynomial(tuple(_charpoly_crt(rows)))


def eigenvalue_multiplicity(g: Graph, lam: int) -> int:
    """Multiplicity of the integer eigenvalue lam of the adjacency matrix.

    Exact as the root order of the charpoly: the matrix is symmetric, so
    algebraic and geometric multiplicities agree.
    """
    return char_poly(g).root_multiplicity(lam)
