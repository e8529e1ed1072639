"""Exact integer linear algebra: quotient matrices, characteristic polynomials,
and eigenvalue multiplicities read off them.

Everything here is arbitrary-precision integer arithmetic; no result ever
depends on floating point.  One kernel computes every charpoly: the matrix
is reduced modulo all CRT primes at once into a stacked (P, n, n) array, and
each Hessenberg step and each step of the leading-minor recurrence runs once
for all primes, in chunks of primes of bounded size.  The primes' product
exceeds twice a proven coefficient bound: |c_k| <= C(n,k) (s/n)^(k/2) for
any s >= sum |lambda_i|^2, by Maclaurin's inequality and the power-mean
inequality.  s is ||M||_F^2 (Schur) in general and tr(Q^2) for a quotient
matrix, whose spectrum is real.  A graph's charpoly is kept on the graph,
so its multiplicities of 0 and -1 read one polynomial.
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


# residues stacked per chunk of primes: the chunk, its recurrence table and
# one update temporary take a few MiB at any matrix order
_CHUNK_ENTRIES = 1 << 18


def _charpoly_coeff_bound(m, rows: list[list[int]]) -> int:
    """A proven bound on every |c_k| of det(xI - M) = sum_k c_k x^(n-k).

    With s >= sum |lambda_i|^2 over the eigenvalues,
    |c_k| = |e_k(lambda)| <= e_k(|lambda|) <= C(n,k) (sum |lambda_i| / n)^k
    <= C(n,k) (s/n)^(k/2), by Maclaurin's inequality and then the power-mean
    inequality.  Any matrix has sum |lambda_i|^2 <= ||M||_F^2 (Schur).  A
    quotient matrix Q with D Q symmetric, D the part sizes, is similar to the
    symmetric D^(1/2) Q D^(-1/2), so its spectrum is real and
    tr(Q^2) = sum lambda_i^2 exactly.
    """
    n = len(rows)
    q = np.array(rows, dtype=object)
    s = int((q * q).sum())
    if isinstance(m, QuotientMatrix):
        dq = np.array(m.part_sizes, dtype=object)[:, None] * q
        if (dq == dq.T).all():
            s = int((q * q.T).sum())
    # C(n,k) (s/n)^(k/2) = sqrt(C(n,k)^2 s^k / n^k) < isqrt(floor of that) + 1
    return max(math.isqrt(math.comb(n, k) ** 2 * s ** k // n ** k) + 1 for k in range(n + 1))


def _charpoly_mod(rows: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """charpoly of ``rows`` modulo each prime, as a (P, n+1) array of
    ascending coefficients.

    The residue matrices are stacked into one (P, n, n) array and every step
    runs once for all primes: a Hessenberg similarity whose pivots are chosen
    per prime, then the leading-minor recurrence
    c_k = (x - h[k-1,k-1]) c_{k-1} - sum_i h[i,k-1] (h[i+1,i] ... h[k-1,k-2]) c_i,
    whose subdiagonal products are one suffix vector updated once per k.
    """
    n = rows.shape[0]
    p1, p2 = primes[:, None], primes[:, None, None]
    a = np.mod(rows[None], p2).astype(np.int64)
    for j in range(n - 2):
        off = (a[:, j + 1:, j] != 0).argmax(axis=1)  # 0 also when the column is zero
        swap = np.nonzero(off)[0]
        if swap.size:
            piv = off[swap] + j + 1
            a[swap, j + 1], a[swap, piv] = a[swap, piv], a[swap, j + 1]
            a[swap, :, j + 1], a[swap, :, piv] = a[swap, :, piv], a[swap, :, j + 1]
        inv = np.array([pow(x, -1, p) if x else 0
                        for x, p in zip(a[:, j + 1, j].tolist(), primes.tolist())], dtype=np.int64)
        f = a[:, j + 2:, j] * inv[:, None] % p1
        if f.any():
            # rows below the pivot lose f times the pivot row, which clears column j
            a[:, j + 2:, j] = 0
            rest = a[:, j + 2:, j + 1:]
            rest -= f[:, :, None] * a[:, j + 1, None, j + 1:]
            rest %= p2
            a[:, :, j + 1] = (a[:, :, j + 1] + (a[:, :, j + 2:] @ f[:, :, None])[:, :, 0]) % p1
    diag = np.diagonal(a, axis1=1, axis2=2)
    sub = np.diagonal(a, offset=-1, axis1=1, axis2=2)  # sub[:, i] = h[i+1, i]
    polys = np.zeros((len(primes), n + 1, n + 1), dtype=np.int64)  # polys[:, k] = c_k
    polys[:, 0, 0] = 1
    suffix = np.zeros((len(primes), n), dtype=np.int64)
    for k in range(1, n + 1):
        prev, ck = polys[:, k - 1, :k], polys[:, k, :k + 1]
        ck[:, 1:] = prev
        ck[:, :k] -= diag[:, k - 1, None] * prev
        if k >= 2:
            suffix[:, k - 2] = 1
            suffix[:, :k - 1] = suffix[:, :k - 1] * sub[:, k - 2, None] % p1
            weights = a[:, :k - 1, k - 1] * suffix[:, :k - 1] % p1
            ck[:, :k - 1] -= (weights[:, None, :] @ polys[:, :k - 1, :k - 1])[:, 0]
        ck %= p1
    return polys[:, n].copy()  # not a view that keeps the whole table


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


def _charpoly_crt(m, rows: list[list[int]]) -> list[int]:
    n = len(rows)
    bound = _charpoly_coeff_bound(m, rows)
    try:
        rows_np = np.array(rows, dtype=np.int64)
    except OverflowError:  # entries past int64 stay exact until reduced mod p
        rows_np = np.array(rows, dtype=object)
    # keep p^2 * n within int64 for the dot products in the kernel
    bits = min(26, (62 - n.bit_length()) // 2)
    primes = np.array(_primes_for_crt(2 * bound + 1, bits), dtype=np.int64)
    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    residues = np.concatenate([_charpoly_mod(rows_np, primes[i:i + chunk])
                               for i in range(0, len(primes), chunk)])
    acc = residues[0].astype(object)
    modulus = int(primes[0])
    for p, res in zip(primes[1:].tolist(), residues[1:]):
        acc = acc + modulus * ((res - acc) * pow(modulus, -1, p) % p)
        modulus *= p
    half = modulus // 2
    lifted = [c - modulus if c > half else c for c in acc.tolist()]
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
    """Exact det(xI - M) for an integer matrix, quotient matrix, or graph.

    A graph's polynomial is computed once and kept on the graph, the way its
    skeleton is; equal values on a recompute keep the graph safe to share."""
    if isinstance(m, Graph):
        if m._charpoly is None:
            qm = equitable_quotient_matrix(m, twin_partition(m))
            m._charpoly = lift_twin_char_poly(qm, char_poly(qm))
        return m._charpoly
    rows = _as_int_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return IntPolynomial((1,))
    return IntPolynomial(tuple(_charpoly_crt(m, rows)))


def eigenvalue_multiplicity(g: Graph, lam: int) -> int:
    """Multiplicity of the integer eigenvalue lam of the adjacency matrix.

    Exact as the root order of the graph's kept charpoly: the matrix is
    symmetric, so algebraic and geometric multiplicities agree.
    """
    return char_poly(g).root_multiplicity(lam)
