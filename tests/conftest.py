import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from zdgraph import rings as R
from zdgraph._util import hermite_normal_form
from zdgraph.graphs import Graph, Partition


def _digits(i: int, moduli) -> list[int]:
    out = []
    for m in moduli:
        out.append(i % m)
        i //= m
    return out


def _undigits(coords, moduli) -> int:
    i = 0
    for c, m in zip(reversed(coords), reversed(moduli)):
        i = i * m + c % m
    return i


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


def _poly_mul(n: int, modulus):
    """Coefficient product in Z/n[x] reduced by a monic modulus."""
    d = len(modulus) - 1

    def mul(ca, cb):
        tmp = [0] * (2 * d - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    tmp[i + j] += x * y
        for i in range(2 * d - 2, d - 1, -1):
            c = tmp[i] % n
            if c:
                for j in range(d):
                    tmp[i - d + j] = (tmp[i - d + j] - c * modulus[j]) % n
        return tmp[:d]

    return mul


def _closed_form(spec):
    """(size, mul, label) of a ring spec on element indices, from one
    closed-form multiplication per family and the spec's own mixed-radix
    digits; a product works per factor, its first factor's index lowest."""
    if isinstance(spec, R.Product):
        parts = [_closed_form(f) for f in spec.factors]
        sizes = [size for size, _, _ in parts]

        def mul(a, b):
            return _undigits([f(x, y) for (_, f, _), x, y in zip(parts, _digits(a, sizes), _digits(b, sizes))],
                             sizes)

        def label(i):
            return "(" + ",".join(lab(x) for (_, _, lab), x in zip(parts, _digits(i, sizes))) + ")"

        return math.prod(sizes), mul, label
    if isinstance(spec, R.Zn):
        moduli, symbols = (spec.n,), [""]
        cmul = lambda a, b: (a[0] * b[0],)
    elif isinstance(spec, (R.GF, R.MonicQuotient, R.FamB)):
        if isinstance(spec, R.GF):
            n, modulus = spec.p, R.find_irreducible(spec.p, spec.k)
        elif isinstance(spec, R.MonicQuotient):
            n, modulus = spec.base.n, spec.modulus
        else:  # x^p = 0
            n, modulus = spec.p, (0,) * spec.p + (1,)
        d = len(modulus) - 1
        moduli, symbols = (n,) * d, ["", "x"] + [f"x^{e}" for e in range(2, d)]
        cmul = _poly_mul(n, modulus)
    elif isinstance(spec, R.FamA):  # a + b x; p x = 0, x^2 = 0
        moduli, symbols = (spec.p ** spec.alpha, spec.p), ["", "x"]
        cmul = lambda a, b: (a[0] * b[0], a[0] * b[1] + b[0] * a[1])
    elif isinstance(spec, R.FamC):  # a0 + a1 x + a2 x^2 + a3 y; x^3 = xy = y^2 = 0
        moduli, symbols = (spec.p,) * 4, ["", "x", "x^2", "y"]
        cmul = lambda a, b: (a[0] * b[0], a[0] * b[1] + a[1] * b[0],
                             a[0] * b[2] + a[1] * b[1] + a[2] * b[0], a[0] * b[3] + a[3] * b[0])
    elif isinstance(spec, R.FamD):  # a + b x; p x = 0, x^2 = p
        p = spec.p
        moduli, symbols = (p * p, p), ["", "x"]
        cmul = lambda a, b: (a[0] * b[0] + p * a[1] * b[1], a[0] * b[1] + b[0] * a[1])
    else:
        raise TypeError(spec)

    def mul(a, b):
        return _undigits(cmul(_digits(a, moduli), _digits(b, moduli)), moduli)

    def label(i):
        return _poly_label(_digits(i, moduli), symbols)

    return math.prod(moduli), mul, label


def closed_form_mul(ring):
    """x*y on element indices, computed without the library's arithmetic:
    the reference for ``Ring.mul`` and ``rings.zero_product_table``."""
    return _closed_form(ring.spec)[1]


def reference_labels(ring) -> list[str]:
    """Every element's label, one at a time: the reference for ``Ring.labels``."""
    label = _closed_form(ring.spec)[2]
    return [label(i) for i in range(ring.size)]


def joint_hnf_keys(ring) -> list:
    """One key per element, the Hermite normal form of the lattice that cuts
    out its annihilator: for x with coordinate generators e_1..e_t, ann(x)
    is the solution set of sum_i c_i * coord_j(x*e_i) = 0 (mod m_j), which
    depends only on the lattice spanned by the rows (M/m_j) * coord_j(x*e_i)
    together with M*I, M the lcm of the moduli.  One HNF per element over
    all coordinates, products included, with no unit orbits."""
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


def annihilator_keys(ring) -> list:
    """A key per element such that equal keys imply equal annihilators:
    the reference for ``rings.annihilator_codes`` and the builder's classes.
    A product's key is the tuple of its factors' keys (last factor first),
    as ann(x_1, ..., x_m) = ann(x_1) x ... x ann(x_m); any other ring's is
    its joint HNF key."""
    if isinstance(ring, R.ProductRing):
        parts = [annihilator_keys(f) for f in ring.factors]
        # the first factor's index varies fastest, as in itertools.product's last
        return list(itertools.product(*reversed(parts)))
    return joint_hnf_keys(ring)


def doubling_orbit_reps(ring) -> np.ndarray:
    """The least element of each element's orbit under the units that
    ``rings._unit_orbit_reps`` draws, by repeating whole pointer-doubling
    passes until one changes nothing: the reference for its early stop."""
    n = ring.size
    coords, radix = R._element_coords(ring)
    rng = random.Random(n)
    perms = []
    for _ in range(R._UNIT_DRAWS):
        perm = R._multiplication_map(ring, coords, radix, rng.randrange(1, n))
        if len(np.unique(perm)) == n:
            perms.append(perm)
            if len(perms) == R._UNITS:
                break
    rep = np.arange(n, dtype=np.int64)
    rounds = max(1, (n - 1).bit_length())
    changed = bool(perms)
    while changed:
        before = rep
        for perm in perms:
            step = perm
            for _ in range(rounds):
                rep = np.minimum(rep, rep[step])
                step = step[step]
        changed = not np.array_equal(rep, before)
    return rep


def brute_zero_divisor_graph(ring) -> Graph:
    """Independent O(n^2) construction straight from the definition."""
    n = ring.size
    mul = closed_form_mul(ring)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if mul(a, b) == 0]
    return Graph.from_edges(n, edges, ring.labels())


def reference_edges(g: Graph) -> list[tuple[int, int]]:
    """Every (u, v) with u < v, lexicographically sorted, read bit by bit
    off the rows: the reference for ``Graph.edges``, which reads the class
    skeleton instead."""
    out = []
    for u in range(g.n):
        high = g.rows[u] >> (u + 1)
        while high:
            low = high & -high
            out.append((u, u + low.bit_length()))
            high ^= low
    return out


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
    gcd_n = math.gcd(a, ring.size) if isinstance(ring.spec, R.Zn) else None
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


def charpoly_mod_reference(rows, p: int) -> list[int]:
    """charpoly mod prime p, ascending, one prime at a time: a Hessenberg
    similarity then the leading-minor recurrence with a scalar product of
    subdiagonals per term.  The reference for the library's batched kernel."""
    a = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
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
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
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
        polys[k] = ck % p
    return polys[n].tolist()


def _signature_refinement(adj: list[list[int]], colors: list[int]) -> list[int]:
    """Iterate (color, sorted neighbor colors) signatures to a stable coloring."""
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(len(adj))]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def _backtrack_mapping(rows: list[int], colors: list[int], source: int, target: int):
    """Exhaustive backtracking for a color-preserving automorphism with
    source -> target, checking each new pair against every placed vertex;
    None is a proof of absence."""
    n = len(rows)
    order = sorted(range(n), key=lambda v: (v != source, colors[v], v))
    mapping = [-1] * n
    used = [False] * n
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for u in [target] if v == source else by_color[colors[v]]:
            if used[u] or any((rows[v] >> w & 1) != (rows[u] >> mapping[w] & 1)
                              for w in order[:depth]):
                continue
            mapping[v] = u
            used[u] = True
            if extend(depth + 1):
                return True
            used[u] = False
            mapping[v] = -1
        return False

    return mapping if extend(0) else None


def backtrack_orbits(g: Graph) -> Partition:
    """Automorphism orbits by plain backtracking on the raw rows, with no
    twin compression and no refinement after a vertex is fixed: the
    reference for ``aut_orbits`` on graphs of up to about 60 vertices."""
    n = g.n
    adj = [[u for u in range(n) if row >> u & 1] for row in g.rows]
    colors = _signature_refinement(adj, [0] * n)
    orbit = list(range(n))  # orbit[v]: least vertex known to share v's orbit

    def merge(a: int, b: int) -> None:
        old, new = max(orbit[a], orbit[b]), min(orbit[a], orbit[b])
        for v in range(n):
            if orbit[v] == old:
                orbit[v] = new

    for color in sorted(set(colors)):
        pending = [v for v in range(n) if colors[v] == color]
        while pending:
            base = pending[0]
            for u in pending[1:]:
                if orbit[u] != orbit[base]:
                    mapping = _backtrack_mapping(g.rows, colors, base, u)
                    for v, w in enumerate(mapping or ()):
                        if orbit[v] != orbit[w]:
                            merge(v, w)
            pending = [u for u in pending[1:] if orbit[u] != orbit[base]]
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(orbit[v], []).append(v)
    blocks = [(f"O{i}", tuple(b)) for i, b in enumerate(sorted(groups.values()))]
    return Partition(tuple(blocks), "aut", n)


def twin_blow_up(rng: random.Random, skeleton: Graph, n: int) -> Graph:
    """A graph of n vertices with the given skeleton as its twin quotient,
    up to merges: every vertex joins a skeleton vertex's class (each class
    non-empty when n allows), each class is a clique or independent at
    random, and the vertices are shuffled."""
    k = skeleton.n
    owner = list(range(min(k, n))) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(owner)
    clique = [rng.random() < 0.5 for _ in range(k)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (owner[u] == owner[v] and clique[owner[u]])
             or (owner[u] != owner[v] and skeleton.adjacent(owner[u], owner[v]))]
    return Graph.from_edges(n, edges)


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


# one ring of every kind, a product of three kinds among them
CODEC_SPECS = [
    R.Zn(12), R.GF(5), R.GF(3, 3), R.MonicQuotient(R.Zn(6), (1, 5, 1)), R.FamA(3, 2),
    R.FamB(3), R.FamC(3), R.FamD(5), R.Product((R.FamA(2, 2), R.Zn(3), R.GF(2, 2))),
]


@pytest.fixture(scope="session")
def small_rings():
    return [(spec, R.make_ring(spec)) for spec in SMALL_RING_SPECS]
