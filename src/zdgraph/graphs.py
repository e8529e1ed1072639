"""Simple graphs over bitset adjacency rows, plus the ring-derived builders.

Rows are Python ints used as bitmasks; equal rows are shared between
twin vertices, which keeps even the largest supported graphs compact.
Each graph also carries its class skeleton (``Graph.skeleton``): classes
of mutual twins and how they join.  Twins, quotients, orbits and threshold
recognition work on its k classes instead of the n rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import DSU, iter_bits, mask_from
from .errors import SizeCapExceeded, WrongRingKind, ZdgError
from .ringexpr import render_ring_spec
from .rings import DEFAULT_CAP, ProductRing, Ring, ZnRing, annihilator_keys, euler_phi


class Graph:
    """Undirected simple graph; ``rows[v]`` is the neighbor bitmask of v."""

    __slots__ = ("n", "rows", "labels", "provenance", "_skeleton")

    def __init__(self, n: int, rows: list[int], labels: list[str] | None = None,
                 provenance: str | None = None):
        self.n = n
        self.rows = rows
        self.labels = labels if labels is not None else [str(i) for i in range(n)]
        self.provenance = provenance
        self._skeleton = None

    def skeleton(self) -> "ClassSkeleton":
        """The class skeleton: the builder's for ring graphs, else the twin
        classes, hashed from the rows on first use.  Computing it twice
        gives equal values, so a graph stays safe to share across threads."""
        if self._skeleton is None:
            self._skeleton = ClassSkeleton.from_rows(self.rows)
        return self._skeleton

    @classmethod
    def from_edges(cls, n: int, edges, labels=None, provenance=None) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ZdgError(f"self-loop at {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, labels, provenance)

    def adjacent(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def neighbors(self, v: int):
        return iter_bits(self.rows[v])

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        """Yield (u, v) with u < v, lexicographically sorted."""
        for u in range(self.n):
            high = self.rows[u] >> (u + 1)
            for off in iter_bits(high):
                yield (u, u + 1 + off)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_simple(self) -> None:
        for v in range(self.n):
            if (self.rows[v] >> v) & 1:
                raise ZdgError(f"loop at vertex {v}")
        for u in range(self.n):
            for v in iter_bits(self.rows[u]):
                if not self.adjacent(v, u):
                    raise ZdgError(f"asymmetric edge {u}-{v}")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "labels": list(self.labels),
            "edges": [[u, v] for u, v in self.edges()],
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        n = int(data["n"])
        labels = [str(s) for s in data.get("labels") or [str(i) for i in range(n)]]
        if len(labels) != n:
            raise ZdgError("label count does not match n")
        return cls.from_edges(n, data["edges"], labels, data.get("provenance"))

    def to_dot(self, partition: "Partition | None" = None) -> str:
        def q(s: str) -> str:
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["graph G {"]
        if partition is not None:
            for bi, (label, block) in enumerate(partition.blocks):
                lines.append(f"  subgraph cluster_{bi} {{")
                lines.append(f"    label={q(label)};")
                lines.append("    rank=same;")
                for v in block:
                    lines.append(f"    {v} [label={q(self.labels[v])}];")
                lines.append("  }")
        else:
            for v in range(self.n):
                lines.append(f"  {v} [label={q(self.labels[v])}];")
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, tuple(self.rows)))

    def __repr__(self):
        return f"<Graph n={self.n} m={self.edge_count()}>"


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


@dataclass(frozen=True)
class Partition:
    """Labeled disjoint blocks covering 0..n-1."""

    blocks: tuple  # tuple[(label, tuple[int, ...]), ...]
    kind: str      # "gcd" | "twin" | "aut" | "custom"
    n: int

    def __post_init__(self):
        seen: set = set()
        total = 0
        for _, block in self.blocks:
            vs = set(block)
            if not seen.isdisjoint(vs):
                raise ZdgError("partition blocks overlap")
            seen |= vs
            total += len(block)
        if total != self.n or len(seen) != self.n or (seen and (min(seen) < 0 or max(seen) >= self.n)):
            raise ZdgError("partition does not cover all vertices")

    def block_sizes(self) -> list[int]:
        return [len(b) for _, b in self.blocks]

    def block_of(self) -> list[int]:
        out = [0] * self.n
        for bi, (_, block) in enumerate(self.blocks):
            for v in block:
                out[v] = bi
        return out

    def as_sets(self) -> set[frozenset]:
        return {frozenset(b) for _, b in self.blocks}

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "blocks": [{"label": lab, "vertices": list(b), "size": len(b)} for lab, b in self.blocks],
        }

    def refines(self, coarser: "Partition") -> bool:
        """True when every block here sits inside one block of ``coarser``."""
        masks = [mask_from(b) for _, b in coarser.blocks]
        for _, block in self.blocks:
            m = mask_from(block)
            if not any(m & cm == m for cm in masks):
                return False
        return True


def make_partition(blocks, kind: str, n: int) -> Partition:
    ordered = sorted(((lab, tuple(sorted(b))) for lab, b in blocks), key=lambda t: t[1][0])
    return Partition(tuple(ordered), kind, n)


def _row_ints(bits: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int whose bit j is column j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    buf, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(buf[at:at + width], "little") for at in range(0, len(buf), width)]


@dataclass(frozen=True)
class ClassSkeleton:
    """A graph as the generalized join of k classes of mutual twins.

    ``members[i]`` lists class i's vertices in ascending order, classes
    ordered by least vertex.  Class i induces a clique when ``clique[i]``
    and an independent set otherwise (the flag means nothing for a single
    vertex).  Bit j of ``join[i]`` is set when classes i and j are fully
    joined; otherwise no edge runs between them.  Cardoso, de Freitas,
    Martins & Robbiano, Discrete Math. 313 (2013).
    """

    members: tuple  # tuple[tuple[int, ...], ...]
    clique: tuple   # tuple[bool, ...]
    join: tuple     # tuple[int, ...], k-bit masks

    @classmethod
    def from_rows(cls, rows: list[int]) -> "ClassSkeleton":
        """Twin classes: the twin groups of one class per vertex."""
        n = len(rows)
        singletons = cls(tuple((v,) for v in range(n)), (False,) * n, tuple(rows))
        members = tuple(tuple(grp) for grp in singletons.twin_groups())
        clique = tuple(len(m) > 1 and (rows[m[0]] >> m[1]) & 1 == 1 for m in members)
        # join[i] gathers the bits of class i's row at every class's least
        # vertex, a block of rows at a time
        reps = np.array([m[0] for m in members], dtype=np.int64)
        nbytes = n // 8 + 1
        join = []
        for start in range(0, len(members), 256):
            block = members[start:start + 256]
            raw = b"".join(rows[m[0]].to_bytes(nbytes, "little") for m in block)
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(block), nbytes),
                                 axis=1, bitorder="little")
            join += _row_ints(bits[:, reps])
        return cls(members, clique, tuple(join))

    @cached_property
    def class_of(self) -> list[int]:
        """Class index of each vertex."""
        out = [0] * sum(len(m) for m in self.members)
        for i, mem in enumerate(self.members):
            for v in mem:
                out[v] = i
        return out

    def twin_groups(self) -> list[list[int]]:
        """Classes grouped into twin classes, ordered by least vertex.

        Classes i and j are twins when their join masks agree outside
        {i, j} and each class of several vertices is a clique exactly when
        i and j are joined: equal masks when apart, equal masks plus the
        own bit when joined.
        """
        dsu = DSU(len(self.members))
        open_groups: dict[int, int] = {}
        closed_groups: dict[int, int] = {}
        for i, (mem, mask) in enumerate(zip(self.members, self.join)):
            single = len(mem) == 1
            if single or not self.clique[i]:
                prev = open_groups.setdefault(mask, i)
                if prev != i:
                    dsu.union(prev, i)
            if single or self.clique[i]:
                prev = closed_groups.setdefault(mask | (1 << i), i)
                if prev != i:
                    dsu.union(prev, i)
        return dsu.groups()

    def vertices(self, classes: list[int]) -> tuple[int, ...]:
        """The vertices of some classes, in ascending order."""
        if len(classes) == 1:
            return self.members[classes[0]]
        return tuple(sorted(v for c in classes for v in self.members[c]))


@dataclass(frozen=True)
class JoinSkeleton:
    skeleton: Graph
    parts: tuple


# ---------------------------------------------------------------------------
# Zero-divisor graph construction
# ---------------------------------------------------------------------------

def build_zero_divisor_graph(ring: Ring, cap: int = DEFAULT_CAP) -> Graph:
    """Graph on all ring elements; distinct x, y adjacent iff x*y = 0.

    Elements are first grouped by annihilator key; adjacency is then decided
    once per pair of groups from representative products (per factor in a
    product ring), which both avoids the quadratic multiplication sweep and
    lets equal-neighborhood vertices share one row object.
    """
    n = ring.size
    if n > cap:
        raise SizeCapExceeded.over("graph", math.log10(n), cap)
    class_of, zero_product = _annihilator_classes(ring)
    k = len(zero_product)
    classes = class_of.tolist()
    members: list[list[int]] = [[] for _ in range(k)]
    for v, c in enumerate(classes):
        members[c].append(v)
    clique = zero_product.diagonal().copy()

    # class rows over all vertices (own class included when a clique),
    # packed a block of classes at a time
    base_rows = []
    block = max(1, (1 << 24) // n)
    for start in range(0, k, block):
        base_rows += _row_ints(np.take(zero_product[start:start + block], class_of, axis=1))
    rows = [base_rows[c] for c in classes]
    for c in np.flatnonzero(clique).tolist():
        for v in members[c]:
            rows[v] ^= 1 << v

    np.fill_diagonal(zero_product, False)
    join = tuple(_row_ints(zero_product))
    labels = [ring.label(i) for i in range(n)]
    g = Graph(n, rows, labels, provenance=render_ring_spec(ring.spec))
    g._skeleton = ClassSkeleton(tuple(map(tuple, members)), tuple(clique.tolist()), join)
    return g


def _annihilator_classes(ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    """The annihilator class of every element, classes numbered by least
    member, and the k x k table of whether two classes multiply to zero.

    In a product ann(x_1, ..., x_m) = ann(x_1) x ... x ann(x_m): a class is
    a tuple of factor classes, and two classes multiply to zero exactly when
    they do in every factor.  So keys and tables come per factor, from one
    representative product per pair of factor classes, and are combined
    with numpy.
    """
    factors = ring.factors if isinstance(ring, ProductRing) else [ring]
    tables = []
    for f in factors:
        label, reps, index = [], [], {}
        for x, key in enumerate(annihilator_keys(f)):
            c = index.setdefault(key, len(reps))
            if c == len(reps):
                reps.append(x)
            label.append(c)
        table = np.array([[f.mul(a, b) == f.zero for b in reps] for a in reps], dtype=bool)
        tables.append((np.array(label, dtype=np.int64), table))
    if len(tables) == 1:
        return tables[0]
    elements = np.arange(ring.size, dtype=np.int64)
    codes = np.zeros(ring.size, dtype=np.int64)
    stride = width = 1
    for f, (label, table) in zip(factors, tables):
        codes += label[elements // stride % f.size] * width
        stride *= f.size
        width *= len(table)
    codes, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_least = np.argsort(first)
    rank = np.empty_like(by_least)
    rank[by_least] = np.arange(len(by_least))
    codes = codes[by_least]
    zero_product = np.ones((len(codes), len(codes)), dtype=bool)
    width = 1
    for _, table in tables:
        cls = codes // width % len(table)
        zero_product &= table.take(cls, axis=0).take(cls, axis=1)
        width *= len(table)
    return rank[inverse.reshape(-1)], zero_product


def gcd_class_partition(ring: Ring) -> Partition:
    """One block A_d per divisor d of n, for Z/n rings only."""
    if not isinstance(ring, ZnRing):
        raise WrongRingKind("gcd classes are defined for Z/n rings")
    n = ring.n
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(math.gcd(x, n) if x else n, []).append(x)
    blocks = [(f"A_{d}", tuple(sorted(v))) for d, v in sorted(groups.items())]
    return Partition(tuple(blocks), "gcd", n)


def twin_partition(g: Graph) -> Partition:
    """Blocks of mutually twin vertices: N(u) minus v equals N(v) minus u."""
    sk = g.skeleton()
    blocks = [(f"T{i}", sk.vertices(grp)) for i, grp in enumerate(sk.twin_groups())]
    return Partition(tuple(blocks), "twin", g.n)


def divisor_graph(n: int) -> Graph:
    """Graph on proper divisors 1 < d < n; edge d_i-d_j iff n divides d_i*d_j."""
    if n < 2:
        raise ZdgError("divisor graph needs n >= 2")
    divs = [d for d in range(2, n) if n % d == 0]
    idx = {d: i for i, d in enumerate(divs)}
    edges = []
    for i, d in enumerate(divs):
        for e in divs[i + 1:]:
            if (d * e) % n == 0:
                edges.append((idx[d], idx[e]))
    return Graph.from_edges(len(divs), edges, [str(d) for d in divs], provenance=f"divisors({n})")


def generalized_join(sk: JoinSkeleton) -> Graph:
    """Replace skeleton vertex i by parts[i]; fully join parts across skeleton edges."""
    parts = sk.parts
    if sk.skeleton.n != len(parts):
        raise ZdgError("skeleton order must match the number of parts")
    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += part.n
    masks = [((1 << part.n) - 1) << off for part, off in zip(parts, offsets)]
    join_row = [0] * len(parts)
    for i in range(len(parts)):
        for j in iter_bits(sk.skeleton.rows[i]):
            join_row[i] |= masks[j]
    rows = [0] * total
    labels = [""] * total
    for i, (part, off) in enumerate(zip(parts, offsets)):
        for v in range(part.n):
            rows[off + v] = (part.rows[v] << off) | join_row[i]
            labels[off + v] = part.labels[v]
    return Graph(total, rows, labels)


def induced_subgraph(g: Graph, vertices) -> Graph:
    vs = sorted(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    vset = mask_from(vs)
    for v in vs:
        sub = g.rows[v] & vset
        row = 0
        for u in iter_bits(sub):
            row |= 1 << pos[u]
        rows[pos[v]] = row
    return Graph(len(vs), rows, [g.labels[v] for v in vs], provenance=g.provenance)


def orbit_block_classification(p: int, alpha: int, cap: int = DEFAULT_CAP):
    """For Z_{p^alpha}: per-exponent block sizes and clique/independent kinds.

    Block i holds the elements of gcd p^i; it induces a complete subgraph
    exactly when 2*i >= alpha, and singleton blocks count as complete.
    """
    if alpha * math.log10(p) > math.log10(max(cap, 1)) + 1 or p ** alpha > cap:
        raise SizeCapExceeded.over(f"Z/{p}^{alpha}", alpha * math.log10(p), cap)
    out = []
    for i in range(alpha + 1):
        size = euler_phi(p ** (alpha - i))
        kind = "complete" if (size == 1 or 2 * i >= alpha) else "independent"
        out.append((i, kind, size))
    return out
