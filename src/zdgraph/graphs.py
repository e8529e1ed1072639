"""Simple graphs over bitset adjacency rows, plus the ring-derived builders.

Rows are Python ints used as bitmasks; equal rows are shared between
twin vertices, which keeps even the largest supported graphs compact.
Each graph also carries its class skeleton (``Graph.skeleton``): classes
of mutual twins and how they join.  Twins, quotients, orbits and threshold
recognition work on its k classes instead of the n rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import DSU, iter_bits, mask_from
from .errors import SizeCapExceeded, WrongRingKind, ZdgError
from .ringexpr import render_ring_spec
from .rings import DEFAULT_CAP, ProductRing, Ring, Zn, annihilator_codes, euler_phi, zero_product_table

# classes of a product ring: its class-pair table and each temporary that
# combines it take k^2 bytes, 64 MiB at the cap
CLASS_CAP = 8192


# DOT quotes a label by escaping backslashes and double quotes
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})


class Graph:
    """Undirected simple graph; ``rows[v]`` is the neighbor bitmask of v."""

    __slots__ = ("n", "rows", "_labels", "provenance", "_skeleton", "_charpoly")

    def __init__(self, n: int, rows: list[int], labels: list[str] | None = None,
                 provenance: str | None = None):
        self.n = n
        self.rows = rows
        self._labels = labels  # None, the list, or a function that returns it
        self.provenance = provenance
        self._skeleton = None
        self._charpoly = None  # filled by spectral.char_poly on first use

    @property
    def labels(self) -> list[str]:
        """Vertex labels, computed on first read: the ring's for ring graphs,
        else "0", "1", ...  Threads that race on the first read compute
        equal lists."""
        labels = self._labels
        if labels is None:
            labels = self._labels = [str(i) for i in range(self.n)]
        elif callable(labels):
            labels = self._labels = labels()
        return labels

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

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """The (u, v) with u < v, lexicographically sorted."""
        return list(zip(*(a.tolist() for a in self.edge_arrays())))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (u, v) of every edge, u < v, in lexicographic
        order, read off the class skeleton: a joined class pair gives every
        pair of their members, a clique class every pair within it."""
        sk = self.skeleton()
        members = [np.array(m, dtype=np.int64) for m in sk.members]
        us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for i, (mem, mask) in enumerate(zip(members, sk.join)):
            if sk.clique[i] and len(mem) > 1:
                a, b = np.triu_indices(len(mem), 1)
                us.append(mem[a])
                vs.append(mem[b])
            later = [members[j] for j in iter_bits(mask >> (i + 1) << (i + 1))]
            if later:
                other = np.concatenate(later)
                us.append(np.repeat(mem, len(other)))
                vs.append(np.tile(other, len(mem)))
        u, v = np.concatenate(us), np.concatenate(vs)
        # members of two classes interleave, so order each pair, then all pairs
        pairs = np.sort(np.minimum(u, v) * self.n + np.maximum(u, v))
        return pairs // self.n, pairs % self.n

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
            "edges": np.column_stack(self.edge_arrays()).tolist(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, data: dict, cap: int = DEFAULT_CAP) -> "Graph":
        """The inverse of ``to_json_dict``.  A malformed body raises
        ``ZdgError``, and more than ``cap`` vertices ``SizeCapExceeded``,
        before anything of that size is built."""
        if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
            raise ZdgError("graph JSON must be an object with an edge list")
        n = data.get("n")
        if type(n) is not int or n < 0:
            raise ZdgError(f"graph JSON: n must be a non-negative integer, got {n!r}")
        if n > cap:
            raise SizeCapExceeded.over("graph", math.log10(n), cap)
        for e in data["edges"]:
            if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int and 0 <= v < n for v in e)):
                raise ZdgError(f"graph JSON: edge {e!r} is not a pair of vertices below n = {n}")
        labels = data.get("labels") or [str(i) for i in range(n)]
        if not isinstance(labels, list) or len(labels) != n:
            raise ZdgError("label count does not match n")
        return cls.from_edges(n, data["edges"], [str(s) for s in labels], data.get("provenance"))

    def to_dot(self, partition: "Partition | None" = None) -> str:
        labels, text = self.labels, "".join(self.labels)
        if '"' in text or "\\" in text:
            labels = [s.translate(_DOT_ESCAPES) for s in labels]

        def vertex_lines(indent: str, vertices) -> str:
            flat = [None] * (2 * len(vertices))
            flat[::2] = vertices
            flat[1::2] = map(labels.__getitem__, vertices)
            return (f'{indent}%d [label="%s"];\n' * len(vertices)) % tuple(flat)

        out = ["graph G {\n"]
        if partition is not None:
            for bi, (label, block) in enumerate(partition.blocks):
                out.append(f'  subgraph cluster_{bi} {{\n    label="{label.translate(_DOT_ESCAPES)}";\n'
                           "    rank=same;\n")
                out.append(vertex_lines("    ", block))
                out.append("  }\n")
        else:
            out.append(vertex_lines("  ", range(self.n)))
        ends = np.column_stack(self.edge_arrays()).ravel().tolist()
        out.append(("  %d -- %d;\n" * (len(ends) // 2)) % tuple(ends))
        out.append("}\n")
        return "".join(out)

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
        blocks = [block for _, block in self.blocks]
        total = sum(map(len, blocks))
        flat = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.int64, count=total)
        if total == self.n and (not total or 0 <= flat.min() and flat.max() < total
                                and np.bincount(flat, minlength=total).all()):
            return  # n vertices, all in 0..n-1, each hit: every one exactly once
        seen = set(flat.tolist())
        # a vertex repeated within one block is a cover fault, not an overlap
        if len(seen) < sum(len(set(b)) for b in blocks):
            raise ZdgError("partition blocks overlap")
        raise ZdgError("partition does not cover all vertices")

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


def _bit_rows(rows: list[int], n: int) -> np.ndarray:
    """Bits 0..n-1 of each int as a row of a boolean matrix: the inverse
    of ``_row_ints``."""
    nbytes = n // 8 + 1
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(rows), nbytes), axis=1, count=n, bitorder="little").view(bool)


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
        join = []
        for start in range(0, len(members), 256):
            join += _row_ints(_bit_rows([rows[m[0]] for m in members[start:start + 256]], n)[:, reps])
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
    class_of, members, zero_product = _annihilator_classes(ring)
    k = len(members)
    classes = class_of.tolist()
    clique = zero_product.diagonal().copy()

    # class rows over all vertices (own class included when a clique),
    # packed a block of classes at a time
    base_rows = []
    block = max(1, (1 << 24) // n)
    for start in range(0, k, block):
        base_rows += _row_ints(np.take(zero_product[start:start + block], class_of, axis=1))
    rows = list(map(base_rows.__getitem__, classes))
    for c in np.flatnonzero(clique).tolist():
        for v in members[c]:
            rows[v] ^= 1 << v

    np.fill_diagonal(zero_product, False)
    g = Graph(n, rows, provenance=render_ring_spec(ring.spec))
    g._labels = ring.labels
    g._skeleton = ClassSkeleton(members, tuple(clique.tolist()), tuple(_row_ints(zero_product)))
    object.__setattr__(g._skeleton, "class_of", classes)  # fills the cached property
    return g


def _annihilator_classes(ring: Ring) -> tuple[np.ndarray, tuple, np.ndarray]:
    """The annihilator class of every element, classes numbered by least
    member, each class's members, and the k x k table of whether two
    classes multiply to zero.

    In a product ann(x_1, ..., x_m) = ann(x_1) x ... x ann(x_m): a class is
    a tuple of factor classes, and two classes multiply to zero exactly when
    they do in every factor.  So keys and tables come per factor, the table
    from one ``zero_product_table`` pass over the factor's class
    representatives, and are combined with numpy.
    """
    factors = ring.factors if isinstance(ring, ProductRing) else [ring]
    tables = []
    for f in factors:
        label, members = _number_by_least(annihilator_codes(f))
        tables.append((label, members, zero_product_table(f, [m[0] for m in members])))
    if len(tables) == 1:
        return tables[0]
    elements = np.arange(ring.size, dtype=np.int64)
    codes = np.zeros(ring.size, dtype=np.int64)
    stride = width = 1
    for f, (label, _, table) in zip(factors, tables):
        codes += label[elements // stride % f.size] * width
        stride *= f.size
        width *= len(table)
    class_of, members = _number_by_least(codes)
    if len(members) > CLASS_CAP:
        raise SizeCapExceeded(f"graph has {len(members)} annihilator classes, more than the cap of {CLASS_CAP}")
    codes = codes[[m[0] for m in members]]
    zero_product = np.ones((len(codes), len(codes)), dtype=bool)
    width = 1
    for _, _, table in tables:
        cls = codes // width % len(table)
        zero_product &= table.take(cls, axis=0).take(cls, axis=1)
        width *= len(table)
    return class_of, members, zero_product


def _number_by_least(codes: np.ndarray) -> tuple[np.ndarray, tuple]:
    """One class per distinct code, numbered by least member: the class of
    each element and each class's members, ascending, from one stable sort."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    new = np.empty(len(codes), dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    by_least = np.argsort(order[starts])  # a run's first element is its least
    rank = np.empty_like(by_least)
    rank[by_least] = np.arange(len(by_least))
    class_of = np.empty_like(order)
    class_of[order] = rank[np.cumsum(new) - 1]
    flat, ends = order.tolist(), np.append(starts[1:], len(codes))
    members = tuple(tuple(flat[a:b]) for a, b in zip(starts[by_least].tolist(), ends[by_least].tolist()))
    return class_of, members


def gcd_class_partition(ring: Ring) -> Partition:
    """One block A_d per divisor d of n, for Z/n rings only."""
    if not isinstance(ring.spec, Zn):
        raise WrongRingKind("gcd classes are defined for Z/n rings")
    n = ring.size
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
