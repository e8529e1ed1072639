"""Threshold recognition with certificates in both directions.

A graph is threshold iff it can be dismantled by repeatedly deleting a
vertex that is isolated or dominating in what remains.  The dismantling
runs on degrees alone: deleting an isolated vertex changes no remaining
degree, deleting a dominating vertex lowers every remaining degree by one,
so a vertex is isolated exactly when its original degree equals the number
of dominating deletions so far.  On a stall the remaining subgraph carries
a pair of vertices with incomparable neighborhoods, which yields an
alternating-4-cycle witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._util import iter_bits, lowest_bit, mask_from
from .errors import MalformedCode, NotThresholdError
from .graphs import Graph, Partition

_LEX_ONLY_CAP = 64  # below this the 4-cycle oracle is the raw lexicographic scan


@dataclass(frozen=True)
class CreationSequence:
    """Binary build recipe: 0 adds an isolated vertex, 1 a dominating one."""

    bits: str

    def __post_init__(self):
        if not self.bits or self.bits.strip("01"):
            raise MalformedCode(f"code must be a nonempty 0/1 string, got {self.bits!r}")
        if self.bits[0] != "0":
            raise MalformedCode("code must start with 0 (the initial vertex)")

    def __len__(self):
        return len(self.bits)

    def runs(self) -> list[tuple[str, int]]:
        """Run-length pairs, e.g. 0000111001 -> [(0,4),(1,3),(0,2),(1,1)]."""
        out: list[tuple[str, int]] = []
        for b in self.bits:
            if out and out[-1][0] == b:
                out[-1] = (b, out[-1][1] + 1)
            else:
                out.append((b, 1))
        return out

    def __str__(self):
        return self.bits


@dataclass(frozen=True)
class AlternatingFourCycle:
    """Vertices with edges (a,b),(c,d) and non-edges (a,c),(b,d)."""

    a: int
    b: int
    c: int
    d: int
    shape: str  # "P4" | "C4" | "2K2"

    def validate(self, g: Graph) -> bool:
        vs = (self.a, self.b, self.c, self.d)
        if len(set(vs)) != 4 or any(v < 0 or v >= g.n for v in vs):
            return False
        a, b, c, d = vs
        if not (g.adjacent(a, b) and g.adjacent(c, d)):
            return False
        if g.adjacent(a, c) or g.adjacent(b, d):
            return False
        return self.shape == _shape_of(g, a, b, c, d)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d, "shape": self.shape}


def _shape_of(g: Graph, a: int, b: int, c: int, d: int) -> str:
    extra = int(g.adjacent(a, d)) + int(g.adjacent(b, c))
    return {0: "2K2", 1: "P4", 2: "C4"}[extra]


@dataclass(frozen=True)
class ThresholdResult:
    is_threshold: bool
    code: CreationSequence | None = None
    witness: AlternatingFourCycle | None = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": "threshold" if self.is_threshold else "not_threshold",
            "code": self.code.bits if self.code else None,
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


def _stall_witness(g: Graph, remaining: list[int], degs: list[int]) -> AlternatingFourCycle:
    """Deterministic witness for a non-dismantlable set of skeleton classes.

    Scans the remaining vertices in (degree descending, index) order; some
    consecutive pair must have incomparable neighborhoods, which pins the
    four witness vertices.  Twins are never incomparable, so only pairs
    from two classes are tested.
    """
    sk = g.skeleton()
    rem = sum(1 << c for c in remaining)

    def lowest_outside(c: int, v: int) -> int | None:
        """Least vertex of class c other than v."""
        mem = sk.members[c]
        if mem[0] != v:
            return mem[0]
        return mem[1] if len(mem) > 1 else None

    def private(u: int, cu: int, v: int, cv: int) -> int | None:
        """Least remaining neighbor of u that is neither v nor a neighbor of v."""
        others = sk.join[cu] & ~sk.join[cv] & rem & ~(1 << cv)
        found = [sk.members[c][0] for c in iter_bits(others)]
        joined = sk.join[cu] >> cv & 1
        if sk.clique[cu] and not joined:
            found.append(lowest_outside(cu, u))
        if joined and not sk.clique[cv]:
            found.append(lowest_outside(cv, v))
        found = [w for w in found if w is not None]
        return min(found) if found else None

    by_degree: dict[int, list[int]] = {}
    for c in remaining:
        by_degree.setdefault(degs[c], []).append(c)
    prev = None
    for deg in sorted(by_degree, reverse=True):
        group = by_degree[deg]
        if len(group) == 1:  # only its least and greatest vertex meet another class
            mem = sk.members[group[0]]
            order = [(mem[0], group[0]), (mem[-1], group[0])]
        else:
            order = sorted((v, c) for c in group for v in sk.members[c])
        for v, cv in order:
            if prev is not None and prev[1] != cv:
                u, cu = prev
                b = private(u, cu, v, cv)
                d = private(v, cv, u, cu) if b is not None else None
                if d is not None:
                    return AlternatingFourCycle(u, b, d, v, _shape_of(g, u, b, d, v))
            prev = (v, cv)
    raise AssertionError("stalled subgraph must contain an incomparable pair")


def is_threshold(g: Graph) -> ThresholdResult:
    """Dismantle by isolated/dominating deletions; certificate either way.

    Twins share a degree, so whole skeleton classes leave at once: all
    remaining vertices of the isolated (or dominating) degree go in one
    run of the creation sequence.  An isolated and a dominating vertex
    never coexist in two or more vertices, so the sequence is canonical.
    """
    n = g.n
    if n == 0:
        return ThresholdResult(True, None, None)
    sk = g.skeleton()
    degs = [g.degree(mem[0]) for mem in sk.members]
    buckets: dict[int, list[int]] = {}
    for c, d in enumerate(degs):
        buckets.setdefault(d, []).append(c)
    record: list[str] = []
    dominated = 0
    n_rem = n
    while n_rem > 1:
        bit = "0"
        classes = buckets.pop(dominated, None)
        if classes is None:
            bit = "1"
            classes = buckets.pop(dominated + n_rem - 1, None)
        if classes is None:
            remaining = sorted(c for cs in buckets.values() for c in cs)
            return ThresholdResult(False, None, _stall_witness(g, remaining, degs))
        # the last vertex left is recorded as the isolated initial vertex
        take = min(sum(len(sk.members[c]) for c in classes), n_rem - 1)
        record.append(bit * take)
        n_rem -= take
        if bit == "1":
            dominated += take
    record.append("0")
    return ThresholdResult(True, CreationSequence("".join(reversed(record))), None)


def creation_sequence(g: Graph) -> CreationSequence:
    result = is_threshold(g)
    if not result.is_threshold:
        raise NotThresholdError(f"graph has an alternating 4-cycle: {result.witness}")
    return result.code


def build_threshold_from_code(code: CreationSequence | str) -> Graph:
    """Grow a graph from the recipe: bit 0 adds isolated, bit 1 adds dominating."""
    if isinstance(code, str):
        code = CreationSequence(code)
    bits = code.bits
    n = len(bits)
    rows = [0] * n
    existing = 0
    for i, b in enumerate(bits):
        if b == "1":
            rows[i] = existing
            for v in iter_bits(existing):
                rows[v] |= 1 << i
        existing |= 1 << i
    return Graph(n, rows, labels=list(bits), provenance=f"code:{bits}")


def run_block_partition(code: CreationSequence | str) -> Partition:
    """Partition of the code-built graph into its consecutive 0/1 runs."""
    if isinstance(code, str):
        code = CreationSequence(code)
    blocks = []
    at = 0
    for bit, length in code.runs():
        blocks.append((f"{bit}^{length}", tuple(range(at, at + length))))
        at += length
    return Partition(tuple(blocks), "custom", at)


def _vicinal_order_total(g: Graph) -> bool:
    """True iff neighborhoods are nested along the degree order (no 4-cycle).

    Twins are nested both ways, so one vertex per skeleton class stands
    for its class."""
    reps = sorted((-g.degree(mem[0]), mem[0]) for mem in g.skeleton().members)
    for (_, u), (_, v) in zip(reps, reps[1:]):
        if (g.rows[v] & ~(1 << u)) & ~g.rows[u]:
            return False
    return True


def find_alternating_four_cycle(g: Graph) -> AlternatingFourCycle | None:
    """First witness in lexicographic (a, b, c, d) order, or None.

    For large graphs a nestedness test settles the empty case first, so
    confirming a threshold graph stays near-linear; any returned witness
    still comes from the lexicographic scan.  The scan tries as a only the
    least vertex of each skeleton class, as b the least two, as c the least
    three: swapping twins is an automorphism, and it maps any witness with
    a later choice onto an earlier one.
    """
    n = g.n
    if n > _LEX_ONLY_CAP and _vicinal_order_total(g):
        return None
    members = g.skeleton().members
    cand_a = mask_from(m[0] for m in members)
    cand_b = mask_from(v for m in members for v in m[:2])
    cand_c = mask_from(v for m in members for v in m[:3])
    full = g.full_mask()
    for a in iter_bits(cand_a):
        row_a = g.rows[a]
        comp_a = ~row_a & full & ~(1 << a) & cand_c
        for b in iter_bits(row_a & cand_b):
            not_ab = ~((1 << a) | (1 << b))
            for c in iter_bits(comp_a & ~(1 << b)):
                cand_d = g.rows[c] & ~g.rows[b] & not_ab
                if cand_d:
                    d = lowest_bit(cand_d)
                    return AlternatingFourCycle(a, b, c, d, _shape_of(g, a, b, c, d))
    return None
