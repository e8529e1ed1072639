"""References for the class-level graph core that share no code with it.

Twins, quotients, threshold recognition and the 4-cycle oracle read the
class skeleton a graph carries.  Each reference here works on adjacency
rows alone, by definition or by the per-vertex algorithm the class-level
code replaced (copied in below), and the ring graph's rows themselves are
checked against x*y = 0.  The corpus mixes ring graphs (skeleton from the
builder's annihilator classes, which may split twin classes), their
relabelled copies and twin-heavy blow-ups (skeleton hashed from the rows).
"""

import random

import pytest

from conftest import brute_zero_divisor_graph, random_graph
from zdgraph import graphs as G
from zdgraph import rings as R
from zdgraph import spectral as S
from zdgraph import threshold as T
from zdgraph.errors import MixedBlock, NotEquitable

# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def random_ring_spec(rng: random.Random, max_size: int = 200, families: int = 8):
    """A seeded ring spec from any family, or a product of them."""
    family = rng.randrange(families)
    if family == 0:
        return R.Zn(rng.randrange(2, 120))
    if family == 1:
        return rng.choice([R.GF(2, k) for k in range(1, 7)] + [R.GF(3, 2), R.GF(3, 3), R.GF(5, 2), R.GF(7, 2)]
                          + [R.GF(p) for p in (2, 3, 5, 7, 11, 13)])
    if family == 2:
        n = rng.randrange(2, 10)
        deg = rng.randrange(1, 4)
        while n ** deg > max_size:
            deg -= 1
        return R.MonicQuotient(R.Zn(n), tuple(rng.randrange(n) for _ in range(deg)) + (1,))
    if family == 3:
        return rng.choice([R.FamA(2, a) for a in range(1, 7)] + [R.FamA(3, a) for a in (1, 2, 3)] + [R.FamA(5, 1)])
    if family == 4:
        return R.FamB(rng.choice((2, 3)))
    if family == 5:
        return R.FamC(rng.choice((2, 3)))
    if family == 6:
        return R.FamD(rng.choice((2, 3, 5)))
    while True:
        factors = tuple(_small_factor(rng) for _ in range(rng.choice((2, 2, 3))))
        spec = R.Product(factors)
        if R.spec_size(spec) <= max_size:
            return spec


def _small_factor(rng: random.Random):
    while True:
        spec = random_ring_spec(rng, families=7)
        if R.spec_size(spec) <= 27:
            return spec


def relabel(g: G.Graph, rng: random.Random) -> G.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return G.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def blow_up(rng: random.Random, max_classes: int = 10, max_size: int = 5) -> G.Graph:
    """Each vertex of a random base graph becomes a random-size clique or
    independent set, classes fully joined along base edges, vertices
    shuffled so that classes interleave."""
    k = rng.randrange(1, max_classes + 1)
    density = rng.random()
    base = {(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < density}
    sizes = [rng.randrange(1, max_size + 1) for _ in range(k)]
    clique = [rng.random() < 0.5 for _ in range(k)]
    owner = [i for i in range(k) for _ in range(sizes[i])]
    rng.shuffle(owner)
    n = len(owner)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (owner[u] == owner[v] and clique[owner[u]])
             or (min(owner[u], owner[v]), max(owner[u], owner[v])) in base]
    return G.Graph.from_edges(n, edges)


def corpus(seed: int, rings: int = 40, blow_ups: int = 100, randoms: int = 40) -> list[G.Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(rings):
        g = G.build_zero_divisor_graph(R.make_ring(random_ring_spec(rng)))
        out += [g, relabel(g, rng)]
    out += [blow_up(rng) for _ in range(blow_ups)]
    out += [random_graph(rng, rng.randrange(0, 12)) for _ in range(randoms)]
    return out


# ---------------------------------------------------------------------------
# References on rows
# ---------------------------------------------------------------------------


def twin_blocks_by_definition(g: G.Graph) -> list[tuple[int, ...]]:
    """Union of u, v whenever N(u) minus v equals N(v) minus u."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.rows[u] & ~(1 << v) == g.rows[v] & ~(1 << u):
                parent[find(v)] = find(u)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(grp) for grp in groups.values())


def quotient_per_vertex(g: G.Graph, partition: G.Partition) -> S.QuotientMatrix:
    """The per-vertex equitable quotient check the class-level one replaced."""
    blocks = partition.blocks
    masks = []
    for _, b in blocks:
        m = 0
        for v in b:
            m |= 1 << v
        masks.append(m)
    kinds = []
    for (label, block), mask in zip(blocks, masks):
        if len(block) == 1:
            kinds.append("clique")
            continue
        first = g.rows[block[0]] & mask
        internal_clique = first == mask ^ (1 << block[0])
        internal_indep = first == 0
        if not (internal_clique or internal_indep):
            raise MixedBlock(label)
        for v in block:
            inside = g.rows[v] & mask
            want = (mask ^ (1 << v)) if internal_clique else 0
            if inside != want:
                raise MixedBlock(label)
        kinds.append("clique" if internal_clique else "independent")
    k = len(blocks)
    entries = [[0] * k for _ in range(k)]
    for i, (_, block_i) in enumerate(blocks):
        for j, (label_j, block_j) in enumerate(blocks):
            if i == j:
                if kinds[i] == "clique":
                    entries[i][i] = len(block_i) - 1
                continue
            joined = g.rows[block_i[0]] & masks[j]
            expect = masks[j] if joined else 0
            for v in block_i:
                if g.rows[v] & masks[j] != expect:
                    raise NotEquitable(v, label_j)
            if joined:
                entries[i][j] = len(block_j)
    return S.QuotientMatrix(tuple(tuple(r) for r in entries), tuple(len(b) for _, b in blocks),
                            tuple(kinds), tuple(lab for lab, _ in blocks))


def lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def shape(g, a, b, c, d) -> str:
    return {0: "2K2", 1: "P4", 2: "C4"}[int(g.adjacent(a, d)) + int(g.adjacent(b, c))]


def first_four_cycle_by_scan(g: G.Graph):
    """Full lexicographic scan over every (a, b, c) of the rows."""
    full = (1 << g.n) - 1
    for a in range(g.n):
        comp_a = ~g.rows[a] & full & ~(1 << a)
        for b in bits(g.rows[a]):
            not_ab = ~((1 << a) | (1 << b))
            for c in bits(comp_a & ~(1 << b)):
                cand_d = g.rows[c] & ~g.rows[b] & not_ab
                if cand_d:
                    d = lowest(cand_d)
                    return (a, b, c, d, shape(g, a, b, c, d))
    return None


def threshold_per_vertex(g: G.Graph) -> dict:
    """The per-vertex dismantling the class-level one replaced, as a report."""
    n = g.n
    if n == 0:
        return {"verdict": "threshold", "code": None, "witness": None}
    deg0 = [r.bit_count() for r in g.rows]
    buckets: dict[int, list[int]] = {}
    for v in range(n - 1, -1, -1):
        buckets.setdefault(deg0[v], []).append(v)
    record = []
    dominated = 0
    for step in range(n):
        n_rem = n - step
        if n_rem == 1:
            record.append("0")
            continue
        iso_b = buckets.get(dominated)
        dom_b = buckets.get(dominated + n_rem - 1)
        iso = iso_b[-1] if iso_b else None
        dom = dom_b[-1] if dom_b else None
        if iso is None and dom is None:
            remaining = [v for b in buckets.values() for v in b]
            rem_mask = sum(1 << v for v in remaining)
            order = sorted(remaining, key=lambda v: (dominated - deg0[v], v))
            for u, v in zip(order, order[1:]):
                nu, nv = g.rows[u] & rem_mask, g.rows[v] & rem_mask
                b_mask = nu & ~nv & ~(1 << v)
                d_mask = nv & ~nu & ~(1 << u)
                if b_mask and d_mask:
                    b, d = lowest(b_mask), lowest(d_mask)
                    witness = {"a": u, "b": b, "c": d, "d": v, "shape": shape(g, u, b, d, v)}
                    return {"verdict": "not_threshold", "code": None, "witness": witness}
            raise AssertionError("no incomparable pair")
        if dom is None or (iso is not None and iso < dom):
            iso_b.pop()
            record.append("0")
        else:
            dom_b.pop()
            record.append("1")
            dominated += 1
    return {"verdict": "threshold", "code": "".join(reversed(record)), "witness": None}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_ring_graph_rows_match_products_on_random_specs():
    rng = random.Random(4242)
    families = set()
    for _ in range(70):
        spec = random_ring_spec(rng)
        families.add(type(spec).__name__)
        ring = R.make_ring(spec)
        assert G.build_zero_divisor_graph(ring).rows == brute_zero_divisor_graph(ring).rows, spec
    assert families == {"Zn", "GF", "MonicQuotient", "FamA", "FamB", "FamC", "FamD", "Product"}


def test_ring_skeleton_members_and_class_of_agree():
    """The builder's classes list their vertices ascending, ordered by least
    vertex, and ``class_of`` names each vertex's class."""
    rng = random.Random(4243)
    for _ in range(40):
        spec = random_ring_spec(rng)
        sk = G.build_zero_divisor_graph(R.make_ring(spec)).skeleton()
        assert sorted(v for m in sk.members for v in m) == list(range(len(sk.class_of))), spec
        assert all(list(m) == sorted(m) for m in sk.members), spec
        assert [m[0] for m in sk.members] == sorted(m[0] for m in sk.members), spec
        assert all(sk.class_of[v] == c for c, m in enumerate(sk.members) for v in m), spec


def test_twin_partition_matches_definition():
    for g in corpus(11):
        part = G.twin_partition(g)
        want = twin_blocks_by_definition(g)
        assert [b for _, b in part.blocks] == want
        assert [lab for lab, _ in part.blocks] == [f"T{i}" for i in range(len(want))]


def _random_partitions(g: G.Graph, rng: random.Random):
    """Refinements of the twin partition (always equitable), coarsenings of
    it and arbitrary partitions (often not), blocks and vertices shuffled."""
    twins = [list(b) for b in twin_blocks_by_definition(g)]
    refined = []
    for block in twins:
        rng.shuffle(block)
        cut = sorted(rng.sample(range(1, len(block)), rng.randrange(len(block)))) if len(block) > 1 else []
        refined += [block[i:j] for i, j in zip([0] + cut, cut + [len(block)])]
    merged = {}
    for block in twins:
        merged.setdefault(rng.randrange(max(1, len(twins) // 2)), []).extend(block)
    arbitrary = {}
    for v in range(g.n):
        arbitrary.setdefault(rng.randrange(1, 5), []).append(v)
    for blocks in (refined, list(merged.values()), list(arbitrary.values())):
        blocks = [list(b) for b in blocks if b]
        rng.shuffle(blocks)
        for b in blocks:
            rng.shuffle(b)
        yield G.Partition(tuple((f"B{i}", tuple(b)) for i, b in enumerate(blocks)), "custom", g.n)


def _outcome(fn, g, part):
    try:
        return fn(g, part)
    except NotEquitable as exc:
        return ("NotEquitable", exc.vertex, exc.block_label)
    except MixedBlock as exc:
        return ("MixedBlock", exc.block_label)


def test_equitable_quotient_matches_per_vertex_check():
    rng = random.Random(7)
    seen = set()
    for g in corpus(12):
        if g.n == 0:
            continue
        for part in _random_partitions(g, rng):
            want = _outcome(quotient_per_vertex, g, part)
            assert _outcome(S.equitable_quotient_matrix, g, part) == want
            seen.add(want[0] if isinstance(want, tuple) else "ok")
    assert seen == {"ok", "NotEquitable", "MixedBlock"}


def test_four_cycle_oracle_matches_full_scan_on_blow_ups():
    rng = random.Random(99)
    found = 0
    graphs = [blow_up(rng, max_classes=12, max_size=5) for _ in range(600)]
    graphs += [g for g in corpus(13, blow_ups=0, randoms=0) if g.n <= 100]
    for g in graphs:
        w = T.find_alternating_four_cycle(g)
        got = None if w is None else (w.a, w.b, w.c, w.d, w.shape)
        assert got == first_four_cycle_by_scan(g)
        found += got is not None
    assert 0 < found < len(graphs)


def test_is_threshold_matches_per_vertex_dismantling():
    rng = random.Random(5)
    graphs = corpus(14) + [T.build_threshold_from_code("0" + "".join(rng.choice("01") for _ in range(rng.randrange(40))))
                           for _ in range(40)]
    verdicts = set()
    for g in graphs:
        want = threshold_per_vertex(g)
        assert T.is_threshold(g).to_json_dict() == want
        verdicts.add(want["verdict"])
    assert verdicts == {"threshold", "not_threshold"}


@pytest.mark.parametrize("expr", ["Z/4", "FamB(2)", "FamA(3,1)", "Z/2 x Z/4"])
def test_key_classes_finer_than_twins_still_merge(expr):
    """Rings whose annihilator classes split a twin class."""
    from zdgraph.ringexpr import parse_ring_spec

    g = G.build_zero_divisor_graph(R.make_ring(parse_ring_spec(expr)))
    assert [b for _, b in G.twin_partition(g).blocks] == twin_blocks_by_definition(g)
    assert T.is_threshold(g).to_json_dict() == threshold_per_vertex(g)


def test_results_do_not_depend_on_how_fine_the_skeleton_is():
    """Every vertex its own class is a valid skeleton too: the answers must
    equal those from the twin-class skeleton (the builder's annihilator
    classes sit between the two)."""
    from zdgraph.orbits import aut_orbits

    rng = random.Random(21)
    graphs = [g for g in corpus(15) if g.n <= 40]
    graphs.append(G.Graph.from_edges(4, [(0, 1)]))  # twin classes K2 and 2K1: colours must differ
    for g in graphs:
        fine = G.Graph(g.n, g.rows)
        fine._skeleton = G.ClassSkeleton(tuple((v,) for v in range(g.n)), (False,) * g.n, tuple(g.rows))
        coarse = G.Graph(g.n, g.rows)
        assert G.twin_partition(fine) == G.twin_partition(coarse)
        assert aut_orbits(fine) == aut_orbits(coarse)
        assert T.is_threshold(fine) == T.is_threshold(coarse)
        assert T.find_alternating_four_cycle(fine) == T.find_alternating_four_cycle(coarse)
        if g.n:
            for part in _random_partitions(g, rng):
                assert _outcome(S.equitable_quotient_matrix, fine, part) == _outcome(S.equitable_quotient_matrix, coarse, part)
