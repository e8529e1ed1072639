import json

import pytest

from conftest import brute_zero_divisor_graph, reference_labels
from zdgraph import graphs as G
from zdgraph import rings as R
from zdgraph import spectral as S
from zdgraph import threshold as T
from zdgraph.errors import WrongRingKind, ZdgError
from zdgraph.orbits import aut_orbits
from zdgraph.ringexpr import parse_ring_spec
from zdgraph.rings import is_prime


def test_builder_matches_definition(small_rings):
    """The classwise construction must equal the pairwise-product definition."""
    for spec, ring in small_rings:
        g = G.build_zero_divisor_graph(ring)
        assert g.rows == brute_zero_divisor_graph(ring).rows, spec
        g.check_simple()


def test_builder_matches_definition_on_random_rings():
    import random

    rng = random.Random(31)
    for _ in range(40):
        kind = rng.randrange(3)
        if kind == 0:
            n = rng.randrange(2, 13)
            deg = rng.randrange(1, 3)
            spec = R.MonicQuotient(R.Zn(n), tuple(rng.randrange(n) for _ in range(deg)) + (1,))
        elif kind == 1:
            spec = R.Product((R.Zn(rng.randrange(2, 15)), R.Zn(rng.randrange(2, 15))))
        else:
            spec = R.Zn(rng.randrange(2, 200))
        ring = R.make_ring(spec)
        if ring.size > 200:
            continue
        g = G.build_zero_divisor_graph(ring)
        assert g.rows == brute_zero_divisor_graph(ring).rows, spec


def test_beck_graph_basics(small_rings):
    full_checks = 0
    for _, ring in small_rings:
        g = G.build_zero_divisor_graph(ring)
        # 0 dominates, so the graph is connected with all distances <= 2
        assert g.rows[0] == g.full_mask() ^ 1
        full_checks += 1
    assert full_checks


def test_star_and_small_product():
    g5 = G.build_zero_divisor_graph(R.make_ring(R.GF(5)))
    assert g5.n == 5 and g5.edge_count() == 4
    assert sorted(g5.degrees()) == [1, 1, 1, 1, 4]
    g6 = G.build_zero_divisor_graph(R.make_ring(R.Product((R.Zn(2), R.Zn(3)))))
    assert g6.n == 6 and g6.edge_count() == 7


def test_gcd_class_partition():
    p27 = G.gcd_class_partition(R.make_ring(R.Zn(27)))
    assert [(lab, len(b)) for lab, b in p27.blocks] == [
        ("A_1", 18), ("A_3", 6), ("A_9", 2), ("A_27", 1)]
    assert dict(p27.blocks)["A_3"] == (3, 6, 12, 15, 21, 24)

    p4 = G.gcd_class_partition(R.make_ring(R.Zn(4)))
    assert dict(p4.blocks) == {"A_1": (1, 3), "A_2": (2,), "A_4": (0,)}

    p12 = G.gcd_class_partition(R.make_ring(R.Zn(12)))
    assert [len(b) for _, b in p12.blocks] == [4, 2, 2, 2, 1, 1]
    assert [lab for lab, _ in p12.blocks] == ["A_1", "A_2", "A_3", "A_4", "A_6", "A_12"]

    with pytest.raises(WrongRingKind):
        G.gcd_class_partition(R.make_ring(R.GF(5)))


def test_twin_partition_examples():
    star = G.build_zero_divisor_graph(R.make_ring(R.GF(5)))
    tp = G.twin_partition(star)
    assert tp.as_sets() == {frozenset({0}), frozenset({1, 2, 3, 4})}

    r27 = R.make_ring(R.Zn(27))
    g27 = G.build_zero_divisor_graph(r27)
    assert G.twin_partition(g27).as_sets() == G.gcd_class_partition(r27).as_sets()

    g4 = G.build_zero_divisor_graph(R.make_ring(R.Zn(4)))
    assert G.twin_partition(g4).as_sets() == {frozenset({0}), frozenset({1, 2, 3})}


def test_partition_refinement_chain():
    """gcd classes refine twins refine orbits on every Z/n graph, n <= 300."""
    for n in range(2, 301):
        ring = R.make_ring(R.Zn(n))
        g = G.build_zero_divisor_graph(ring)
        gcd_p = G.gcd_class_partition(ring)
        twin_p = G.twin_partition(g)
        orbit_p = aut_orbits(g)
        assert gcd_p.refines(twin_p), n
        assert twin_p.refines(orbit_p), n


OVERLAP = "partition blocks overlap"
NO_COVER = "partition does not cover all vertices"


@pytest.mark.parametrize("blocks, n, message", [
    ([(0, 1), (1, 2)], 3, OVERLAP),
    ([(0, -1), (-1,)], 2, OVERLAP),        # an overlap is named before a bad vertex
    ([(0,), (2,)], 3, NO_COVER),            # vertex 1 is missing
    ([(0,), (2,)], 2, NO_COVER),            # vertex 2 is not below n
    ([(0,), (-1,)], 2, NO_COVER),
    ([(0, 0), (2,)], 3, NO_COVER),          # a repeat within one block
    ([(0, 1), (2, 3)], 5, NO_COVER),        # 4 vertices for n = 5
    ([(0, 1), (2, 3)], 3, NO_COVER),        # 4 vertices for n = 3
], ids=["overlap", "overlap-before-range", "missing", "too-large", "negative", "repeat-in-block",
        "total-below-n", "total-above-n"])
def test_partition_validation_messages(blocks, n, message):
    with pytest.raises(ZdgError) as info:
        G.Partition(tuple((f"B{i}", b) for i, b in enumerate(blocks)), "custom", n)
    assert str(info.value) == message


@pytest.mark.parametrize("expr", ["Z/60", "GF(49)", "FamA(3,2)", "FamD(3)", "Z/4 x GF(4)"])
def test_ring_labels_are_computed_on_first_read(monkeypatch, expr):
    """The large-ring query chain reads no label; the first read of
    ``Graph.labels`` builds them once, equal to the per-element reference."""
    calls = []
    labels = R.Ring.labels
    monkeypatch.setattr(R.Ring, "labels", lambda ring: calls.append(ring) or labels(ring))
    ring = R.make_ring(parse_ring_spec(expr))
    g = G.build_zero_divisor_graph(ring)
    T.is_threshold(g)
    T.find_alternating_four_cycle(g)
    twins = G.twin_partition(g)
    aut_orbits(g)
    S.char_poly(S.equitable_quotient_matrix(g, twins))
    assert calls == []
    factors = ring.factors if isinstance(ring, R.ProductRing) else [ring]
    assert g.labels == reference_labels(ring)
    assert calls == factors
    assert g.labels is g.labels and calls == factors
    assert G.Graph(3, [0, 0, 0]).labels == ["0", "1", "2"]


def test_divisor_graph():
    u12 = G.divisor_graph(12)
    assert u12.labels == ["2", "3", "4", "6"]
    assert sorted(u12.edges()) == [(0, 3), (1, 2), (2, 3)]
    u25 = G.divisor_graph(25)
    assert u25.n == 1 and u25.edge_count() == 0
    u8 = G.divisor_graph(8)
    assert u8.labels == ["2", "4"] and list(u8.edges()) == [(0, 1)]


def test_generalized_join():
    sk = G.JoinSkeleton(G.complete_graph(2), (G.empty_graph(2), G.empty_graph(2)))
    c4 = G.generalized_join(sk)
    assert c4.n == 4 and c4.edge_count() == 4 and all(c4.degree(v) == 2 for v in range(4))

    sk = G.JoinSkeleton(G.empty_graph(3), (G.complete_graph(2), G.empty_graph(2), G.complete_graph(3)))
    disjoint = G.generalized_join(sk)
    assert disjoint.edge_count() == 1 + 0 + 3


def _join_rebuild_equals_graph(p, alpha):
    n = p ** alpha
    ring = R.make_ring(R.Zn(n))
    g = G.build_zero_divisor_graph(ring)
    part = G.gcd_class_partition(ring)
    parts = tuple(
        G.complete_graph(size) if kind == "complete" else G.empty_graph(size)
        for _, kind, size in G.orbit_block_classification(p, alpha)
    )
    k = alpha + 1
    skeleton = G.Graph.from_edges(
        k, [(i, j) for i in range(k) for j in range(i + 1, k) if i + j >= alpha])
    joined = G.generalized_join(G.JoinSkeleton(skeleton, parts))
    order = [v for _, block in part.blocks for v in block]
    edges = sorted(tuple(sorted((order[u], order[v]))) for u, v in joined.edges())
    return edges == sorted(g.edges())


def test_join_reconstruction_sweep():
    for p in range(2, 1001):
        if not is_prime(p):
            continue
        alpha = 1
        while p ** alpha <= 1000:
            assert _join_rebuild_equals_graph(p, alpha), (p, alpha)
            alpha += 1


def test_induced_subgraph():
    r27 = R.make_ring(R.Zn(27))
    g27 = G.build_zero_divisor_graph(r27)
    blocks = dict(G.gcd_class_partition(r27).blocks)
    k2 = G.induced_subgraph(g27, blocks["A_9"])
    assert k2.n == 2 and k2.edge_count() == 1
    k6bar = G.induced_subgraph(g27, blocks["A_3"])
    assert k6bar.n == 6 and k6bar.edge_count() == 0
    assert G.induced_subgraph(g27, []).n == 0
    sub = G.induced_subgraph(g27, [0, 9, 18])
    assert sub.labels == ["0", "9", "18"] and sub.edge_count() == 3


def test_orbit_block_classification():
    assert G.orbit_block_classification(3, 3) == [
        (0, "independent", 18), (1, "independent", 6), (2, "complete", 2), (3, "complete", 1)]
    assert G.orbit_block_classification(2, 2) == [
        (0, "independent", 2), (1, "complete", 1), (2, "complete", 1)]
    assert G.orbit_block_classification(5, 1) == [
        (0, "independent", 4), (1, "complete", 1)]
    # block sizes always sum to p^alpha
    for p, alpha in [(2, 7), (3, 4), (7, 2), (13, 1)]:
        sizes = [s for _, _, s in G.orbit_block_classification(p, alpha)]
        assert sum(sizes) == p ** alpha


def test_adjacency_rule_spot_check():
    """x in A_{p^i}, y in A_{p^j} adjacent iff i + j >= alpha (small sweep;
    the full sweep runs in the acceptance suite)."""
    def exponent(x, p, alpha):
        if x == 0:
            return alpha
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        return e

    for p, alpha in [(2, 5), (3, 3), (5, 2), (7, 2), (13, 1)]:
        n = p ** alpha
        g = G.build_zero_divisor_graph(R.make_ring(R.Zn(n)))
        for x in range(n):
            ex = exponent(x, p, alpha)
            for y in range(x + 1, n):
                assert g.adjacent(x, y) == (ex + exponent(y, p, alpha) >= alpha)


def test_divisor_graph_is_induced_in_beck_graph():
    """The divisor graph on 1 < d < n equals the subgraph of the ring graph
    induced on the divisor vertices themselves."""
    for n in range(2, 101):
        g = G.build_zero_divisor_graph(R.make_ring(R.Zn(n)))
        divisors = [d for d in range(2, n) if n % d == 0]
        induced = G.induced_subgraph(g, divisors)
        assert induced.rows == G.divisor_graph(n).rows, n


def test_graph_json_schema_and_round_trip():
    g = G.build_zero_divisor_graph(R.make_ring(R.Product((R.Zn(2), R.Zn(3)))))
    data = g.to_json_dict()
    assert set(data) == {"n", "labels", "edges", "provenance"}
    assert data["edges"] == sorted(data["edges"])
    assert all(u < v for u, v in data["edges"])
    assert data["provenance"] == "Z/2 x Z/3"
    back = G.Graph.from_json_dict(json.loads(json.dumps(data)))
    assert back == g and back.labels == g.labels


def test_dot_export():
    ring = R.make_ring(R.Zn(4))
    g = G.build_zero_divisor_graph(ring)
    dot = g.to_dot()
    assert dot.startswith("graph G {") and "0 -- 1;" in dot
    clustered = g.to_dot(G.gcd_class_partition(ring))
    assert "cluster_0" in clustered and "rank=same;" in clustered
