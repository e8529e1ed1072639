import random
from itertools import permutations

import pytest

from conftest import backtrack_orbits, random_graph, twin_blow_up
from zdgraph import graphs as G
from zdgraph import rings as R
from zdgraph.errors import OracleCapExceeded
from zdgraph.orbits import ISOMORPHISM_CAP, are_isomorphic, aut_orbits, brute_force_orbits
from zdgraph.ringexpr import parse_ring_spec

# products whose twin quotients keep several classes per refined cell
MANY_CLASS_PRODUCTS = ["Z/2 x Z/2 x Z/2 x Z/2 x Z/2", "Z/2 x Z/2 x Z/2 x Z/2 x Z/2 x Z/2 x Z/2 x Z/2",
                       "Z/8 x Z/8 x Z/8", "Z/4 x Z/4 x Z/4[x]/(x^2)",
                       "Z/2 x Z/4[x]/(x^2) x Z/4[x]/(x^2)"]


def circulants(rng: random.Random, n: int, copies: int) -> G.Graph:
    """Disjoint random circulant graphs on n vertices each, all with the
    same jump count: every vertex has the same degree, so refinement
    alone splits nothing, though the parts need not be isomorphic."""
    size = rng.randrange(1, (n - 1) // 2 + 1)
    edges = []
    for c in range(copies):
        jumps = rng.sample(range(1, (n - 1) // 2 + 1), size)
        edges += {tuple(sorted((c * n + v, c * n + (v + d) % n))) for v in range(n) for d in jumps}
    return G.Graph.from_edges(n * copies, edges)


def brute_isomorphic(g: G.Graph, h: G.Graph) -> bool:
    edges = set(h.edges())
    return any({tuple(sorted((p[u], p[v]))) for u, v in g.edges()} == edges
               for p in permutations(range(g.n)))


def relabel(g: G.Graph, perm: list[int]) -> G.Graph:
    """The copy of g in which vertex v is called perm[v]."""
    return G.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_path_and_star():
    p3 = G.Graph.from_edges(3, [(0, 1), (1, 2)])
    assert aut_orbits(p3).as_sets() == {frozenset({0, 2}), frozenset({1})}
    star = G.build_zero_divisor_graph(R.make_ring(R.GF(5)))
    assert aut_orbits(star).as_sets() == {frozenset({0}), frozenset({1, 2, 3, 4})}


def test_z4_merges_units_with_two():
    g4 = G.build_zero_divisor_graph(R.make_ring(R.Zn(4)))
    orbits = aut_orbits(g4)
    assert orbits.as_sets() == {frozenset({0}), frozenset({1, 2, 3})}
    assert brute_force_orbits(g4).as_sets() == orbits.as_sets()


def test_z27_orbits_are_gcd_classes():
    ring = R.make_ring(R.Zn(27))
    g = G.build_zero_divisor_graph(ring)
    assert aut_orbits(g).as_sets() == G.gcd_class_partition(ring).as_sets()


def test_oracle_matches_brute_force_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(250):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n)
        assert aut_orbits(g).as_sets() == brute_force_orbits(g).as_sets()


def test_matches_backtracking_reference():
    """Plain backtracking on the raw rows shares no code with the twin
    quotient or the refinement search."""
    rng = random.Random(5)
    cases = [G.build_zero_divisor_graph(R.make_ring(parse_ring_spec(e))) for e in (
        "Z/4", "Z/8", "Z/12", "Z/27", "Z/30", "Z/45", "Z/60", "Z/2 x Z/2 x Z/2",
        "Z/2 x Z/2 x Z/2 x Z/2", "Z/4 x Z/4", "GF(3) x GF(3)", "Z/2 x Z/3 x Z/5", "Z/4 x Z/9")]
    cases += [random_graph(rng, rng.randrange(1, 13)) for _ in range(60)]
    for _ in range(120):
        skeleton = random_graph(rng, rng.randrange(2, 9))
        cases.append(twin_blow_up(rng, skeleton, rng.randrange(skeleton.n, 61)))
    for _ in range(30):
        skeleton = circulants(rng, rng.randrange(5, 10), rng.randrange(1, 4))
        cases.append(skeleton)
        # the reference proves absence slowly on these; keep them small
        cases.append(twin_blow_up(rng, skeleton, rng.randrange(skeleton.n, 31)))
    for g in cases:
        assert aut_orbits(g).as_sets() == backtrack_orbits(g).as_sets()


def test_orbits_follow_a_relabeling():
    rng = random.Random(8)
    for expr in MANY_CLASS_PRODUCTS:
        g = G.build_zero_divisor_graph(R.make_ring(parse_ring_spec(expr)))
        perm = list(range(g.n))
        rng.shuffle(perm)
        image = {frozenset(perm[v] for v in block) for block in aut_orbits(g).as_sets()}
        assert aut_orbits(relabel(g, perm)).as_sets() == image, expr


def test_orbits_split_within_one_degree_class():
    # two triangles and two 4-cycles: same degree everywhere, two orbits
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
             (6, 7), (7, 8), (8, 9), (6, 9), (10, 11), (11, 12), (12, 13), (10, 13)]
    g = G.Graph.from_edges(14, edges)
    orbits = aut_orbits(g).as_sets()
    assert frozenset(range(6)) in orbits
    assert frozenset(range(6, 14)) in orbits


def test_caps():
    big = G.empty_graph(70)
    with pytest.raises(OracleCapExceeded):
        brute_force_orbits(G.empty_graph(11))
    with pytest.raises(OracleCapExceeded):
        are_isomorphic(G.empty_graph(ISOMORPHISM_CAP + 1), G.empty_graph(ISOMORPHISM_CAP + 1))
    # twin compression collapses the empty graph to one class, so this is fine
    assert len(aut_orbits(big).blocks) == 1


def test_search_depth_is_not_bounded_by_recursion():
    """A perfect matching of 2 400 vertices is 1 200 isolated twin classes of
    one colour, so the search fixes one class per level, 1 200 levels deep."""
    g = G.Graph.from_edges(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
    assert len(aut_orbits(g).blocks) == 1


def test_vertex_transitive_graphs():
    """Color refinement alone cannot split these; the backtracking must
    prove transitivity."""
    petersen_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                      (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                      (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    petersen = G.Graph.from_edges(10, petersen_edges)
    assert aut_orbits(petersen).as_sets() == {frozenset(range(10))}
    two_c5 = G.Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    assert aut_orbits(two_c5).as_sets() == {frozenset(range(10))}


def test_isomorphism_checker():
    c4 = G.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    relabeled = G.Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (0, 3)])
    p4 = G.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert are_isomorphic(c4, relabeled)
    assert not are_isomorphic(c4, p4)
    assert not are_isomorphic(c4, G.empty_graph(5))
    assert are_isomorphic(G.empty_graph(0), G.empty_graph(0))
    # both 2-regular, so refinement alone cannot tell them apart
    c6 = G.Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    two_c3 = G.Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not are_isomorphic(c6, two_c3)
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert are_isomorphic(g, relabel(g, perm))


def test_isomorphism_checker_matches_brute_force():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randrange(1, 7)
        g, h = random_graph(rng, n, 0.5), random_graph(rng, n, 0.5)
        assert are_isomorphic(g, h) == brute_isomorphic(g, h)


def test_search_is_exact_without_refinement(monkeypatch):
    """Refinement only prunes: with colourings left as they are, the search
    enumerates maps, and the edge check at each leaf alone keeps its
    answers right."""
    from zdgraph import orbits
    monkeypatch.setattr(orbits, "color_refinement", lambda adj, colors, splitters=None: (list(colors), []))
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 6)
        g, h = random_graph(rng, n, 0.5), random_graph(rng, n, 0.5)
        assert aut_orbits(g).as_sets() == brute_force_orbits(g).as_sets()
        assert are_isomorphic(g, h) == brute_isomorphic(g, h)
