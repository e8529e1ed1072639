import random

import pytest

from conftest import random_graph
from zdgraph import graphs as G
from zdgraph import rings as R
from zdgraph import threshold as T
from zdgraph.errors import MalformedCode, NotThresholdError
from zdgraph.orbits import are_isomorphic


def test_build_from_code_basics():
    assert T.build_threshold_from_code("0").n == 1
    k2 = T.build_threshold_from_code("01")
    assert k2.edge_count() == 1
    g = T.build_threshold_from_code("0000111001")
    assert g.n == 10 and g.edge_count() == 24
    assert g.labels == list("0000111001")


def test_malformed_codes():
    for bad in ("", "1", "10", "0a1", "2", "01a", "0 1"):
        with pytest.raises(MalformedCode):
            T.build_threshold_from_code(bad)


def test_code_runs():
    assert T.CreationSequence("0000111001").runs() == [("0", 4), ("1", 3), ("0", 2), ("1", 1)]
    part = T.run_block_partition("0000111001")
    assert [(lab, len(b)) for lab, b in part.blocks] == [
        ("0^4", 4), ("1^3", 3), ("0^2", 2), ("1^1", 1)]


def test_creation_sequence_examples():
    g = T.build_threshold_from_code("0000111001")
    assert T.creation_sequence(g).bits == "0000111001"
    for q in (2, 3, 4, 5):
        spec = R.GF(2, 2) if q == 4 else R.GF(q)
        star = G.build_zero_divisor_graph(R.make_ring(spec))
        assert T.creation_sequence(star).bits == "0" * (q - 1) + "1"
    g6 = G.build_zero_divisor_graph(R.make_ring(R.Product((R.Zn(2), R.GF(3)))))
    assert T.creation_sequence(g6).bits == "001001"


def test_creation_sequence_rejects_non_threshold():
    c4 = G.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotThresholdError):
        T.creation_sequence(c4)


def test_round_trip_all_codes_up_to_14():
    for length in range(1, 15):
        for m in range(2 ** (length - 1)):
            bits = "0" + format(m, f"0{length - 1}b") if length > 1 else "0"
            g = T.build_threshold_from_code(bits)
            assert T.creation_sequence(g).bits == bits


def test_threshold_verdicts_on_named_rings():
    fig = G.build_zero_divisor_graph(R.make_ring(R.FamA(2, 3)))
    res = T.is_threshold(fig)
    assert res.is_threshold and res.code is not None

    ring = R.make_ring(R.MonicQuotient(R.Zn(4), (0, 0, 1)))
    g = G.build_zero_divisor_graph(ring)
    res = T.is_threshold(g)
    assert not res.is_threshold
    assert res.witness.shape == "2K2" and res.witness.validate(g)
    # the documented counterexample pair validates too
    x = ring.encode((0, 1))
    x3 = ring.encode((0, 3))
    two = ring.encode((2, 0))
    two2x = ring.encode((2, 2))
    assert T.AlternatingFourCycle(x, x3, two, two2x, "2K2").validate(g)

    g33 = G.build_zero_divisor_graph(R.make_ring(R.Product((R.GF(3), R.GF(3)))))
    res = T.is_threshold(g33)
    assert not res.is_threshold and res.witness.shape == "C4" and res.witness.validate(g33)


def test_four_cycle_oracle_examples():
    c4 = G.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    w = T.find_alternating_four_cycle(c4)
    assert w is not None and w.shape == "C4" and w.validate(c4)
    assert T.find_alternating_four_cycle(G.complete_graph(7)) is None
    g222 = G.build_zero_divisor_graph(R.make_ring(R.Product((R.Zn(2),) * 3)))
    w = T.find_alternating_four_cycle(g222)
    assert w is not None and w.validate(g222)
    two_k2 = G.Graph.from_edges(4, [(0, 1), (2, 3)])
    assert T.find_alternating_four_cycle(two_k2).shape == "2K2"
    p4 = G.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert T.find_alternating_four_cycle(p4).shape == "P4"


def test_oracle_is_deterministic_lexicographic():
    g = G.Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    w = T.find_alternating_four_cycle(g)
    assert (w.a, w.b, w.c, w.d) == (0, 1, 2, 3)


def test_agreement_and_certificates_on_random_graphs():
    rng = random.Random(1234)
    for _ in range(1500):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n)
        res = T.is_threshold(g)
        w = T.find_alternating_four_cycle(g)
        assert res.is_threshold == (w is None)
        if res.is_threshold:
            rebuilt = T.build_threshold_from_code(res.code)
            assert are_isomorphic(g, rebuilt)
        else:
            assert res.witness.validate(g)


def test_verdict_invariant_under_relabeling():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randrange(2, 12)
        g = random_graph(rng, n)
        res = T.is_threshold(g).is_threshold
        perm = list(range(n))
        rng.shuffle(perm)
        h = G.Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert T.is_threshold(h).is_threshold == res
        if res:
            assert T.creation_sequence(h).bits == T.creation_sequence(g).bits


def test_report_json_shape():
    g = T.build_threshold_from_code("0011")
    data = T.is_threshold(g).to_json_dict()
    assert data == {"verdict": "threshold", "code": "0011", "witness": None}
    c4 = G.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    data = T.is_threshold(c4).to_json_dict()
    assert data["verdict"] == "not_threshold" and data["code"] is None
    assert set(data["witness"]) == {"a", "b", "c", "d", "shape"}


def test_large_threshold_fast_path_agrees():
    """Above the lexicographic cap the emptiness fast path must not change verdicts."""
    g = G.build_zero_divisor_graph(R.make_ring(R.Zn(128)))
    assert T.is_threshold(g).is_threshold
    assert T.find_alternating_four_cycle(g) is None
    bad = G.build_zero_divisor_graph(R.make_ring(R.Product((R.Zn(4), R.Zn(16)))))
    res = T.is_threshold(bad)
    w = T.find_alternating_four_cycle(bad)
    assert not res.is_threshold and w is not None and w.validate(bad)
