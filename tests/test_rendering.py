"""Output rendering against references that do not share its code.

``cli._dump_json`` joins flat lists in C; the reference is
``json.dumps(indent=2, sort_keys=True)``.  ``Graph.edges`` reads the class
skeleton; the reference reads the rows bit by bit.
"""

import contextlib
import io
import json
import random

import numpy as np
import pytest

from conftest import SMALL_RING_SPECS, random_graph, reference_edges, twin_blow_up
from test_cli_golden import OTHER_RINGS, ZN_RINGS, golden_graph, invocations
from zdgraph import cli
from zdgraph import rings as R
from zdgraph.graphs import (Graph, build_zero_divisor_graph, complete_graph, empty_graph,
                            gcd_class_partition, twin_partition)
from zdgraph.ringexpr import parse_ring_spec
from zdgraph.threshold import build_threshold_from_code

ALPHABET = 'az09 "\\/\n\t\r\x00\x1f\x7féü€中😀'


def random_str(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def random_scalar(rng: random.Random):
    return rng.choice((
        lambda: rng.randrange(-10, 1000),
        lambda: rng.choice((-1, 1)) * 10 ** rng.randrange(18, 300) + rng.randrange(10),
        lambda: rng.random() < 0.5,
        lambda: None,
        lambda: rng.choice((float("nan"), float("inf"), float("-inf"), -0.0, 1e300, rng.uniform(-1e6, 1e6))),
        lambda: random_str(rng),
    ))()


def random_value(rng: random.Random, depth: int = 0):
    """A JSON-encodable value, weighted toward the shapes _dump_json joins
    in C and the near misses that must fall back: a bool among ints, a
    pair of three, a pair holding a string."""
    kind = rng.randrange(12) if depth < 4 else 0
    size = rng.randrange(7)
    if kind == 0:
        return random_scalar(rng)
    if kind == 1:
        return [rng.randrange(-5, 10 ** rng.randrange(1, 30)) for _ in range(size)]
    if kind == 2:
        return [random_str(rng) for _ in range(size)]
    if kind == 3:
        pair = list if rng.random() < 0.7 else tuple
        return [pair((rng.randrange(100), rng.randrange(10 ** 20))) for _ in range(size)]
    if kind == 4:  # a near miss of one of the joined shapes
        value = [[rng.randrange(9), rng.randrange(9)] for _ in range(size + 1)]
        at = rng.randrange(len(value))
        value[at] = rng.choice(([True, 1], [1, 2, 3], [1], [1, "2"], [1.0, 2], 7, "s", (1, None)))
        return value
    if kind == 5:
        return [rng.choice((1, True, False, 0)) for _ in range(size)]
    if kind in (6, 7):
        return [random_value(rng, depth + 1) for _ in range(size)]
    if kind == 8:
        return tuple(random_value(rng, depth + 1) for _ in range(size))
    if kind == 9:
        return {random_str(rng): random_value(rng, depth + 1) for _ in range(size)}
    if kind == 10:
        return {rng.randrange(-50, 50): random_value(rng, depth + 1) for _ in range(size)}
    return rng.choice(([], {}, (), [[]], [{}], {"": []}))


def reference_dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_dump_json_equals_json_dumps_on_random_values():
    rng = random.Random(10)
    for _ in range(10_000):
        value = random_value(rng)
        assert cli._dump_json(value) == reference_dump(value), value


def recording_dump(monkeypatch) -> list:
    """Make every cli._dump_json call check itself against the reference."""
    seen = []
    original = cli._dump_json

    def checked(data):
        text = original(data)
        assert text == reference_dump(data)
        seen.append(data)
        return text

    monkeypatch.setattr(cli, "_dump_json", checked)
    return seen


def test_dump_json_equals_json_dumps_on_golden_cli_outputs(monkeypatch, tmp_path):
    seen = recording_dump(monkeypatch)
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(golden_graph()), encoding="utf-8")
    runs = [argv for group in invocations(str(graph_file)).values() for argv in group]
    runs += [["graph", ring] for ring in ZN_RINGS + OTHER_RINGS]
    runs += [["threshold", "--code", "0000111001", "--rebuild"]]
    answered = 0
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            answered += cli.main(argv) in (cli.EXIT_OK, cli.EXIT_NEGATIVE)
    assert len(seen) == answered > 150


def test_dump_json_equals_json_dumps_on_a_verify_manifest(monkeypatch, tmp_path):
    seen = recording_dump(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "orbit-claim", "--grid", "n=12", "--out", str(tmp_path)]) == 0
    assert len(seen) == 1 and set(seen[0]) >= {"config", "outputs", "command_line"}
    text = (tmp_path / "manifest.json").read_text(encoding="utf-8")
    assert text == reference_dump(json.loads(text))


def edge_cases() -> list[tuple[str, Graph]]:
    rng = random.Random(20)
    specs = SMALL_RING_SPECS + [parse_ring_spec(e) for e in (
        "Z/4 x Z/9", "Z/2 x Z/2 x Z/2 x Z/2", "FamA(2,3) x Z/3", "GF(4) x Z/8 x Z/2",
        "Z/2 x Z/4[x]/(x^2) x Z/4[x]/(x^2)", "Z/360", "Z/1001")]
    cases = [(str(spec), build_zero_divisor_graph(R.make_ring(spec))) for spec in specs]
    for _ in range(20):
        code = "0" + "".join(rng.choice("01") for _ in range(rng.randrange(40)))
        cases.append((f"code {code}", build_threshold_from_code(code)))
    for n in (1, 2, 3, 7, 20, 45):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            cases.append((f"random {n} {density}", random_graph(rng, n, density)))
    for k, n in ((3, 12), (6, 40)):
        cases.append((f"blow-up {k} {n}", twin_blow_up(rng, random_graph(rng, k), n)))
    for n in (0, 1, 2, 9):
        cases.append((f"empty {n}", empty_graph(n)))
        cases.append((f"complete {n}", complete_graph(n)))
    return cases


@pytest.mark.parametrize("name, g", edge_cases())
def test_edges_equal_the_bitwise_reference(name, g):
    want = reference_edges(g)
    assert g.edges() == want
    u, v = g.edge_arrays()
    assert u.dtype == v.dtype == np.int64
    assert list(zip(u.tolist(), v.tolist())) == want
    assert g.to_json_dict()["edges"] == [list(e) for e in want]
    dot = g.to_dot().splitlines()
    assert [line for line in dot if " -- " in line] == [f"  {a} -- {b};" for a, b in want]


def reference_dot(g: Graph, partition=None) -> str:
    """DOT built one line at a time from the bitwise edge reference."""
    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph G {"]
    if partition is not None:
        for bi, (label, block) in enumerate(partition.blocks):
            lines += [f"  subgraph cluster_{bi} {{", f"    label={q(label)};", "    rank=same;"]
            lines += [f"    {v} [label={q(g.labels[v])}];" for v in block]
            lines.append("  }")
    else:
        lines += [f"  {v} [label={q(g.labels[v])}];" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in reference_edges(g)]
    return "\n".join(lines + ["}"]) + "\n"


def test_dot_equals_the_line_by_line_reference():
    rng = random.Random(30)
    ring = R.make_ring(parse_ring_spec("Z/36"))
    g = build_zero_divisor_graph(ring)
    assert g.to_dot() == reference_dot(g)
    for part in (gcd_class_partition(ring), twin_partition(g)):
        assert g.to_dot(part) == reference_dot(g, part)
    odd = ['a"b', "c\\d", "%s%d", "", "é", 'x\\"y', "{}", "\n"]
    h = Graph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.5], odd)
    assert h.to_dot() == reference_dot(h)
    assert h.to_dot(twin_partition(h)) == reference_dot(h, twin_partition(h))
