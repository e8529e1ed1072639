import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zdgraph
from zdgraph.cli import build_parser, main
from zdgraph.graphs import Graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "GF(5)")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 5 and len(data["edges"]) == 4


def test_graph_dot_and_out_file(capsys, tmp_path):
    path = tmp_path / "g.dot"
    code, out, _ = run_cli(capsys, "graph", "Z/4", "--dot", "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("graph G {") and "--" in text


def test_graph_round_trip_through_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    code, _, _ = run_cli(capsys, "graph", "Z/4[x]/(x^2)", "--out", str(path))
    assert code == 0
    code, out_file, _ = run_cli(capsys, "threshold", "--graph-file", str(path))
    assert code == 3
    code2, out_direct, _ = run_cli(capsys, "threshold", "Z/4[x]/(x^2)")
    assert code2 == 3
    assert json.loads(out_file) == json.loads(out_direct)


def test_threshold_verdicts_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "threshold", "FamA(2,3)")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "threshold" and data["code"]
    code, out, _ = run_cli(capsys, "threshold", "Z/4[x]/(x^2)")
    assert code == 3
    data = json.loads(out)
    assert data["verdict"] == "not_threshold"
    assert set(data["witness"]) == {"a", "b", "c", "d", "shape"}


def test_threshold_rebuild(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--code", "0000111001", "--rebuild")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 10 and len(data["edges"]) == 24


def test_orbits_methods(capsys):
    code, out, _ = run_cli(capsys, "orbits", "Z/27", "--method", "gcd")
    assert code == 0
    data = json.loads(out)
    assert [(b["label"], b["size"]) for b in data["blocks"]] == [
        ("A_1", 18), ("A_3", 6), ("A_9", 2), ("A_27", 1)]
    code, out, _ = run_cli(capsys, "orbits", "Z/4", "--method", "aut")
    data = json.loads(out)
    assert len(data["blocks"]) == 2
    code, out, _ = run_cli(capsys, "orbits", "Z/12", "--method", "twin")
    assert code == 0 and json.loads(out)["method"] == "twin"


def test_spectra_from_code(capsys):
    code, out, _ = run_cli(capsys, "spectra", "--code", "0000111001")
    assert code == 0
    data = json.loads(out)
    assert data["quotient_matrix"]["entries"] == [[0, 3, 0, 1], [4, 2, 0, 1], [0, 0, 0, 1], [4, 3, 2, 0]]
    assert data["charpoly"]["text"] == "x^4-2x^3-21x^2-12x+24"
    assert data["multiplicity_0"] == 4 and data["multiplicity_minus_1"] == 2


def test_spectra_star_and_full(capsys):
    code, out, _ = run_cli(capsys, "spectra", "GF(5)")
    assert code == 0
    assert json.loads(out)["multiplicity_0"] == 3
    code, out, _ = run_cli(capsys, "spectra", "GF(5)", "--partition", "gcd")
    assert code == 1  # gcd partition needs Z/n
    code, out, _ = run_cli(capsys, "spectra", "Z/27", "--partition", "gcd", "--full")
    data = json.loads(out)
    assert data["adjacency_charpoly"]["coeffs"][0] == 1


def test_spectra_k4_from_file(capsys, tmp_path):
    k4 = {"n": 4, "labels": ["a", "b", "c", "d"],
          "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], "provenance": None}
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(k4))
    code, out, _ = run_cli(capsys, "spectra", "--graph-file", str(path), "--full")
    assert code == 0
    assert json.loads(out)["adjacency_charpoly"]["text"] == "x^4-6x^2-8x-3"


def test_verify_reduced_single_field(capsys):
    code, out, _ = run_cli(capsys, "verify", "reduced", "--q", "9")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    assert len(lines) == 1 and lines[0]["verdict"] == "pass"
    assert lines[0]["params"]["q"] == [9]


def test_spectra_file_equals_direct(capsys, tmp_path):
    path = tmp_path / "g.json"
    run_cli(capsys, "graph", "FamA(2,2)", "--out", str(path))
    code, via_file, _ = run_cli(capsys, "spectra", "--graph-file", str(path), "--partition", "twin")
    code2, direct, _ = run_cli(capsys, "spectra", "FamA(2,2)", "--partition", "twin")
    assert code == 0 and code2 == 0 and json.loads(via_file) == json.loads(direct)


def test_verify_single_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "adjacency", "--p", "3", "--alpha", "3")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    assert all(l["verdict"] == "pass" for l in lines)
    assert any(l["params"] == {"p": 3, "alpha": 3} for l in lines)


def test_verify_outputs_and_manifest(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "verify", "orbit-claim", "--grid", "n=12", "--out", str(out_dir))
    assert code == 0
    reports = (out_dir / "reports.jsonl").read_text()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"reports.jsonl", "summary.txt"}
    import hashlib

    assert manifest["outputs"]["reports.jsonl"] == hashlib.sha256(reports.encode()).hexdigest()
    # informational findings at n=2 and 4 keep exit code 0
    parsed = [json.loads(l) for l in reports.splitlines()]
    fails = [p for p in parsed if p["verdict"] == "fail"]
    assert all(p["informational"] for p in fails)


def test_verify_reports_deterministic(capsys, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli(capsys, "verify", "join", "--grid", "p=2,3;adjacency_max=100", "--out", str(a))
    run_cli(capsys, "verify", "join", "--grid", "p=2,3;adjacency_max=100", "--out", str(b))
    assert (a / "reports.jsonl").read_bytes() == (b / "reports.jsonl").read_bytes()
    assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "threshold")[0] == 1                      # no input source
    assert run_cli(capsys, "threshold", "Z/6", "--code", "01")[0] == 1
    assert run_cli(capsys, "verify", "nonsense")[0] == 1
    assert run_cli(capsys, "orbits", "Z/6", "--method", "bogus")[0] == 1
    code, _, err = run_cli(capsys, "graph", "Zebra")
    assert code == 2 and "column" in err


def test_cap_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "graph", "Z/50", "--cap", "10")
    assert code == 2 and "cap" in err.lower()


def test_huge_rings_fail_fast_with_cap_error(capsys):
    """A prime order of 10^18 is not trial-divided before the cap check, and
    a size past Python's int-to-str limit is not formatted into the message."""
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "threshold", "GF(1000000000000000003)")
    assert code == 2 and "cap" in err and time.perf_counter() - start < 2
    code, _, err = run_cli(capsys, "threshold", "FamB(10007)")
    assert code == 2 and err.startswith("error:") and "10^40031" in err


def test_verify_rejects_field_sizes_that_are_not_prime_powers(capsys):
    for argv in (("--grid", "q=2,6,10"), ("--q", "6"), ("--q", "4", "--q", "1")):
        code, out, err = run_cli(capsys, "verify", "reduced", *argv)
        assert code == 1 and out == "" and "not a prime power" in err, argv


def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("ZDG_CAP", "10")
    assert run_cli(capsys, "graph", "Z/50")[0] == 2
    monkeypatch.setenv("ZDG_CAP", "100")
    assert run_cli(capsys, "graph", "Z/50")[0] == 0
    monkeypatch.setenv("ZDG_CAP", "junk")
    assert run_cli(capsys, "graph", "Z/50")[0] == 1


def test_byte_identical_graph_output(capsys):
    code, out1, _ = run_cli(capsys, "graph", "Z/30")
    code, out2, _ = run_cli(capsys, "graph", "Z/30")
    assert out1 == out2


def test_oversized_expressions_end_fast_with_short_errors(capsys):
    """Exponents and number lengths are bounded by the grammar, so neither
    a huge coefficient list nor a primality test on a huge order runs, and
    no message echoes the input's number or modulus."""
    big_order = "1" + "0" * 3999 + "1"  # 10^4000 + 1
    for expr in ("Z/4[x]/(x^100000000)", "Z/4[x]/(x^1000000)",
                 "GF(1" + "0" * 999 + "1)", f"GF({big_order})"):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "threshold", expr)
        assert code == 2 and err.startswith("error:"), expr[:40]
        assert len(err.encode()) < 1024 and time.perf_counter() - start < 2, expr[:40]
    # a field size above the cap is skipped by the sweep without being factored
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "reduced", "--q", big_order)
    assert code == 0 and err == "" and "skipped=1" in out and time.perf_counter() - start < 2


def test_large_ring_queries_finish_fast(capsys):
    """Twins, quotients and orbits work per annihilator class, not per
    element, and local rings take one key per unit orbit."""
    for argv, seconds in ((("spectra", "Z/30030"), 2), (("orbits", "Z/60060"), 2),
                          (("threshold", "GF(12167)"), 0.3), (("threshold", "FamD(23)"), 0.3),
                          (("threshold", "FamA(11,3)"), 0.3)):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out and time.perf_counter() - start < seconds, argv


def test_symmetric_products_orbits_finish_fast(capsys):
    """Twin quotients whose refined cells hold many classes: the orbit
    search refines after every vertex it fixes."""
    for ring in ("Z/2 x Z/2 x Z/2 x Z/2 x Z/2", " x ".join(["Z/2"] * 8),
                 "Z/2 x Z/4[x]/(x^2) x Z/4[x]/(x^2)", "Z/4 x Z/8 x Z/4[x]/(x^2) x Z/4[x]/(x^2)"):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "orbits", ring)
        assert code == 0 and out and time.perf_counter() - start < 2, ring


def test_products_of_too_many_classes_fail_fast(capsys):
    """The class-pair table is k x k, so k is bounded before it is built."""
    for copies in (14, 16):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "threshold", " x ".join(["Z/2"] * copies))
        assert code == 2 and out == "" and time.perf_counter() - start < 2, copies
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_deep_orbit_search_ends_in_its_documented_error(capsys, tmp_path):
    """The single orbit of a 2 400-vertex perfect matching is neither a
    clique nor independent: MixedBlock, exit 2, one error line."""
    path = tmp_path / "matching.json"
    edges = [(2 * i, 2 * i + 1) for i in range(1200)]
    path.write_text(json.dumps(Graph.from_edges(2400, edges).to_json_dict()))
    code, out, err = run_cli(capsys, "spectra", "--graph-file", str(path), "--partition", "aut")
    assert code == 2 and out == "" and err == "error: block O0 is neither a clique nor independent\n"


@pytest.mark.parametrize("body", [
    '{"n": 2, "edges": [[0, 5]]}', '{"n": 2, "edges": [[0, -1]]}', '{"n": 2}',
    '{"n": "abc", "edges": []}', '{"n": 2, "edges": [[0]]}', '[[0, 1]]',
    '{"n": 100000000000, "edges": []}',
])
def test_malformed_or_oversized_graph_files_exit_2(capsys, tmp_path, body):
    path = tmp_path / "g.json"
    path.write_text(body)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "threshold", "--graph-file", str(path))
    assert time.perf_counter() - start < 2
    assert code == 2 and err.startswith("error:") and "Traceback" not in err, body


def test_code_longer_than_cap_exits_2(capsys):
    code, _, err = run_cli(capsys, "threshold", "--code", "0" + "1" * 20, "--cap", "20")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("argv, env_cap", [
    (["graph", "Z/4", "--dot", "--json"], None),
    (["graph", "Z/4", "--json", "--dot", "--out", "unused.txt"], None),
    (["threshold", "Z/9", "--dot"], None),
    (["threshold", "--code", "0101", "--dot"], None),
    (["graph", "Z/4", "--cap", "-1"], None),
    (["orbits", "Z/4", "--cap", "0"], None),
    (["spectra", "Z/4"], "0"),
    (["threshold", "Z/9"], "-3"),
    (["verify", "orbit-claim", "--grid", "n=4"], "0"),
])
def test_flags_that_would_be_ignored_or_caps_below_1_are_usage_errors(capsys, monkeypatch, tmp_path, argv, env_cap):
    monkeypatch.chdir(tmp_path)
    if env_cap is None:
        monkeypatch.delenv("ZDG_CAP", raising=False)
    else:
        monkeypatch.setenv("ZDG_CAP", env_cap)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("usage error:"), (argv, err)
    assert not (tmp_path / "unused.txt").exists()


def test_rebuild_still_emits_dot(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--code", "0101", "--rebuild", "--dot")
    assert code == 0 and out.startswith("graph G {")
    code, out, _ = run_cli(capsys, "graph", "Z/4", "--json")
    assert code == 0 and json.loads(out)["n"] == 4


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_usage_error_leaves_the_reused_parser_clean(capsys):
    assert run_cli(capsys, "orbits", "Z/12", "--method", "bogus")[0] == 1
    code, out, _ = run_cli(capsys, "orbits", "Z/12")
    src = str(Path(zdgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-m", "zdgraph.cli", "orbits", "Z/12"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert (code, out) == (fresh.returncode, fresh.stdout) and code == 0
