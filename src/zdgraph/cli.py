"""Command-line interface.

Exit codes: 0 success (threshold verdicts included), 3 negative verdict
(not-threshold, or failed verification claims), 1 usage error, 2 internal
or cap error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import SizeCapExceeded, UsageError, ZdgError
from .graphs import Graph, Partition, build_zero_divisor_graph, gcd_class_partition, twin_partition
from .orbits import aut_orbits
from .rings import DEFAULT_CAP, Zn, make_ring
from .ringexpr import _factor_prime_power, parse_ring_spec, render_ring_spec
from .spectral import char_poly, equitable_quotient_matrix, lift_twin_char_poly
from .threshold import (
    CreationSequence,
    build_threshold_from_code,
    is_threshold,
    run_block_partition,
)
from .verify import CLAIM_NAMES, SweepConfig, hard_failures, run_all, summarize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_NEGATIVE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _cap_from(args) -> int:
    cap, source = args.cap, "--cap"
    if cap is None:
        env = os.environ.get("ZDG_CAP")
        if not env:
            return DEFAULT_CAP
        try:
            cap, source = int(env), "ZDG_CAP"
        except ValueError as exc:
            raise UsageError(f"ZDG_CAP must be an integer, got {env!r}") from exc
    if cap < 1:
        raise UsageError(f"{source} must be at least 1, got {cap}")
    return cap


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


_quote = json.encoder.encode_basestring_ascii


def _dump_json(data) -> str:
    """Exactly ``json.dumps(data, indent=2, sort_keys=True) + "\\n"``.

    With an indent, json falls back to its pure-Python encoder; here flat
    lists of ints or strings and lists of int pairs (edge lists) are joined
    in C, and every other leaf is left to json itself.
    """
    return _render(data, "\n") + "\n"


def _render(value, pad: str) -> str:
    """``value`` as json renders it at the indent of ``pad`` ("\\n" + spaces)."""
    kind, inner = type(value), pad + "  "
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _quote(value)
    if kind is dict and value and all(type(k) is str for k in value):
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _render(value[k], inner) for k in sorted(value)]) + pad + "}"
    if (kind is list or kind is tuple) and value:
        sep, kinds = "," + inner, set(map(type, value))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, value))
        elif kinds == {str}:
            body = sep.join(map(_quote, value))
        elif kinds <= {list, tuple} and set(map(len, value)) == {2} \
                and set(map(type, flat := tuple(itertools.chain.from_iterable(value)))) == {int}:
            pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
            body = sep.join([pair] * len(value)) % flat
        else:
            body = sep.join([_render(v, inner) for v in value])
        return "[" + inner + body + pad + "]"
    # empty containers, floats, bools, None and anything unusual
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _load_graph_arg(args, cap: int) -> tuple[Graph, object | None]:
    """Resolve the graph a command operates on; returns (graph, ring or None)."""
    sources = [s for s in (args.ring, args.graph_file, getattr(args, "code", None)) if s]
    if len(sources) != 1:
        raise UsageError("need exactly one of: ring expression, --graph-file, --code")
    if args.ring:
        ring = make_ring(parse_ring_spec(args.ring), cap=cap)
        return build_zero_divisor_graph(ring, cap=cap), ring
    if args.graph_file:
        data = json.loads(Path(args.graph_file).read_text(encoding="utf-8"))
        return Graph.from_json_dict(data, cap), None
    if len(args.code) > cap:
        raise SizeCapExceeded.over("--code", math.log10(len(args.code)), cap)
    return build_threshold_from_code(CreationSequence(args.code)), None


def _partition_for(g: Graph, ring, method: str, code: str | None) -> Partition:
    if method == "gcd":
        if ring is None or not isinstance(ring.spec, Zn):
            raise UsageError("--partition gcd needs a Z/n ring expression")
        return gcd_class_partition(ring)
    if method == "twin":
        return twin_partition(g)
    if method == "aut":
        return aut_orbits(g)
    if method == "runs":
        if not code:
            raise UsageError("--partition runs needs --code")
        return run_block_partition(code)
    raise UsageError(f"unknown partition method {method!r}")


def _emit_graph(g: Graph, args) -> int:
    _emit(g.to_dot() if args.dot else _dump_json(g.to_json_dict()), args.out)
    return EXIT_OK


def cmd_graph(args) -> int:
    cap = _cap_from(args)
    ring = make_ring(parse_ring_spec(args.ring), cap=cap)
    return _emit_graph(build_zero_divisor_graph(ring, cap=cap), args)


def cmd_threshold(args) -> int:
    if args.dot and not args.rebuild:
        raise UsageError("--dot needs --rebuild")
    cap = _cap_from(args)
    g, _ = _load_graph_arg(args, cap)
    if args.rebuild:
        if not args.code:
            raise UsageError("--rebuild needs --code")
        return _emit_graph(g, args)
    res = is_threshold(g)
    _emit(_dump_json(res.to_json_dict()), args.out)
    return EXIT_OK if res.is_threshold else EXIT_NEGATIVE


def cmd_orbits(args) -> int:
    cap = _cap_from(args)
    ring = make_ring(parse_ring_spec(args.ring), cap=cap)
    g = build_zero_divisor_graph(ring, cap=cap)
    part = _partition_for(g, ring, args.method, None)
    data = {"ring": render_ring_spec(ring.spec), "method": args.method}
    data.update(part.to_json_dict())
    _emit(_dump_json(data), args.out)
    return EXIT_OK


def cmd_spectra(args) -> int:
    cap = _cap_from(args)
    g, ring = _load_graph_arg(args, cap)
    method = args.partition or ("runs" if args.code else "twin")
    part = _partition_for(g, ring, method, args.code)
    qm = equitable_quotient_matrix(g, part)
    qpoly = char_poly(qm)
    fpoly = lift_twin_char_poly(qm, qpoly) if method == "twin" else char_poly(g)
    data = {
        "n": g.n,
        "partition": part.to_json_dict(),
        "quotient_matrix": qm.to_json_dict(),
        "charpoly": {"text": qpoly.to_text(), "coeffs": qpoly.to_json_list()},
        "multiplicity_0": fpoly.root_multiplicity(0),
        "multiplicity_minus_1": fpoly.root_multiplicity(-1),
    }
    if args.full:
        data["adjacency_charpoly"] = {"text": fpoly.to_text(), "coeffs": fpoly.to_json_list()}
    _emit(_dump_json(data), args.out)
    return EXIT_OK


def _parse_grid(grid: str | None, cfg: SweepConfig) -> SweepConfig:
    if not grid:
        return cfg
    for clause in grid.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise UsageError(f"bad --grid clause {clause!r} (want key=value)")
        key, _, value = clause.partition("=")
        key = key.strip()
        try:
            if key == "p":
                cfg.primes = tuple(int(v) for v in value.split(","))
            elif key == "alpha":
                cfg.adjacency_max = max(p ** int(value) for p in cfg.primes)
            elif key == "adjacency_max":
                cfg.adjacency_max = int(value)
            elif key == "q":
                cfg.field_sizes = tuple(int(v) for v in value.split(","))
            elif key == "n":
                cfg.orbit_claim_max = int(value)
            elif key == "cap":
                cfg.cap = int(value)
                cfg.local_family_cap = int(value)
            elif key == "product_size_cap":
                cfg.product_size_cap = int(value)
            else:
                raise UsageError(f"unknown --grid key {key!r}")
        except ValueError as exc:
            raise UsageError(f"bad --grid value in {clause!r}") from exc
    return cfg


def cmd_verify(args) -> int:
    cfg = SweepConfig()
    cfg.cap = _cap_from(args)
    cfg.local_family_cap = cfg.cap
    cfg = _parse_grid(args.grid, cfg)
    claims = None
    if args.suite and args.suite != "all":
        matches = [c for c in CLAIM_NAMES if c == args.suite or c.startswith(args.suite)]
        if not matches:
            raise UsageError(f"unknown suite {args.suite!r}; choose from {', '.join(CLAIM_NAMES)}")
        claims = matches
    if args.p or args.alpha or args.q or args.n:
        if args.p:
            cfg.primes = tuple(args.p)
        if args.alpha:
            cfg.adjacency_max = max(p ** a for p in cfg.primes for a in args.alpha)
        if args.q:
            cfg.field_sizes = tuple(args.q)
        if args.n:
            cfg.orbit_claim_max = max(args.n)
    for q in cfg.field_sizes:
        # an order above the cap is skipped by the sweep, unfactored
        if q <= cfg.cap and _factor_prime_power(q) is None:
            raise UsageError(f"field size {q} is not a prime power")
    reports = run_all(cfg, claims=claims)
    jsonl = "".join(r.to_json_line() + "\n" for r in reports)
    summary = summarize(reports)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "reports.jsonl"
        summary_path = out_dir / "summary.txt"
        report_path.write_text(jsonl, encoding="utf-8")
        summary_path.write_text(summary, encoding="utf-8")
        manifest = {
            "tool_version": __version__,
            "command_line": sys.argv,
            "config": cfg.to_json_dict(),
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "outputs": {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (report_path, summary_path)
            },
        }
        (out_dir / "manifest.json").write_text(_dump_json(manifest), encoding="utf-8")
        sys.stdout.write(summary)
    else:
        sys.stdout.write(jsonl)
        sys.stdout.write(summary)
    return EXIT_OK if not hard_failures(reports) else EXIT_NEGATIVE


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and then reused: parsing
    leaves no state in it."""
    parser = _Parser(prog="zdg", description="Zero-divisor graph toolkit")
    parser.add_argument("--version", action="version", version=f"zdg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build the zero-divisor graph of a ring")
    p.add_argument("ring", help='ring expression, e.g. "Z/27" or "Z/4[x]/(x^2)"')
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    fmt.add_argument("--json", action="store_true", help="emit JSON (default)")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument("--cap", type=int, help=f"element cap (default {DEFAULT_CAP})")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("threshold", help="threshold verdict with certificate")
    p.add_argument("ring", nargs="?", help="ring expression")
    p.add_argument("--graph-file", help="graph JSON file")
    p.add_argument("--code", help="creation sequence, e.g. 0000111001")
    p.add_argument("--rebuild", action="store_true", help="emit the graph built from --code")
    p.add_argument("--dot", action="store_true", help="with --rebuild, emit DOT instead of JSON")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("orbits", help="vertex partition of the graph")
    p.add_argument("ring", help="ring expression")
    p.add_argument("--method", choices=("gcd", "twin", "aut"), default="aut")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("spectra", help="quotient matrix, charpoly, multiplicities")
    p.add_argument("ring", nargs="?", help="ring expression")
    p.add_argument("--graph-file", help="graph JSON file")
    p.add_argument("--code", help="creation sequence to build and analyze")
    p.add_argument("--partition", choices=("gcd", "twin", "aut", "runs"))
    p.add_argument("--full", action="store_true", help="also emit the adjacency charpoly")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("verify", help="run claim verification sweeps")
    p.add_argument("suite", nargs="?", default="all",
                   help=f"all or one of: {', '.join(CLAIM_NAMES)}")
    p.add_argument("--grid", help='overrides, e.g. "p=2,3;n=100;adjacency_max=500"')
    p.add_argument("--p", type=int, action="append", help="restrict to this prime (repeatable)")
    p.add_argument("--alpha", type=int, action="append", help="restrict exponent (repeatable)")
    p.add_argument("--q", type=int, action="append", help="field size (repeatable)")
    p.add_argument("--n", type=int, action="append", help="orbit-claim modulus (repeatable)")
    p.add_argument("--out", help="directory for reports.jsonl, summary.txt, manifest.json")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
