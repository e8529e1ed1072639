"""Machine verification of the structural claims over parameter sweeps.

Each ``verify_*`` function checks one claim family at one parameter point
and returns a ClaimReport whose payload makes any failure reproducible.
``run_all`` executes the default grid in deterministic order.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from ._util import iter_bits
from .errors import RingSemanticError, SizeCapExceeded
from .graphs import (
    Graph,
    JoinSkeleton,
    _bit_rows,
    build_zero_divisor_graph,
    complete_graph,
    empty_graph,
    gcd_class_partition,
    generalized_join,
    orbit_block_classification,
    twin_partition,
)
from .orbits import BRUTE_FORCE_CAP, aut_orbits, brute_force_orbits
from .rings import (
    DEFAULT_CAP,
    GF,
    FamA,
    FamB,
    FamC,
    FamD,
    MonicQuotient,
    Product,
    RingSpec,
    Zn,
    euler_phi,
    make_ring,
    spec_size,
)
from .ringexpr import _factor_prime_power, render_ring_spec
from .threshold import is_threshold


@dataclass
class ClaimReport:
    claim: str
    params: dict
    verdict: str                 # "pass" | "fail" | "skipped"
    payload: dict | None = None
    informational: bool = False
    wall_time_s: float = 0.0

    def to_json_line(self) -> str:
        # wall time stays out of the line so report files are byte-stable
        data = {
            "claim": self.claim,
            "params": self.params,
            "verdict": self.verdict,
            "payload": self.payload,
            "informational": self.informational,
        }
        return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _timed(claim: str, params: dict, fn) -> ClaimReport:
    start = time.perf_counter()
    try:
        verdict, payload, informational = fn()
    except SizeCapExceeded as exc:
        return ClaimReport(claim, params, "skipped", {"reason": str(exc)}, False,
                           time.perf_counter() - start)
    return ClaimReport(claim, params, verdict, payload, informational,
                       time.perf_counter() - start)


def _p_exponents(n_values: np.ndarray, p: int, alpha: int, modulus: int) -> np.ndarray:
    exp = np.zeros(len(n_values), dtype=np.int64)
    rem = n_values % modulus
    exp[rem == 0] = alpha
    work = rem.copy()
    for _ in range(alpha):
        live = (work != 0) & (work % p == 0)
        exp[live] += 1
        work[live] //= p
    return exp


# ---------------------------------------------------------------------------
# Individual claims
# ---------------------------------------------------------------------------

def verify_adjacency_lemma(p: int, alpha: int, cap: int = DEFAULT_CAP) -> ClaimReport:
    """All pairs of the p^alpha graph: adjacency iff exponent sum >= alpha."""
    params = {"p": p, "alpha": alpha}

    def run():
        n = p ** alpha
        g = build_zero_divisor_graph(make_ring(Zn(n), cap=cap), cap=cap)
        adj = _bit_rows(g.rows, g.n)
        vals = np.arange(n, dtype=np.int64)
        direct = (np.outer(vals, vals) % n) == 0
        exps = _p_exponents(vals, p, alpha, n)
        rule = (exps[:, None] + exps[None, :]) >= alpha
        np.fill_diagonal(direct, False)
        np.fill_diagonal(rule, False)
        bad = np.argwhere(adj != rule)
        bad2 = np.argwhere(adj != direct)
        if bad.size or bad2.size:
            x, y = (bad if bad.size else bad2)[0]
            return "fail", {
                "pair": [int(x), int(y)],
                "adjacent": bool(adj[x, y]),
                "exponents": [int(exps[x]), int(exps[y])],
            }, False
        return "pass", {"pairs_checked": int(n * (n - 1) // 2)}, False

    return _timed("adjacency-lemma", params, run)


def verify_orbit_size_formulas(p: int, alpha: int, cap: int = DEFAULT_CAP) -> ClaimReport:
    """gcd-class sizes match the totient formulas; the x-extension ring's
    twin classes match its stated inventory (with the p^2-1 block)."""
    params = {"p": p, "alpha": alpha}

    def run():
        n = p ** alpha
        ring = make_ring(Zn(n), cap=cap)
        part = gcd_class_partition(ring)
        got = [len(b) for _, b in part.blocks]          # divisor-ascending
        want = [euler_phi(p ** (alpha - i)) for i in range(alpha + 1)]
        payload: dict = {"zn_sizes": got, "zn_expected": want}
        if got != want:
            return "fail", payload, False
        if sum(got) != n:
            payload["sum"] = sum(got)
            return "fail", payload, False
        fam_size = p ** (alpha + 1)
        if fam_size <= cap:
            fam = build_zero_divisor_graph(make_ring(FamA(p, alpha), cap=cap), cap=cap)
            twin_sizes = sorted(len(b) for _, b in twin_partition(fam).blocks)
            stated = sorted(
                [euler_phi(p ** (alpha + 1 - i)) for i in range(alpha - 1)] + [p * p - 1, 1]
            )
            payload["fam_twin_sizes"] = twin_sizes
            payload["fam_stated"] = stated
            if twin_sizes != stated:
                # boundary finding: at alpha = 1 with p odd the p^2-1 class
                # genuinely splits into the (p-1)-clique of x-multiples and
                # the p^2-p independent units
                split = sorted([1, p - 1, p * p - p])
                if alpha == 1 and p > 2 and twin_sizes == split:
                    payload["note"] = "stated inventory fuses the two nonzero classes"
                    return "fail", payload, True
                return "fail", payload, False
        else:
            payload["fam_skipped"] = fam_size
        return "pass", payload, False

    return _timed("orbit-sizes", params, run)


def verify_join_decomposition(p: int, alpha: int, cap: int = DEFAULT_CAP) -> ClaimReport:
    """Rebuilding from per-exponent blocks over the exponent-sum skeleton
    reproduces the graph edge-for-edge."""
    params = {"p": p, "alpha": alpha}

    def run():
        n = p ** alpha
        ring = make_ring(Zn(n), cap=cap)
        g = build_zero_divisor_graph(ring, cap=cap)
        part = gcd_class_partition(ring)
        classes = orbit_block_classification(p, alpha, cap=cap)
        parts = tuple(
            complete_graph(size) if kind == "complete" else empty_graph(size)
            for _, kind, size in classes
        )
        k = alpha + 1
        skeleton = Graph.from_edges(
            k, [(i, j) for i in range(k) for j in range(i + 1, k) if i + j >= alpha]
        )
        joined = generalized_join(JoinSkeleton(skeleton, parts))
        order = [v for _, block in part.blocks for v in block]
        rebuilt = [0] * n
        for jv in range(n):
            row = 0
            for u in iter_bits(joined.rows[jv]):
                row |= 1 << order[u]
            rebuilt[order[jv]] = row
        if rebuilt != g.rows:
            for v in range(n):
                if rebuilt[v] != g.rows[v]:
                    return "fail", {"vertex": v}, False
        return "pass", {"edges": g.edge_count()}, False

    return _timed("join-decomposition", params, run)


def _field_spec(q: int, cap: int = DEFAULT_CAP) -> RingSpec:
    """GF(q); an order above the cap is refused before any primality test."""
    if q > cap:
        raise SizeCapExceeded.over("field size", math.log10(q), cap)
    pk = _factor_prime_power(q)
    if pk is None:
        raise RingSemanticError(f"field size {q} is not a prime power")
    return GF(*pk)


def verify_reduced_classification(field_sizes, pair_sizes=None, triple_sizes=None,
                                  cap: int = DEFAULT_CAP) -> ClaimReport:
    """Fields and 2-element-field products are threshold; larger products are not."""
    field_sizes = sorted(field_sizes)
    pair_sizes = sorted(pair_sizes if pair_sizes is not None
                        else [q for q in field_sizes if q > 2])
    triple_sizes = sorted(triple_sizes if triple_sizes is not None else field_sizes)
    params = {"q": field_sizes, "pair_q": pair_sizes, "triple_q": triple_sizes}

    def run():
        failures = []
        checked = 0
        for q in field_sizes:
            for spec in (_field_spec(q, cap), Product((Zn(2), _field_spec(q, cap)))):
                g = build_zero_divisor_graph(make_ring(spec, cap=cap), cap=cap)
                res = is_threshold(g)
                checked += 1
                if not res.is_threshold:
                    failures.append({"ring": render_ring_spec(spec), "expected": "threshold"})
        for q1, q2 in combinations_with_replacement(pair_sizes, 2):
            if q1 <= 2:
                continue
            spec = Product((_field_spec(q1, cap), _field_spec(q2, cap)))
            g = build_zero_divisor_graph(make_ring(spec, cap=cap), cap=cap)
            res = is_threshold(g)
            checked += 1
            if res.is_threshold or not res.witness.validate(g):
                failures.append({"ring": render_ring_spec(spec), "expected": "not_threshold"})
        for qs in combinations_with_replacement(triple_sizes, 3):
            if math.prod(qs) > cap:
                continue
            spec = Product(tuple(_field_spec(q, cap) for q in qs))
            g = build_zero_divisor_graph(make_ring(spec, cap=cap), cap=cap)
            res = is_threshold(g)
            checked += 1
            if res.is_threshold or not res.witness.validate(g):
                failures.append({"ring": render_ring_spec(spec), "expected": "not_threshold"})
        if failures:
            return "fail", {"failures": failures}, False
        return "pass", {"rings_checked": checked}, False

    return _timed("reduced-classification", params, run)


def _stated_family_inventory(spec: RingSpec) -> list[tuple[int, str]] | None:
    """Stated (size, kind) blocks for the x^p / two-variable / x^2=p families.

    Singleton blocks report the neutral kind "one"; the prime-power-chain
    rings are covered by orbit_block_classification instead.
    """
    def kinded(size: int, clique: bool) -> tuple[int, str]:
        return (size, "one" if size == 1 else ("clique" if clique else "independent"))

    if isinstance(spec, FamB):
        p = spec.p
        blocks = [kinded(euler_phi(p ** (p - i)), 2 * i >= p) for i in range(p)]
        return sorted(blocks + [(1, "one")])
    if isinstance(spec, FamC):
        p = spec.p
        return sorted([
            kinded(p ** 4 - p ** 3, False),
            kinded(p ** 3 - p ** 2, False),
            kinded(p * p - 1, True),
            (1, "one"),
        ])
    if isinstance(spec, FamD):
        p = spec.p
        return sorted([
            kinded(p ** 3 - p ** 2, False),
            kinded(p * p - p, False),
            kinded(p - 1, True),
            (1, "one"),
        ])
    return None


def _twin_inventory(g: Graph) -> list[tuple[int, str]]:
    out = []
    for _, block in twin_partition(g).blocks:
        if len(block) == 1:
            out.append((1, "one"))
        else:
            kind = "clique" if g.adjacent(block[0], block[1]) else "independent"
            out.append((len(block), kind))
    return sorted(out)


def verify_local_families(p: int, alpha: int, cap: int = DEFAULT_CAP) -> ClaimReport:
    """The four local families plus Z_{p^alpha} give threshold graphs with
    the advertised element counts, and the non-chain families realize their
    stated class inventories."""
    params = {"p": p, "alpha": alpha}

    def run():
        targets: list[tuple[RingSpec, int]] = [
            (FamA(p, alpha), p ** (alpha + 1)),
            (FamB(p), p ** p),
            (FamC(p), p ** 4),
            (FamD(p), p ** 3),
            (Zn(p ** alpha), p ** alpha),
        ]
        results = []
        failures = []
        skipped = []
        boundary = []
        for spec, expected_size in targets:
            name = render_ring_spec(spec)
            if expected_size > cap:
                skipped.append({"ring": name, "size": expected_size})
                continue
            ring = make_ring(spec, cap=cap)
            g = build_zero_divisor_graph(ring, cap=cap)
            res = is_threshold(g)
            entry = {"ring": name, "size": g.n, "threshold": res.is_threshold}
            results.append(entry)
            if ring.size != expected_size or g.n != expected_size:
                failures.append({"ring": name, "size": g.n, "expected_size": expected_size})
            if not res.is_threshold:
                failures.append({"ring": name, "witness": res.witness.to_json_dict()})
            stated = _stated_family_inventory(spec) if alpha == 1 else None
            if stated is not None:
                actual = _twin_inventory(g)
                entry["inventory_matches"] = actual == stated
                if actual != stated:
                    detail = {"ring": name, "stated": stated, "actual": actual}
                    # x^2 = 0 over Z_2: the lone x fuses with the units, so
                    # the two stated nonzero classes are genuinely one class
                    if spec == FamB(2) and actual == [(1, "one"), (3, "independent")]:
                        boundary.append(detail)
                    else:
                        failures.append(detail)
        payload = {"results": results, "skipped": skipped}
        if boundary:
            payload["inventory_findings"] = boundary
        if failures:
            payload["failures"] = failures
            return "fail", payload, False
        if not results:
            return "skipped", payload, False
        if boundary:
            return "fail", payload, True
        return "pass", payload, False

    return _timed("local-families", params, run)


def verify_nonthreshold_products(specs, cap: int = DEFAULT_CAP) -> ClaimReport:
    """Every given product ring yields a witnessed non-threshold graph."""
    specs = list(specs)
    params = {"rings": [render_ring_spec(s) for s in specs]}

    def run():
        failures = []
        for spec in specs:
            g = build_zero_divisor_graph(make_ring(spec, cap=cap), cap=cap)
            res = is_threshold(g)
            if res.is_threshold:
                failures.append({"ring": render_ring_spec(spec), "got": "threshold"})
            elif not res.witness.validate(g):
                failures.append({"ring": render_ring_spec(spec), "got": "invalid witness"})
        if failures:
            return "fail", {"failures": failures}, False
        return "pass", {"rings_checked": len(specs)}, False

    return _timed("nonthreshold-products", params, run)


def verify_orbit_claim(n: int, cap: int = DEFAULT_CAP) -> ClaimReport:
    """Compare automorphism orbits with gcd classes; mismatches are findings,
    not artifact bugs (they are genuine for a couple of degenerate n)."""
    params = {"n": n}

    def run():
        ring = make_ring(Zn(n), cap=cap)
        g = build_zero_divisor_graph(ring, cap=cap)
        gcd_part = gcd_class_partition(ring)
        orbits = aut_orbits(g)
        if orbits.as_sets() == gcd_part.as_sets():
            return "pass", {"orbits": len(orbits.blocks)}, False
        div_blocks = [(int(lab.split("_")[1]), frozenset(block)) for lab, block in gcd_part.blocks]
        merged = []
        for _, orbit in orbits.blocks:
            ov = frozenset(orbit)
            divisors = sorted(d for d, block in div_blocks if block & ov)
            if len(divisors) > 1:
                merged.append(divisors)
        payload = {"merged_divisor_classes": merged}
        if n <= BRUTE_FORCE_CAP:
            payload["brute_force_agrees"] = brute_force_orbits(g).as_sets() == orbits.as_sets()
        return "fail", payload, True

    return _timed("orbit-claim", params, run)


# ---------------------------------------------------------------------------
# Default sweep
# ---------------------------------------------------------------------------

LOCAL_NONFIELD_SPECS: tuple[RingSpec, ...] = (
    Zn(4),
    Zn(8),
    Zn(9),
    MonicQuotient(Zn(4), (0, 0, 1)),
    FamA(2, 2),
)

MIXED_FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9)


def product_sweep_specs(size_cap: int = 10_000) -> list[RingSpec]:
    """Products of >= 2 local non-field rings under the size cap, plus every
    local x field mixed pair; deterministic order."""
    out: list[RingSpec] = []
    max_len = 2
    while 4 ** (max_len + 1) <= size_cap:
        max_len += 1
    for length in range(2, max_len + 1):
        for combo in combinations_with_replacement(range(len(LOCAL_NONFIELD_SPECS)), length):
            factors = tuple(LOCAL_NONFIELD_SPECS[i] for i in combo)
            spec = Product(factors)
            if spec_size(spec) <= size_cap:
                out.append(spec)
    for local in LOCAL_NONFIELD_SPECS:
        for q in MIXED_FIELD_SIZES:
            spec = Product((local, _field_spec(q)))
            if spec_size(spec) <= size_cap:
                out.append(spec)
    return out


@dataclass
class SweepConfig:
    primes: tuple[int, ...] = (2, 3, 5)
    cap: int = DEFAULT_CAP
    adjacency_max: int = 3000
    field_sizes: tuple[int, ...] = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    orbit_claim_max: int = 200
    product_size_cap: int = 10_000
    local_family_cap: int = DEFAULT_CAP

    def to_json_dict(self) -> dict:
        return {
            "primes": list(self.primes),
            "cap": self.cap,
            "adjacency_max": self.adjacency_max,
            "field_sizes": list(self.field_sizes),
            "orbit_claim_max": self.orbit_claim_max,
            "product_size_cap": self.product_size_cap,
            "local_family_cap": self.local_family_cap,
        }


CLAIM_NAMES = (
    "adjacency-lemma",
    "orbit-sizes",
    "join-decomposition",
    "reduced-classification",
    "local-families",
    "nonthreshold-products",
    "orbit-claim",
)


def run_all(config: SweepConfig | None = None, claims=None) -> list[ClaimReport]:
    cfg = config or SweepConfig()
    wanted = set(claims or CLAIM_NAMES)
    reports: list[ClaimReport] = []

    def alphas(p: int, bound: int):
        a = 1
        while p ** a <= bound:
            yield a
            a += 1

    if "adjacency-lemma" in wanted:
        for p in cfg.primes:
            for a in alphas(p, cfg.adjacency_max):
                reports.append(verify_adjacency_lemma(p, a, cap=cfg.cap))
    if "orbit-sizes" in wanted:
        for p in cfg.primes:
            for a in alphas(p, cfg.adjacency_max):
                reports.append(verify_orbit_size_formulas(p, a, cap=cfg.cap))
    if "join-decomposition" in wanted:
        for p in cfg.primes:
            for a in alphas(p, cfg.adjacency_max):
                reports.append(verify_join_decomposition(p, a, cap=cfg.cap))
    if "reduced-classification" in wanted:
        reports.append(verify_reduced_classification(cfg.field_sizes, cap=cfg.cap))
    if "local-families" in wanted:
        for p in cfg.primes:
            for a in alphas(p, cfg.local_family_cap):
                reports.append(verify_local_families(p, a, cap=cfg.local_family_cap))
    if "nonthreshold-products" in wanted:
        reports.append(
            verify_nonthreshold_products(product_sweep_specs(cfg.product_size_cap), cap=cfg.cap)
        )
    if "orbit-claim" in wanted:
        for n in range(2, cfg.orbit_claim_max + 1):
            reports.append(verify_orbit_claim(n, cap=cfg.cap))
    return reports


def summarize(reports: list[ClaimReport]) -> str:
    lines = []
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    informational = 0
    for r in reports:
        counts[r.verdict] += 1
        if r.verdict == "fail" and r.informational:
            informational += 1
        tag = " (informational)" if r.informational and r.verdict == "fail" else ""
        lines.append(f"{r.verdict.upper():7s} {r.claim} {json.dumps(r.params, sort_keys=True)}{tag}")
    lines.append("")
    lines.append(
        f"total={len(reports)} pass={counts['pass']} fail={counts['fail']}"
        f" (informational={informational}) skipped={counts['skipped']}"
    )
    return "\n".join(lines) + "\n"


def hard_failures(reports: list[ClaimReport]) -> list[ClaimReport]:
    return [r for r in reports if r.verdict == "fail" and not r.informational]
