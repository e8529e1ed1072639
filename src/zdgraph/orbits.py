"""Exact automorphism orbits via twin compression and backtracking search."""

from __future__ import annotations

from itertools import permutations

from ._util import DSU, iter_bits
from .errors import OracleCapExceeded
from .graphs import Graph, Partition

ORBIT_ORACLE_CAP = 5000       # quotient size after twin compression
UNCOMPRESSED_CAP = 60         # raw size for the no-compression cross-checker
BRUTE_FORCE_CAP = 10


def color_refinement(adj: list[list[int]], colors: list[int]) -> list[int]:
    """Iterate (color, sorted neighbor colors) signatures to a stable coloring.

    Colors are renumbered canonically each round, so equal outputs mean
    equal refined classes regardless of the input color values.
    """
    n = len(adj)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _search_mapping(adj_masks: list[int], colors: list[int], source: int, target: int):
    """Exhaustive backtracking for a color-preserving automorphism with source -> target.

    Returns the full vertex mapping or None; None is a proof of absence.
    """
    n = len(adj_masks)
    if colors[source] != colors[target]:
        return None
    order = sorted(range(n), key=lambda v: (v != source, colors[v], v))
    mapping = [-1] * n
    used = [False] * n
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        candidates = [target] if v == source else by_color[colors[v]]
        for u in candidates:
            if used[u]:
                continue
            ok = True
            for d in range(depth):
                w = order[d]
                if ((adj_masks[v] >> w) & 1) != ((adj_masks[u] >> mapping[w]) & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used[u] = True
                if extend(depth + 1):
                    return True
                used[u] = False
                mapping[v] = -1
        return False

    return mapping if extend(0) else None


def _orbits_of_colored_graph(adj_masks: list[int], init_colors: list[int]) -> DSU:
    n = len(adj_masks)
    adj = [list(iter_bits(m)) for m in adj_masks]
    colors = color_refinement(adj, list(init_colors))
    dsu = DSU(n)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    for color in sorted(by_color):
        pending = by_color[color]
        while pending:
            base = pending[0]
            for u in pending[1:]:
                if dsu.find(u) == dsu.find(base):
                    continue
                mapping = _search_mapping(adj_masks, colors, base, u)
                if mapping is not None:
                    for v, w in enumerate(mapping):
                        dsu.union(v, w)
            pending = [u for u in pending[1:] if dsu.find(u) != dsu.find(base)]
    return dsu


def aut_orbits(g: Graph, use_twin_compression: bool = True,
               compressed_cap: int = ORBIT_ORACLE_CAP) -> Partition:
    """Exact orbits of the full automorphism group.

    Twin classes are contracted first (any permutation inside a twin class
    is an automorphism, and automorphisms permute twin classes preserving
    size and internal type), then orbits of the colored quotient are found
    by individualization backtracking and lifted back.
    """
    if not use_twin_compression:
        if g.n > UNCOMPRESSED_CAP:
            raise OracleCapExceeded(f"{g.n} vertices above the uncompressed cap {UNCOMPRESSED_CAP}")
        dsu = _orbits_of_colored_graph(g.rows, [0] * g.n)
        blocks = [(f"O{i}", tuple(b)) for i, b in enumerate(dsu.groups())]
        return Partition(tuple(blocks), "aut", g.n)

    sk = g.skeleton()
    twins = sk.twin_groups()  # skeleton classes per twin class
    k = len(twins)
    if k > compressed_cap:
        raise OracleCapExceeded(f"{k} twin classes above the oracle cap {compressed_cap}")
    reps = [group[0] for group in twins]
    q_masks = [sum(1 << j for j, s in enumerate(reps) if sk.join[r] >> s & 1) for r in reps]
    # color = (size, internal type); singleton classes get the neutral type
    color_key = []
    for group in twins:
        size = sum(len(sk.members[c]) for c in group)
        if len(group) > 1:
            internal = sk.join[group[0]] >> group[1] & 1 == 1
        else:
            internal = size > 1 and sk.clique[group[0]]
        color_key.append((size, internal))
    palette = {key: i for i, key in enumerate(sorted(set(color_key)))}
    dsu = _orbits_of_colored_graph(q_masks, [palette[key] for key in color_key])
    orbits = [sk.vertices([c for t in group for c in twins[t]]) for group in dsu.groups()]
    orbits.sort()
    blocks = [(f"O{i}", orbit) for i, orbit in enumerate(orbits)]
    return Partition(tuple(blocks), "aut", g.n)


def brute_force_orbits(g: Graph) -> Partition:
    """Orbits by filtering all n! permutations; the independent oracle."""
    if g.n > BRUTE_FORCE_CAP:
        raise OracleCapExceeded(f"{g.n}! permutations is out of reach")
    dsu = DSU(g.n)
    verts = range(g.n)
    edges = [(u, v) for u in verts for v in range(u + 1, g.n) if g.adjacent(u, v)]
    m = len(edges)
    for perm in permutations(verts):
        ok = True
        count = 0
        for u, v in edges:
            if g.adjacent(perm[u], perm[v]):
                count += 1
            else:
                ok = False
                break
        if ok and count == m:
            for v in verts:
                dsu.union(v, perm[v])
    blocks = [(f"O{i}", tuple(b)) for i, b in enumerate(dsu.groups())]
    return Partition(tuple(blocks), "aut", g.n)


def are_isomorphic(g1: Graph, g2: Graph, cap: int = 12) -> bool:
    """Exact isomorphism test by backtracking; intended for small graphs."""
    if g1.n != g2.n:
        return False
    n = g1.n
    if n > cap:
        raise OracleCapExceeded(f"isomorphism check capped at {cap} vertices")
    if n == 0:
        return True
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    adj1 = [list(iter_bits(r)) for r in g1.rows]
    adj2 = [list(iter_bits(r)) for r in g2.rows]
    c1 = color_refinement(adj1, [0] * n)
    c2 = color_refinement(adj2, [0] * n)
    if sorted(c1) != sorted(c2):
        return False
    order = sorted(range(n), key=lambda v: (c1[v], v))
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(c2[v], []).append(v)
    mapping = [-1] * n
    used = [False] * n

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for u in by_color.get(c1[v], ()):
            if used[u]:
                continue
            ok = True
            for d in range(depth):
                w = order[d]
                if g1.adjacent(v, w) != g2.adjacent(u, mapping[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used[u] = True
                if extend(depth + 1):
                    return True
                used[u] = False
                mapping[v] = -1
        return False

    return extend(0)
