"""Exact automorphism orbits and isomorphism by individualization-refinement.

One search, ``_find_isomorphism``, answers both questions (McKay & Piperno,
"Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014).  Given
two refined colourings, it proves absence when their refinement traces or
colour histograms differ; otherwise it fixes the first vertex of the first
cell of several vertices against each vertex of that colour on the other
side, refines both sides again and goes one level deeper, on an explicit
stack.  A discrete leaf is accepted only after an edge-by-edge check, so
every map it returns is a validated witness."""

from __future__ import annotations

from itertools import permutations

from ._util import DSU, iter_bits
from .errors import OracleCapExceeded
from .graphs import Graph, Partition

ORBIT_ORACLE_CAP = 5000       # quotient size after twin compression
ISOMORPHISM_CAP = 12
BRUTE_FORCE_CAP = 10


def color_refinement(adj: list[list[int]], colors: list[int],
                     splitters: list[int] | None = None) -> tuple[list[int], list]:
    """The coarsest equitable colouring finer than ``colors``, and its trace.

    Classes are split by their vertices' neighbour counts in a splitter
    class until none splits; ``splitters`` are the classes that may split
    others (all by default).  Split-off parts take fresh colours in an order
    fixed by colours and counts alone, and the trace lists every split with
    its part counts and sizes, so colourings that correspond under an
    isomorphism refine to corresponding colourings with equal traces."""
    colors = list(colors)
    trace = []
    cells = _cells(colors)
    queue = sorted(cells) if splitters is None else list(splitters)
    fresh = max(cells, default=-1) + 1
    for splitter in queue:  # the queue grows as classes split
        if len(cells) == len(colors):
            break  # discrete
        count: dict[int, int] = {}
        for x in cells[splitter]:
            for y in adj[x]:
                count[y] = count.get(y, 0) + 1
        touched: dict[int, dict[int, list[int]]] = {}
        for y, k in count.items():
            touched.setdefault(colors[y], {}).setdefault(k, []).append(y)
        for c in sorted(touched):
            parts = touched[c]
            if len(cells[c]) > sum(map(len, parts.values())):  # some have count 0
                parts[0] = [v for v in cells[c] if v not in count]
            elif len(parts) == 1:
                continue
            # the largest part keeps the colour and need not split others:
            # its counts are those of the old class minus the other parts'
            keep = max(parts, key=lambda key: (len(parts[key]), -key))
            trace.append((c, [(key, len(parts[key])) for key in sorted(parts)]))
            cells[c] = parts[keep]
            for key in sorted(parts):
                if key != keep:
                    cells[fresh] = parts[key]
                    for v in parts[key]:
                        colors[v] = fresh
                    queue.append(fresh)
                    fresh += 1
    return colors, trace


def _cells(colors: list[int]) -> dict[int, list[int]]:
    """The vertices of each colour, ascending."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return cells


def _individualized(adj: list[list[int]], colors: list[int], v: int) -> tuple[list[int], list]:
    """``colors`` refined after giving v a colour of its own, with the trace."""
    fresh = max(colors) + 1
    return color_refinement(adj, colors[:v] + [fresh] + colors[v + 1:], [fresh])


def _find_isomorphism(adj1: list[list[int]], r1: tuple[list[int], list],
                      adj2: list[list[int]], r2: tuple[list[int], list]) -> list[int] | None:
    """A colour-preserving isomorphism from graph 1 to graph 2 as a vertex
    map, or None as a proof that none exists.  ``r1`` and ``r2`` are
    ``color_refinement`` results; adjacency lists are ascending.

    The search is depth-first over an explicit stack, one frame per
    individualized vertex: side 1's refinement after it, side 2's colouring
    before it and the side-2 candidates not yet tried, so its depth is not
    bounded by Python's recursion limit."""
    stack = []
    while True:
        (c1, t1), (c2, t2) = r1, r2
        if t1 == t2 and sorted(c1) == sorted(c2):
            cells1, cells2 = _cells(c1), _cells(c2)
            split = min((c for c, cell in cells1.items() if len(cell) > 1), default=None)
            if split is None:
                mapping = [cells2[c][0] for c in c1]
                if all(sorted(mapping[u] for u in adj1[v]) == adj2[mapping[v]]
                       for v in range(len(adj1))):
                    return mapping
            else:
                stack.append((_individualized(adj1, c1, cells1[split][0]), c2, iter(cells2[split])))
        while stack and (w := next(stack[-1][2], None)) is None:
            stack.pop()
        if not stack:
            return None
        r1, c2, _ = stack[-1]
        r2 = _individualized(adj2, c2, w)


def aut_orbits(g: Graph) -> Partition:
    """Exact orbits of the full automorphism group.

    Twin classes are contracted first (any permutation inside a twin class
    is an automorphism, and automorphisms permute twin classes preserving
    size and internal type).  Within each refined cell of the coloured
    quotient, the least vertex of each orbit found so far is tried against
    the least vertex of each later one, last first: the search maps the rest
    of the cell in order, so a map to the last vertex tends to be one long
    cycle that merges many orbits at once.  Orbits are lifted back.
    """
    sk = g.skeleton()
    twins = sk.twin_groups()  # skeleton classes per twin class
    if len(twins) > ORBIT_ORACLE_CAP:
        raise OracleCapExceeded(f"{len(twins)} twin classes above the oracle cap {ORBIT_ORACLE_CAP}")
    reps = [group[0] for group in twins]
    q_adj = [[j for j, s in enumerate(reps) if sk.join[r] >> s & 1] for r in reps]
    # color = 2 * size + internal type; singleton classes get the neutral type
    colors = []
    for group in twins:
        size = sum(len(sk.members[c]) for c in group)
        if len(group) > 1:
            internal = sk.join[group[0]] >> group[1] & 1
        else:
            internal = size > 1 and sk.clique[group[0]]
        colors.append(2 * size + internal)
    colors = color_refinement(q_adj, colors)[0]
    dsu = DSU(len(twins))
    for cell in _cells(colors).values():
        for i, base in enumerate(cell):
            source = None
            for u in reversed(cell[i + 1:]):
                if dsu.find(base) == base and dsu.find(u) == u:
                    source = source or _individualized(q_adj, colors, base)
                    mapping = _find_isomorphism(q_adj, source, q_adj, _individualized(q_adj, colors, u))
                    for v, w in enumerate(mapping or ()):
                        dsu.union(v, w)
    orbits = [sk.vertices([c for t in group for c in twins[t]]) for group in dsu.groups()]
    orbits.sort()
    blocks = [(f"O{i}", orbit) for i, orbit in enumerate(orbits)]
    return Partition(tuple(blocks), "aut", g.n)


def brute_force_orbits(g: Graph) -> Partition:
    """Orbits by filtering all n! permutations; the independent oracle."""
    if g.n > BRUTE_FORCE_CAP:
        raise OracleCapExceeded(f"{g.n}! permutations is out of reach")
    dsu = DSU(g.n)
    edges = list(g.edges())
    for perm in permutations(range(g.n)):
        # a bijection that keeps every edge maps the edge set onto itself
        if all(g.adjacent(perm[u], perm[v]) for u, v in edges):
            for v, w in enumerate(perm):
                dsu.union(v, w)
    blocks = [(f"O{i}", tuple(b)) for i, b in enumerate(dsu.groups())]
    return Partition(tuple(blocks), "aut", g.n)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by the individualization-refinement search."""
    if g1.n != g2.n:
        return False
    if g1.n > ISOMORPHISM_CAP:
        raise OracleCapExceeded(f"isomorphism check capped at {ISOMORPHISM_CAP} vertices")
    adj1 = [list(iter_bits(r)) for r in g1.rows]
    adj2 = [list(iter_bits(r)) for r in g2.rows]
    r1, r2 = color_refinement(adj1, [0] * g1.n), color_refinement(adj2, [0] * g2.n)
    return _find_isomorphism(adj1, r1, adj2, r2) is not None
