"""Oracles, digraph and permutation helpers that only the tests use.

Vertices are plain indices: vertex (g, i) of an m-Cayley digraph over G is
i*|G| + g, as `build_mcayley` numbers them.  The automorphism oracle tries
every bijection and compares arc sets itself, sharing no code with the
engine's search.
"""

import bisect
import collections
import itertools

from omsr.automorphisms import (PermutationGroup, _closure_elements, _is_automorphism, _refine,
                                _translations, automorphisms)
from omsr.certificate import certify
from omsr.digraphs import ConnectionTable, Digraph, is_connected, is_k_regular, is_oriented
from omsr.errors import TooLarge
from omsr.perms import orbit_partition
from omsr.sweep import _cell_order, _table_moves

BRUTE_FORCE_CAP = 8


def arcs(d):
    return [(u, v) for u in range(d.n) for v in d.out_adj[u]]


def arc_count(d) -> int:
    return sum(len(nbrs) for nbrs in d.out_adj)


def oriented(d) -> bool:
    """No loop and no arc whose reverse is an arc, read off the arc set."""
    arc_set = set(arcs(d))
    return all((w, u) not in arc_set for u, w in arc_set)


def k_regular(d, k) -> bool:
    """Every vertex the tail of k arcs and the head of k arcs."""
    tails = collections.Counter(u for u, _ in arcs(d))
    heads = collections.Counter(w for _, w in arcs(d))
    return all(tails[v] == heads[v] == k for v in range(d.n))


def strongly_connected(d) -> bool:
    """Whether vertex 0 reaches every vertex along the arcs and against
    them, each reach grown to a fixed point over the arc list; no shortcut
    for balanced degrees."""
    def covers(pairs):
        seen = {0}
        while True:
            new = {w for u, w in pairs if u in seen} - seen
            if not new:
                return len(seen) == d.n
            seen |= new

    pairs = arcs(d)
    return d.n > 0 and covers(pairs) and covers([(w, u) for u, w in pairs])


def entries_of(sets) -> dict:
    """The cells of a table given as an m x m grid, keyed by (i, j), for
    `ConnectionTable(m, entries)`; empty cells included."""
    return {(i, j): cell for i, row in enumerate(sets) for j, cell in enumerate(row)}


def grid_of(table) -> tuple:
    """The m x m grid of a table's cells, empty ones included: the inverse
    of `entries_of`."""
    m = table.m
    return tuple(tuple(table.entries.get((i, j), frozenset()) for j in range(m))
                 for i in range(m))


def cycles(p):
    """Nontrivial cycles of p, each starting at its smallest point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def to_cycle_string(p) -> str:
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cs)


def brute_force_automorphisms(d):
    """Every vertex bijection that maps the arc set onto itself, all N!
    tried (N <= `BRUTE_FORCE_CAP`).  A bijection maps the arc pairs one to
    one, so it maps the finite arc set onto itself when it maps it into
    itself."""
    if d.n > BRUTE_FORCE_CAP:
        raise TooLarge(f"brute force limited to {BRUTE_FORCE_CAP} vertices")
    arc_set = set(arcs(d))
    return {p for p in itertools.permutations(range(d.n))
            if all((p[u], p[w]) in arc_set for u, w in arc_set)}


def elements(A):
    """The elements of a PermutationGroup, closed from its generators; their
    count must be A.order."""
    found = set(_closure_elements(A.generators, A.degree))
    assert len(found) == A.order, (len(found), A.order)
    return found


def first_vertex_table(d) -> ConnectionTable:
    """The table of the m-Cayley digraph d's arcs at each block's first
    vertex (e, i), which is d's own table once every translation passes."""
    n, entries = d.group.order, {}
    for i in range(d.m):
        for w in d.out_adj[i * n]:
            entries.setdefault((i, w // n), set()).add(w % n)
    return ConnectionTable(d.m, entries)


def certificate(d):
    """The rigid-block certificate on the m-Cayley digraph d: R(G),
    generated by the translations, when they all pass and `certify` closes
    on `first_vertex_table(d)`, else None."""
    seeds = [t for t in _translations(d) if _is_automorphism(d, t)]
    if len(seeds) == len(_translations(d)) and certify(d.group, first_vertex_table(d)):
        return PermutationGroup(d.n, seeds, d.group.order, translations_embed=True)
    return None


def quotient_arcs(G, T):
    """certify's arcs of the m-block quotient: for each block i, out[i] with
    a (t, j) per t in T[i][j], and into[j] with a (t^-1, i)."""
    out, into = [[] for _ in range(T.m)], [[] for _ in range(T.m)]
    for (i, j), cell in T.entries.items():
        for t in cell:
            out[i].append((t, j))
            into[j].append((G.inv[t], i))
    return [out, into]


def ball_sizes_reference(G, adjs):
    """Step 1 of `certify` as sets of (product, block) pairs: per block i,
    the sizes of the balls of radius 1, 2, 3 at (e, i) in each of ``adjs``,
    each ball the last one joined with its frontier."""
    m = len(adjs[0])
    keys = [[] for _ in range(m)]
    for i, adj in itertools.product(range(m), adjs):
        ball = frontier = {(0, i)}
        for _ in range(3):
            frontier = {(G.mult[t][x], k) for x, j in frontier for t, k in adj[j]} - ball
            ball = ball | frontier
            keys[i].append(len(ball))
    return list(map(tuple, keys))


def report_fields(d, construction_kind="custom") -> dict:
    """Every field of `is_omsr(d).to_dict()` but runtime_ms, computed
    apart from it: connectivity by `is_connected`, and the orbits from the
    certificate's generators, or the engine's where it does not close."""
    G, A = d.group, certificate(d) or automorphisms(d)
    orbits = orbit_partition(A.generators, A.degree)
    oriented, regular = is_oriented(d), is_k_regular(d, 2)
    return {"group_label": G.label, "m": d.m, "group_order": G.order,
            "construction_kind": construction_kind,
            "omsr": bool(oriented and regular and A.order == G.order),
            "oriented": oriented, "regular2": regular, "connected": is_connected(d),
            "aut_order": A.order, "stabilizer_order": A.order // len(orbits[0]),
            "orbit_count": len(orbits), "translations_embed": A.translations_embed}


def first_occurrence(colors):
    numbers = {}
    return [numbers.setdefault(c, len(numbers)) for c in colors]


def refine(d, initial=None):
    """Coarsest equitable coloring refining ``initial`` (uniform by
    default), numbered 0..k-1 by first occurrence."""
    labels = list(initial) if initial is not None else [0] * d.n
    ranks = sorted(labels)
    colors = [bisect.bisect_left(ranks, c) for c in labels]
    return first_occurrence(_refine(d.out_adj, d.in_adj, colors, colors)[0])


def distance2_out_set(d, v):
    """The out-neighbours of v's out-neighbours."""
    return {w for u in d.out_adj[v] for w in d.out_adj[u]}


def induced_subdigraph(d, vertices):
    """The digraph on ``vertices`` with every arc between them, its vertex
    k being the k-th smallest of them."""
    labels = sorted(vertices)
    pos = {u: k for k, u in enumerate(labels)}
    return Digraph(len(labels), [[pos[w] for w in d.out_adj[u] if w in pos] for u in labels])


def ranked_moves_reference(G, m):
    """The codes of the moves of `_table_moves` and, per row, the indices of
    those that keep rows 0..row in place, as `sweep._RankedMoves` holds
    them, built cell by cell: each cell's image under t -> alpha(h_j t h_i^-1),
    inverted after the converse, ranked as a frozenset."""
    cells = _cell_order(G.order)
    rank = {sub: r for r, sub in enumerate(cells)}
    moves = _table_moves(G, m)
    codes = []
    for h, sigma, alpha, converse in moves:
        code = [None] * (m * m)
        for i, j in itertools.product(range(m), repeat=2):
            image = [alpha[G.mult[G.mult[h[j]][t]][G.inv[h[i]]]] for t in range(G.order)]
            if converse:
                image = [G.inv[x] for x in image]
            a, b = (sigma[j], sigma[i]) if converse else (sigma[i], sigma[j])
            code[a * m + b] = (i * m + j, tuple(rank[frozenset(image[t] for t in sub)]
                                                for sub in cells))
        codes.append(tuple(code))
    rows = [[k for k, (h, sigma, alpha, converse) in enumerate(moves)
             if not converse and max(sigma[:row + 1]) == row] for row in range(m - 1)]
    return codes, rows
