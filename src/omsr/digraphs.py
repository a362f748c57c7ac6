"""m-Cayley digraphs on vertex set G x Z_m, plus the digraph predicates.

Vertex (g, i) has index i*|G| + g.  The arc set is
{(g_i, (t*g)_j) : t in T[i][j], g in G}.  A connection table keeps only its
non-empty cells.
"""

from __future__ import annotations

import operator

from .errors import InputError, ParseError, content_lines, header_int, read_int, tokens
from .groups import Group, GroupElement
from .perms import Perm


class ConnectionTable:
    """An m x m table of element subsets defining the inter-block arcs,
    kept as its non-empty cells: ``entries`` maps (i, j) to T[i][j] in
    row-major order.  At valency two at most 2m of the m^2 cells are
    non-empty, so building a table and its digraph costs O(m) cells."""

    __slots__ = ("m", "entries")

    def __init__(self, m: int, entries: dict):
        if m < 1:
            raise InputError("m must be positive")
        self.m = m
        self.entries = {}
        for (i, j), cell in sorted(entries.items()):
            if not (0 <= i < m and 0 <= j < m):
                raise InputError(f"cell ({i}, {j}) out of range for m = {m}")
            # A frozenset of ints is kept, so tables built from shared cells share them.
            if type(cell) is not frozenset or not {int}.issuperset(map(type, cell)):
                cell = frozenset(map(operator.index, cell))
            if cell:
                self.entries[(i, j)] = cell

    def validate(self, G: Group) -> None:
        for (i, j), cell in self.entries.items():
            for t in cell:
                if not 0 <= t < G.order:
                    raise InputError(f"T[{i}][{j}] entry {t} not an element of {G!r}")

    def to_text(self) -> str:
        lines = [f"m: {self.m}"]
        for (i, j), cell in self.entries.items():
            lines.append(f"T {i} {j} : {' '.join(str(t) for t in sorted(cell))}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, ConnectionTable) and self.m == other.m
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.m, *self.entries.items()))

    def __repr__(self):
        return f"ConnectionTable(m={self.m})"


def parse_connection_table(text: str) -> ConnectionTable:
    """Parse the text of `ConnectionTable.to_text`: an ``m: <int>`` line,
    then one ``T i j : e1 e2 ...`` line per cell (README, "Group specs")."""
    content = content_lines(text)
    m = header_int(content, "m", 1)
    entries = {}
    for no, ln in content[1:]:
        head, sep, body = ln.partition(":")
        toks = tokens(head)
        if len(toks) != 3 or toks[0][1] != "T" or not sep:
            raise ParseError("expected 'T i j : e1 e2 ...'", no)
        i, j = (read_int(tok, no, col, "block index", m) for col, tok in toks[1:])
        elems = {read_int(tok, no, col, "element") for col, tok in tokens(body, len(head) + 1)}
        entries[(i, j)] = entries.get((i, j), set()) | elems
    return ConnectionTable(m, entries)


class Digraph:
    """Immutable digraph: each out-list in the order it was given, and the
    in-lists, ascending by source.  Nothing reads an out-list in order."""

    __slots__ = ("n", "out_adj", "in_adj")

    def __init__(self, n: int, out_adj):
        self.n = n
        self.out_adj = tuple(map(tuple, out_adj))
        rev = [[] for _ in range(n)]
        for u, nbrs in enumerate(self.out_adj):
            for v in nbrs:
                rev[v].append(u)
        self.in_adj = tuple(map(tuple, rev))


class MCayleyDigraph(Digraph):
    """Digraph over G x Z_m, as `build_mcayley` builds it from a connection
    table; only its arcs are kept."""

    __slots__ = ("group", "m")

    def __init__(self, group: Group, m: int, out_adj):
        super().__init__(group.order * m, out_adj)
        self.group = group
        self.m = m


def build_mcayley(G: Group, T: ConnectionTable) -> MCayleyDigraph:
    """Materialize the digraph: vertex (g, i)'s out-list holds (t*g)_j for
    each cell T[i][j] in row-major order and each t in it."""
    T.validate(G)
    n, m = G.order, T.m
    out = [[] for _ in range(n * m)]
    for (i, j), cell in T.entries.items():
        for t in cell:
            row = G.mult[t]
            for g in range(n):
                out[i * n + g].append(j * n + row[g])
    return MCayleyDigraph(G, m, out)


def is_oriented(d: Digraph) -> bool:
    """No loops and no pair of oppositely directed arcs: no arc u -> w with
    u in w's out-list, which is a loop (w = u) or half a digon."""
    return not any(u in d.out_adj[w] for u, nbrs in enumerate(d.out_adj) for w in nbrs)


def oriented_table_criterion(G: Group, T: ConnectionTable) -> bool:
    """Connection-set test: no T[i][j] meeting T[j][i]^-1, which on the
    diagonal also rules out the identity."""
    return not any(cell & {G.inverse(t) for t in T.entries.get((j, i), ())}
                   for (i, j), cell in T.entries.items())


def is_k_regular(d: Digraph, k: int) -> bool:
    return list(map(len, d.out_adj)) == list(map(len, d.in_adj)) == [k] * d.n


def _reachable(adj) -> int:
    """The number of vertices reached from vertex 0 along the lists of adj."""
    seen, reached = [False] * len(adj), [0]
    seen[0] = True
    for u in reached:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                reached.append(v)
    return len(reached)


def is_connected(d: Digraph) -> bool:
    """Strong connectivity: forward and reverse sweeps both cover V.  When
    every in-degree equals its out-degree, each weak component is strong,
    so the forward sweep suffices."""
    if d.n == 0:
        return False
    balanced = list(map(len, d.out_adj)) == list(map(len, d.in_adj))
    return (_reachable(d.out_adj) == d.n
            and (balanced or _reachable(d.in_adj) == d.n))


def right_translation(G: Group, m: int, g) -> Perm:
    """Vertex permutation x_i -> (x*g)_i."""
    n, g = G.order, GroupElement(g)  # refuses a negative or non-integer g
    images = []
    for i in range(m):
        base = i * n
        images.extend(base + G.mult[x][g] for x in range(n))
    return tuple(images)
