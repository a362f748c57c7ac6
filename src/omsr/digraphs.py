"""m-Cayley digraphs on vertex set G x Z_m, plus the digraph predicates.

Vertex (g, i) has index i*|G| + g.  The arc set is
{(g_i, (t*g)_j) : t in T[i][j], g in G}.
"""

from __future__ import annotations

from .errors import ParseError
from .groups import Group, _idx
from .perms import Perm


def _cell(elements) -> frozenset:
    """A cell as a frozenset of ints; one that already is one is kept, so
    tables built from shared cells share them."""
    if type(elements) is frozenset and all(type(e) is int for e in elements):
        return elements
    return frozenset(_idx(e) for e in elements)


class ConnectionTable:
    """m x m array of element subsets defining the inter-block arcs."""

    __slots__ = ("m", "sets")

    def __init__(self, m: int, sets):
        if m < 1:
            raise ValueError("m must be positive")
        if len(sets) != m or any(len(row) != m for row in sets):
            raise ValueError(f"a table with m = {m} needs {m} rows of {m} cells")
        self.m = m
        self.sets = tuple(tuple(_cell(sets[i][j]) for j in range(m)) for i in range(m))

    @classmethod
    def _of_cells(cls, m: int, sets: tuple) -> "ConnectionTable":
        """A table from m rows of m cells that are already frozensets of
        ints, kept as given, unchecked."""
        table = cls.__new__(cls)
        table.m, table.sets = m, sets
        return table

    @classmethod
    def from_dict(cls, m: int, entries: dict) -> "ConnectionTable":
        sets = [[entries.get((i, j), ()) for j in range(m)] for i in range(m)]
        return cls(m, sets)

    def validate(self, G: Group) -> None:
        for i in range(self.m):
            for j in range(self.m):
                for t in self.sets[i][j]:
                    if not 0 <= t < G.order:
                        raise ValueError(f"T[{i}][{j}] entry {t} not an element of {G!r}")

    def to_text(self) -> str:
        lines = [f"m: {self.m}"]
        for i in range(self.m):
            for j in range(self.m):
                if self.sets[i][j]:
                    body = " ".join(str(t) for t in sorted(self.sets[i][j]))
                    lines.append(f"T {i} {j} : {body}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return isinstance(other, ConnectionTable) and self.sets == other.sets

    def __hash__(self):
        return hash(self.sets)

    def __repr__(self):
        return f"ConnectionTable(m={self.m})"


def parse_connection_table(text: str) -> ConnectionTable:
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    content = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not content or not content[0][1].startswith("m:"):
        raise ParseError("expected leading 'm: <int>' line", content[0][0] if content else 1)
    hdr_no, hdr = content[0]
    try:
        m = int(hdr.split(":", 1)[1])
    except ValueError:
        raise ParseError("m must be an integer", hdr_no, hdr.index(":") + 2)
    entries = {}
    for no, ln in content[1:]:
        head, sep, body = ln.partition(":")
        toks = head.split()
        if len(toks) != 3 or toks[0] != "T" or not sep:
            raise ParseError("expected 'T i j : e1 e2 ...'", no)
        try:
            i, j = int(toks[1]), int(toks[2])
        except ValueError:
            raise ParseError("block indices must be integers", no, 3)
        if not (0 <= i < m and 0 <= j < m):
            raise ParseError(f"block index ({i},{j}) out of range for m={m}", no)
        try:
            elems = [int(t) for t in body.split()]
        except ValueError:
            raise ParseError("element indices must be integers", no, ln.index(":") + 2)
        entries[(i, j)] = set(entries.get((i, j), set())) | set(elems)
    return ConnectionTable.from_dict(m, entries)


class Digraph:
    """Immutable digraph with both adjacency directions precomputed."""

    __slots__ = ("n", "out_adj", "in_adj", "out_sets")

    def __init__(self, n: int, out_adj):
        self.n = n
        self.out_adj = tuple(tuple(sorted(nbrs)) for nbrs in out_adj)
        rev = [[] for _ in range(n)]
        for u in range(n):
            for v in self.out_adj[u]:
                rev[v].append(u)
        # Filled in ascending source order, so already sorted.
        self.in_adj = tuple(map(tuple, rev))
        self.out_sets = tuple(frozenset(nbrs) for nbrs in self.out_adj)


class MCayleyDigraph(Digraph):
    """Digraph over G x Z_m built from a connection table."""

    __slots__ = ("group", "m", "table")

    def __init__(self, group: Group, table: ConnectionTable, out_adj):
        super().__init__(group.order * table.m, out_adj)
        self.group = group
        self.m = table.m
        self.table = table


def build_mcayley(G: Group, T: ConnectionTable) -> MCayleyDigraph:
    """Materialize the digraph; adjacency lists sorted by linear index."""
    T.validate(G)
    n, m = G.order, T.m
    out = [[] for _ in range(n * m)]
    for i in range(m):
        for j in range(m):
            for t in T.sets[i][j]:
                row = G.mult[t]
                for g in range(n):
                    out[i * n + g].append(j * n + row[g])
    return MCayleyDigraph(G, T, out)


def is_oriented(d: Digraph) -> bool:
    """No loops and no pair of oppositely directed arcs: no arc u -> w with
    u in w's out-set, which is a loop (w = u) or half a digon."""
    return not any(u in d.out_sets[w] for u, nbrs in enumerate(d.out_adj) for w in nbrs)


def oriented_table_criterion(G: Group, T: ConnectionTable) -> bool:
    """Connection-set test: no identity on the diagonal, no T[i][j] meeting T[j][i]^-1."""
    for i in range(T.m):
        if 0 in T.sets[i][i]:
            return False
    for i in range(T.m):
        for j in range(T.m):
            inv_ji = {G.inverse(t) for t in T.sets[j][i]}
            if T.sets[i][j] & inv_ji:
                return False
    return True


def is_k_regular(d: Digraph, k: int) -> bool:
    return list(map(len, d.out_adj)) == list(map(len, d.in_adj)) == [k] * d.n


def _reachable(adj, start: int) -> int:
    seen = [False] * len(adj)
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count


def is_connected(d: Digraph) -> bool:
    """Strong connectivity: forward and reverse sweeps both cover V.  When
    every in-degree equals its out-degree, each weak component is strong,
    so the forward sweep suffices."""
    if d.n == 0:
        return False
    balanced = list(map(len, d.out_adj)) == list(map(len, d.in_adj))
    return _reachable(d.out_adj, 0) == d.n and (balanced or _reachable(d.in_adj, 0) == d.n)


def right_translation(G: Group, m: int, g) -> Perm:
    """Vertex permutation x_i -> (x*g)_i."""
    g = _idx(g)
    n = G.order
    images = []
    for i in range(m):
        base = i * n
        images.extend(base + G.mult[x][g] for x in range(n))
    return tuple(images)
