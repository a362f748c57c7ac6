"""Finite groups as explicit multiplication tables over 0-based indices.

Element 0 is always the identity; construction relabels if needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import perms as permlib
from .errors import NotAGroup, NotGenerating, ParseError, TooLarge, UnknownFamily

ORDER_CAP = 2000
EXHAUSTIVE_ASSOC_LIMIT = 512
ASSOC_SAMPLE_FACTOR = 10


@dataclass(frozen=True)
class GroupElement:
    index: int


@dataclass(frozen=True)
class GeneratingPair:
    a: GroupElement
    b: Optional[GroupElement] = None


def _idx(x) -> int:
    return x.index if isinstance(x, GroupElement) else int(x)


class Group:
    """Immutable finite group given by its full multiplication table.

    ``assoc_check`` records whether associativity was verified exhaustively
    or by random sampling (orders above EXHAUSTIVE_ASSOC_LIMIT).
    """

    __slots__ = ("order", "mult", "inv", "label", "assoc_check")

    def __init__(self, mult, inv, label="", assoc_check="exhaustive"):
        self.order = len(mult)
        self.mult = tuple(tuple(int(v) for v in row) for row in mult)
        self.inv = tuple(int(v) for v in inv)
        self.label = label
        self.assoc_check = assoc_check

    def mul(self, x, y) -> int:
        return self.mult[_idx(x)][_idx(y)]

    def inverse(self, x) -> int:
        return self.inv[_idx(x)]

    def element(self, i: int) -> GroupElement:
        if not 0 <= i < self.order:
            raise IndexError(f"element index {i} out of range for order {self.order}")
        return GroupElement(i)

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        tag = self.label or "group"
        return f"Group({tag}, order={self.order})"


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            return e
    raise NotAGroup("no identity element")


def _check_associativity(table: np.ndarray, label: str) -> str:
    n = table.shape[0]
    if n <= EXHAUSTIVE_ASSOC_LIMIT:
        for x in range(n):
            left = table[table[x]]          # left[y, z] = (x*y)*z
            right = table[x][table]         # right[y, z] = x*(y*z)
            if not np.array_equal(left, right):
                y, z = np.argwhere(left != right)[0]
                raise NotAGroup(
                    f"associativity fails at ({x},{y},{z}) in {label or 'table'}",
                    witness=(x, int(y), int(z)),
                )
        return "exhaustive"
    # ASSOC_SAMPLE_FACTOR * n^2 seeded triples, n^2 to a vectorised chunk.
    rng = np.random.default_rng(0x5EED ^ n)
    for _ in range(ASSOC_SAMPLE_FACTOR):
        x, y, z = rng.integers(0, n, size=(3, n * n))
        bad = np.flatnonzero(table[table[x, y], z] != table[x, table[y, z]])
        if bad.size:
            x, y, z = (int(v[bad[0]]) for v in (x, y, z))
            raise NotAGroup(f"associativity fails at ({x},{y},{z})", witness=(x, y, z))
    return "sampled"


def group_from_cayley_table(table, label: str = "") -> Group:
    """Validate a multiplication table and return the group.

    The identity is relabeled to index 0 if the input puts it elsewhere.
    Raises NotAGroup on any axiom violation, carrying the first witness.
    """
    arr = np.asarray(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NotAGroup(f"table must be square and non-empty, got shape {arr.shape}")
    n = arr.shape[0]
    if arr.min() < 0 or arr.max() >= n:
        raise NotAGroup(f"table entries must lie in [0,{n})")

    e = _find_identity(arr)
    if e != 0:
        relabel = np.empty(n, dtype=np.int64)
        order = [e] + [x for x in range(n) if x != e]
        for new, old in enumerate(order):
            relabel[old] = new
        new_arr = np.empty_like(arr)
        for x in range(n):
            for y in range(n):
                new_arr[relabel[x], relabel[y]] = relabel[arr[x, y]]
        arr = new_arr

    full = np.arange(n)
    for x in range(n):
        if not np.array_equal(np.sort(arr[x]), full):
            raise NotAGroup(f"row {x} is not a permutation (Latin square violated)")
        if not np.array_equal(np.sort(arr[:, x]), full):
            raise NotAGroup(f"column {x} is not a permutation (Latin square violated)")

    inv = np.empty(n, dtype=np.int64)
    for x in range(n):
        hits = np.flatnonzero(arr[x] == 0)
        if len(hits) != 1 or arr[hits[0], x] != 0:
            raise NotAGroup(f"element {x} has no two-sided inverse")
        inv[x] = hits[0]

    mode = _check_associativity(arr, label)
    return Group(arr.tolist(), inv.tolist(), label=label, assoc_check=mode)


def group_from_permutation_generators(perms, label: str = ""):
    """Materialize the group generated by permutations as a Cayley table.

    Returns the group and the images of the input generators as elements.
    Raises TooLarge as soon as the closure passes ORDER_CAP elements, before
    any table is built.
    """
    if not perms:
        raise NotAGroup("need at least one generator permutation")
    degree = max(len(p) for p in perms)
    gens = [permlib.pad(tuple(p), degree) for p in perms]
    for g in gens:
        if not permlib.is_bijection(g):
            raise NotAGroup(f"generator {g} is not a bijection of [0,{degree})")

    ident = permlib.identity(degree)
    index = {ident: 0}
    elements = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = permlib.compose(p, g)
                if q not in index:
                    if len(elements) >= ORDER_CAP:
                        raise TooLarge(f"closure exceeds order cap {ORDER_CAP}")
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt

    n = len(elements)
    mult = [[index[permlib.compose(elements[i], elements[j])] for j in range(n)]
            for i in range(n)]
    group = group_from_cayley_table(mult, label=label)
    gen_elements = [group.element(index[g]) for g in gens]
    return group, gen_elements


def element_order(G: Group, g) -> int:
    g, mult = _idx(g), G.mult
    k, x = 1, g
    while x != 0:
        x = mult[x][g]
        k += 1
    return k


def is_abelian(G: Group) -> bool:
    n = G.order
    return all(G.mult[x][y] == G.mult[y][x] for x in range(n) for y in range(x + 1, n))


def is_cyclic(G: Group) -> bool:
    return any(element_order(G, g) == G.order for g in G.elements())


def closure(G: Group, gens) -> set:
    """Subgroup generated by the elements.  In a finite group it is the set
    of products of the generators alone, so no inverse is needed."""
    steps = {_idx(g) for g in gens}
    seen, queue = {0}, [0]
    for x in queue:
        row = G.mult[x]
        for g in steps:
            y = row[g]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def generating_set(G: Group) -> list:
    """Greedy generating set: each element, in index order, that is not in
    the subgroup generated by the ones before it."""
    gens, span = [], {0}
    for g in G.elements():
        if g not in span:
            gens.append(g)
            span = closure(G, gens)
    return gens


def generates(G: Group, S) -> bool:
    return len(closure(G, S)) == G.order


def normalize_generating_pair(G: Group, a, b):
    """Pick a generating pair whose first element has order at least 3.

    Tries, in order: (a,b), (b,a), (ab,b), (ab,a), (ba,b), (ba,a).  Raises
    NotGenerating if {a,b} does not generate, or if every candidate first
    coordinate is an involution (which forces the Klein four-group).
    """
    a, b = _idx(a), _idx(b)
    if not generates(G, (a, b)):
        raise NotGenerating(f"elements {a},{b} do not generate {G!r}")
    ab = G.mul(a, b)
    ba = G.mul(b, a)
    for x, y in ((a, b), (b, a), (ab, b), (ab, a), (ba, b), (ba, a)):
        if element_order(G, x) >= 3:
            return GroupElement(x), GroupElement(y)
    raise NotGenerating("no generator of order >= 3 exists for this group")


def find_generating_pair(G: Group) -> GeneratingPair:
    """A deterministic generating pair: single generator for cyclic groups."""
    for g in G.elements():
        if element_order(G, g) == G.order:
            return GeneratingPair(GroupElement(g))
    for a in range(1, G.order):
        for b in range(1, G.order):
            if b != a and generates(G, (a, b)):
                return GeneratingPair(GroupElement(a), GroupElement(b))
    raise NotGenerating(f"{G!r} needs more than two generators")


# --- catalog families -------------------------------------------------------

def _table_from_mul(n, mul):
    """The n x n multiplication table, refused past ORDER_CAP before any
    entry is computed."""
    if n > ORDER_CAP:
        raise TooLarge(f"group order {n} exceeds cap {ORDER_CAP}")
    return [[mul(x, y) for y in range(n)] for x in range(n)]


def _cyclic(n: int):
    table = _table_from_mul(n, lambda x, y: (x + y) % n)
    G = group_from_cayley_table(table, label=f"Z{n}")
    return G, GeneratingPair(G.element(1 % n))


def _elementary_abelian_2(t: int):
    if t not in (1, 2):
        raise UnknownFamily("elementary_abelian_2 supports t in {1, 2}")
    n = 2 ** t
    table = _table_from_mul(n, lambda x, y: x ^ y)
    G = group_from_cayley_table(table, label=f"Z2^{t}" if t > 1 else "Z2")
    if t == 1:
        return G, GeneratingPair(G.element(1))
    return G, GeneratingPair(G.element(1), G.element(2))


def _cyclic_product(n: int, m: int):
    size = n * m

    def mul(x, y):
        return ((x // m + y // m) % n) * m + (x % m + y % m) % m

    G = group_from_cayley_table(_table_from_mul(size, mul), label=f"Z{n}xZ{m}")
    return G, GeneratingPair(G.element(m % size), G.element(1 % size))


def _dihedral(k: int):
    if k < 3:
        raise UnknownFamily("dihedral needs parameter >= 3 (order 2k)")
    n = 2 * k

    # element e*k + r means rotation^r * reflection^e
    def mul(x, y):
        e1, r1 = divmod(x, k)
        e2, r2 = divmod(y, k)
        r = (r1 + r2) % k if e1 == 0 else (r1 - r2) % k
        return ((e1 + e2) % 2) * k + r

    G = group_from_cayley_table(_table_from_mul(n, mul), label=f"D{k}")
    return G, GeneratingPair(G.element(1), G.element(k))


def _dicyclic(k: int):
    if k < 2:
        raise UnknownFamily("dicyclic/quaternion needs parameter >= 2 (order 4k)")
    two_k = 2 * k
    n = 4 * k

    # element e*2k + j means a^j * b^e with a^(2k)=1, b^2=a^k, b a b^-1 = a^-1
    def mul(x, y):
        e1, j1 = divmod(x, two_k)
        e2, j2 = divmod(y, two_k)
        if e1 == 0:
            return e2 * two_k + (j1 + j2) % two_k
        if e2 == 0:
            return two_k + (j1 - j2) % two_k
        return (j1 - j2 + k) % two_k

    G = group_from_cayley_table(_table_from_mul(n, mul), label=f"Q{n}")
    return G, GeneratingPair(G.element(1), G.element(two_k))


def _symmetric(k: int):
    if not 2 <= k <= 5:
        raise UnknownFamily("symmetric supports 2 <= n <= 5")
    cycle = tuple(list(range(1, k)) + [0])
    swap = permlib.from_cycle_string("(0 1)", degree=k)
    G, gens = group_from_permutation_generators([cycle, swap], label=f"S{k}")
    return G, GeneratingPair(gens[0], gens[1])


def _alternating(k: int):
    if not 3 <= k <= 5:
        raise UnknownFamily("alternating supports 3 <= n <= 5")
    three = permlib.from_cycle_string("(0 1 2)", degree=k)
    if k % 2 == 1:
        big = tuple(list(range(1, k)) + [0])          # k-cycle, even
    else:
        big = tuple([0] + list(range(2, k)) + [1])    # (k-1)-cycle on 1..k-1, even
    G, gens = group_from_permutation_generators([big, three], label=f"A{k}")
    if G.order == 3:  # A3: both generators coincide with a 3-cycle
        return G, GeneratingPair(gens[0])
    return G, GeneratingPair(gens[0], gens[1])


_FAMILIES = {
    "cyclic": (_cyclic, 1),
    "elementary_abelian_2": (_elementary_abelian_2, 1),
    "cyclic_product": (_cyclic_product, 2),
    "dihedral": (_dihedral, 1),
    "quaternion": (_dicyclic, 1),
    "dicyclic": (_dicyclic, 1),
    "symmetric": (_symmetric, 1),
    "alternating": (_alternating, 1),
}


def catalog_group(name: str, params):
    """Look up a named family; returns (Group, GeneratingPair).

    A group of order above ORDER_CAP is refused with TooLarge, by its
    family's exact order, before any table is built: every table family
    builds through `_table_from_mul`, and the permutation families stop
    their closure at the cap.
    """
    if name not in _FAMILIES:
        raise UnknownFamily(f"unknown family {name!r}; known: {sorted(_FAMILIES)}")
    builder, arity = _FAMILIES[name]
    params = [int(p) for p in (params if isinstance(params, (list, tuple)) else [params])]
    if len(params) != arity:
        raise UnknownFamily(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    if any(p < 1 for p in params):
        raise UnknownFamily(f"family {name!r} parameters must be positive")
    return builder(*params)


# --- group-spec text format --------------------------------------------------

def parse_group_spec(text: str):
    """Parse the one-group-per-file text format.

    Returns (Group, GeneratingPair or None).  Kinds: catalog, table, perms.
    """
    lines = text.splitlines()
    stripped = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    content = [(no, ln) for no, ln in stripped if ln and not ln.startswith("#")]
    if not content:
        raise ParseError("empty group spec", 1)
    no, first = content[0]
    if not first.startswith("kind:"):
        raise ParseError("expected 'kind: catalog|table|perms'", no)
    kind = first.split(":", 1)[1].strip()
    rest = content[1:]

    if kind == "catalog":
        fields = {}
        for no, ln in rest:
            if ":" not in ln:
                raise ParseError("expected 'key: value'", no)
            key, val = (part.strip() for part in ln.split(":", 1))
            fields[key] = (no, val)
        if "name" not in fields:
            raise ParseError("catalog spec needs a 'name:' line", content[0][0])
        name = fields["name"][1]
        params = fields.get("params", (0, ""))[1].split()
        try:
            G, pair = catalog_group(name, [int(p) for p in params] or [1])
        except ValueError:
            raise ParseError("params must be integers", fields["params"][0])
        return G, pair

    if kind == "table":
        if not rest or not rest[0][1].startswith("n:"):
            raise ParseError("table spec needs an 'n:' line", no + 1)
        hdr_no, hdr = rest[0]
        try:
            n = int(hdr.split(":", 1)[1])
        except ValueError:
            raise ParseError("n must be an integer", hdr_no, hdr.index(":") + 2)
        rows = rest[1:]
        if len(rows) != n:
            raise ParseError(f"expected {n} table rows, got {len(rows)}", hdr_no)
        table = []
        for row_no, ln in rows:
            toks = ln.split()
            if len(toks) != n:
                raise ParseError(f"expected {n} entries, got {len(toks)}", row_no)
            row = []
            for j, tok in enumerate(toks):
                try:
                    v = int(tok)
                except ValueError:
                    raise ParseError(f"bad entry {tok!r}", row_no, ln.index(tok) + 1)
                if not 0 <= v < n:
                    raise ParseError(f"entry {v} out of range [0,{n})", row_no, ln.index(tok) + 1)
                row.append(v)
            table.append(row)
        return group_from_cayley_table(table), None

    if kind == "perms":
        parsed = [permlib.from_cycle_string(ln, line=no) for no, ln in rest]
        if not parsed:
            raise ParseError("perms spec needs at least one permutation line", no)
        G, gens = group_from_permutation_generators(parsed)
        if len(gens) == 1:
            return G, GeneratingPair(gens[0])
        if len(gens) == 2:
            return G, GeneratingPair(gens[0], gens[1])
        return G, None

    raise ParseError(f"unknown kind {kind!r}", no, first.index(":") + 2)
