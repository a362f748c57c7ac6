"""Finite groups as explicit multiplication tables over 0-based indices.

Element 0 is always the identity; construction relabels if needed. Every
table is built once, as a numpy array, and checked exactly by whole-array
operations: the Latin property, the two-sided inverses, and associativity
by Light's test, at every order.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import perms as permlib
from .errors import (NotAGroup, NotGenerating, ParseError, TooLarge, UnknownFamily, content_lines,
                     header_int, read_int, tokens)

ORDER_CAP = 2000


def _index(x) -> int:
    """An element index: an integer, refused when negative, which Python
    would read from the end of a table."""
    if operator.index(x) < 0:
        raise IndexError(f"negative element index {x}")
    return x


class GroupElement(int):
    """A group element is its index, an int; only an integer >= 0 makes one."""

    __slots__ = ()
    index = property(operator.index)

    def __new__(cls, index):
        return super().__new__(cls, _index(index))


@dataclass(frozen=True)
class GeneratingPair:
    a: GroupElement
    b: Optional[GroupElement] = None


class Group:
    """Immutable finite group given by its full multiplication table, as
    tuples of the Python ints it is given; the constructor checks nothing.
    A group given no label is named ``order-<n>``.  ``_memo`` keeps what
    is derived from it once: whether it is abelian and cyclic, generating
    set, automorphism generators and the engine's translation seeds per m."""

    __slots__ = ("order", "mult", "inv", "label", "_memo")

    def __init__(self, mult, inv, label=""):
        self.order = len(mult)
        self.mult = tuple(map(tuple, mult))
        self.inv = tuple(inv)
        self.label = label or f"order-{self.order}"
        self._memo = {}

    def mul(self, x, y) -> int:
        return self.mult[_index(x)][_index(y)]

    def inverse(self, x) -> int:
        return self.inv[_index(x)]

    def element(self, i: int) -> GroupElement:
        if not 0 <= i < self.order:
            raise IndexError(f"element index {i} out of range for order {self.order}")
        return GroupElement(i)

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        return f"Group({self.label}, order={self.order})"


def _check_order(n: int) -> None:
    if n > ORDER_CAP:
        raise TooLarge(f"group order {n} exceeds cap {ORDER_CAP}")


def _first_bad(ok: np.ndarray, what: str, order: np.ndarray) -> None:
    """Raise NotAGroup naming the first index where ``ok`` fails, mapped
    through ``order`` (new index -> input index)."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise NotAGroup(what.format(int(order[bad[0]])))


def _span(rows, steps) -> set:
    """The elements that right multiplication by the steps reaches from 0."""
    seen, queue = {0}, [0]
    for x in queue:
        row = rows[x]
        for g in steps:
            y = row[g]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _greedy_generators(rows):
    """Each element, in index order, that is not in the span of the ones
    before it, yielded before the span grows."""
    gens, span = [], {0}
    for a in range(1, len(rows)):
        if a not in span:
            yield a
            gens.append(a)
            span = _span(rows, gens)


def _check_associativity(table: np.ndarray, rows, label: str, order: np.ndarray) -> None:
    """Light's test (Clifford and Preston, *The Algebraic Theory of
    Semigroups*, vol. 1, 1961), exact at every order: the a with
    (x*a)*y = x*(a*y) for all x, y are closed under products, so it suffices
    to check each a of the greedy generating set as it is found.  While the
    checks pass, the span is a subgroup that at least doubles with each new
    a, so at most log2(n) + 1 whole-array checks run.  A failing triple is
    reported mapped through ``order`` (new index -> input index)."""
    for a in _greedy_generators(rows):
        left = table[table[:, a]]         # left[x, y] = (x*a)*y
        right = table[:, table[a]]        # right[x, y] = x*(a*y)
        if not np.array_equal(left, right):
            x, y = np.argwhere(left != right)[0]
            x, a, y = (int(order[v]) for v in (x, a, y))
            raise NotAGroup(f"associativity fails at ({x},{a},{y}) in {label or 'table'}",
                            witness=(x, a, y))


def group_from_cayley_table(table, label: str = "") -> Group:
    """Validate a multiplication table and return the group.

    The table must be a square array of integers in [0, n).  The identity
    is relabeled to index 0 if the input puts it elsewhere.  Raises TooLarge
    for more than ORDER_CAP rows, before any entry is read; NotAGroup on a
    malformed table (ragged, non-integer, out of range) and on any axiom
    violation; a failed associativity carries its witness (x, a, y).  Every
    index in a message or witness is that of the input table.
    """
    _check_order(len(table))
    try:
        arr = np.asarray(table)
    except ValueError:
        raise NotAGroup("table rows must all have the same length") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NotAGroup(f"table must be square and non-empty, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise NotAGroup(f"table entries must be integers, got dtype {arr.dtype}")
    n = arr.shape[0]
    if arr.min() < 0 or arr.max() >= n:
        raise NotAGroup(f"table entries must lie in [0,{n})")

    idx = np.arange(n)
    ids = np.flatnonzero((arr == idx).all(axis=1) & (arr == idx[:, None]).all(axis=0))
    if not ids.size:
        raise NotAGroup("no identity element")
    e = int(ids[0])
    order = idx                                            # new index -> old
    if e != 0:
        order = np.concatenate(([e], np.delete(idx, e)))
        relabel = np.argsort(order)                        # old index -> new
        arr = relabel[arr[np.ix_(order, order)]]

    _first_bad((np.sort(arr, axis=1) == idx).all(axis=1),
               "row {} is not a permutation (Latin square violated)", order)
    _first_bad((np.sort(arr, axis=0) == idx[:, None]).all(axis=0),
               "column {} is not a permutation (Latin square violated)", order)

    inv = np.argmin(arr, axis=1)                           # the 0 in each row
    _first_bad(arr[inv, idx] == 0, "element {} has no two-sided inverse", order)

    ints = np.array(range(n), dtype=object)     # one Python int per element, shared
    mult = tuple(map(tuple, ints[arr].tolist()))
    _check_associativity(arr, mult, label, order)
    return Group(mult, tuple(ints[inv]), label=label)


def group_from_permutation_generators(perms, label: str = ""):
    """Materialize the group generated by permutations as a Cayley table.

    Returns the group and the images of the input generators as elements.
    Raises TooLarge as soon as the closure passes ORDER_CAP elements, before
    any table is built.  Element i is the i-th one the breadth-first closure
    finds, as p*g for an earlier p and a generator g; as x*(p*g) = (x*p)*g,
    column p*g of the table is column p under right multiplication by g.
    """
    if not perms:
        raise NotAGroup("need at least one generator permutation")
    degree = max(len(p) for p in perms)
    gens = [permlib.pad(tuple(p), degree) for p in perms]
    for g in gens:
        if not permlib.is_bijection(g):
            raise NotAGroup(f"generator {g} is not a bijection of [0,{degree})")

    ident = permlib.identity(degree)
    index, elements, parents = {ident: 0}, [ident], [(0, 0)]
    right = [[] for _ in gens]            # right[k][i] = element i * gens[k]
    for i, p in enumerate(elements):      # grows while it is walked: BFS order
        for k, g in enumerate(gens):
            q = permlib.compose(p, g)
            if q not in index:
                if len(elements) >= ORDER_CAP:
                    raise TooLarge(f"closure exceeds order cap {ORDER_CAP}")
                index[q] = len(elements)
                elements.append(q)
                parents.append((i, k))
            right[k].append(index[q])

    n = len(elements)
    right = np.array(right)
    columns = np.empty((n, n), dtype=np.int64)           # columns[y][x] = x*y
    columns[0] = np.arange(n)
    for y, (p, k) in enumerate(parents[1:], 1):
        columns[y] = right[k][columns[p]]
    group = group_from_cayley_table(columns.T, label=label)
    return group, [group.element(index[g]) for g in gens]


def element_order(G: Group, g) -> int:
    mult = G.mult
    k, x = 1, mult[0][_index(g)]  # e * g
    while x != 0:
        x = mult[x][g]
        k += 1
    return k


def is_abelian(G: Group) -> bool:
    if "abelian" not in G._memo:
        G._memo["abelian"] = G.mult == tuple(zip(*G.mult))
    return G._memo["abelian"]


def is_cyclic(G: Group) -> bool:
    if "cyclic" not in G._memo:
        G._memo["cyclic"] = any(element_order(G, g) == G.order for g in G.elements())
    return G._memo["cyclic"]


def closure(G: Group, gens) -> set:
    """Subgroup generated by the elements.  In a finite group it is the set
    of products of the generators alone, so no inverse is needed."""
    return _span(G.mult, set(map(_index, gens)))


def generating_set(G: Group) -> list:
    """Greedy generating set: each element, in index order, that is not in
    the subgroup generated by the ones before it.  Found once per group."""
    if "generators" not in G._memo:
        G._memo["generators"] = tuple(_greedy_generators(G.mult))
    return list(G._memo["generators"])


def automorphism_generators(G: Group) -> list:
    """A small generating set of Aut(G), each automorphism as its element
    map: the tuple whose entry x is the image of element x.  Found once per
    group; a group with trivial Aut(G) gets [].

    An automorphism is fixed by its images of `generating_set(G)`, each of
    its generator's order.  Each tuple of such images that the kept maps do
    not already generate defines a map along a breadth-first tree of words,
    image(x * g) = image(x) * image(g).  The map is kept when it is a
    bijection and that rule holds for every x and every generator, which
    makes it a homomorphism.  Each kept map at least doubles the group
    generated, so at most log2 |Aut(G)| are kept.
    """
    if "automorphisms" not in G._memo:
        n, mult, gens = G.order, G.mult, generating_set(G)
        words, seen, queue = [], {0}, [0]  # words: (y, x, k), y = x * gens[k]
        for x in queue:
            for k, g in enumerate(gens):
                y = mult[x][g]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                    words.append((y, x, k))
        orders = [element_order(G, x) for x in range(n)]
        choices = [[y for y in range(n) if orders[y] == orders[g]] for g in gens]
        kept, generated = [], {tuple(gens)}  # generated: the kept maps' images of gens
        for images in itertools.product(*choices):
            if images in generated:
                continue
            alpha = [0] * n
            for y, x, k in words:
                alpha[y] = mult[alpha[x]][images[k]]
            if len(set(alpha)) == n and all(alpha[mult[x][g]] == mult[alpha[x]][a]
                                            for x in range(n) for g, a in zip(gens, images)):
                kept.append(tuple(alpha))
                queue = list(generated)
                for beta in queue:  # gamma after beta sends gens[k] to gamma[beta[k]]
                    for gamma in kept:
                        delta = tuple([gamma[x] for x in beta])
                        if delta not in generated:
                            generated.add(delta)
                            queue.append(delta)
        G._memo["automorphisms"] = tuple(kept)
    return list(G._memo["automorphisms"])


def generates(G: Group, S) -> bool:
    return len(closure(G, S)) == G.order


def normalize_generating_pair(G: Group, a, b):
    """Pick a generating pair whose first element has order at least 3.

    Tries, in order: (a,b), (b,a), (ab,b), (ab,a), (ba,b), (ba,a).  Raises
    NotGenerating if {a,b} does not generate, or if every candidate first
    coordinate is an involution (which forces the Klein four-group).
    """
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
    entry is computed; ``mul`` gets the row and column indices as numpy
    arrays that broadcast to the table."""
    _check_order(n)
    x = np.arange(n, dtype=np.int32)
    return mul(x[:, None], x)


def _cyclic(n: int):
    G = group_from_cayley_table(_table_from_mul(n, lambda x, y: (x + y) % n), label=f"Z{n}")
    return G, GeneratingPair(G.element(1 % n))


def _elementary_abelian_2(t: int):
    if t not in (1, 2):
        raise UnknownFamily("elementary_abelian_2 supports t in {1, 2}")
    table = _table_from_mul(2 ** t, lambda x, y: x ^ y)
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
        e1, r1 = np.divmod(x, k)
        e2, r2 = np.divmod(y, k)
        r = np.where(e1 == 0, (r1 + r2) % k, (r1 - r2) % k)
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
        e1, j1 = np.divmod(x, two_k)
        e2, j2 = np.divmod(y, two_k)
        return np.where(e1 == 0, e2 * two_k + (j1 + j2) % two_k,
                        np.where(e2 == 0, two_k + (j1 - j2) % two_k,
                                 (j1 - j2 + k) % two_k))

    G = group_from_cayley_table(_table_from_mul(n, mul), label=f"Q{n}")
    return G, GeneratingPair(G.element(1), G.element(two_k))


def _symmetric(k: int):
    if not 2 <= k <= 5:
        raise UnknownFamily("symmetric supports 2 <= n <= 5")
    cycle = tuple(list(range(1, k)) + [0])
    swap = permlib.from_cycle_string("(0 1)")
    G, gens = group_from_permutation_generators([cycle, swap], label=f"S{k}")
    return G, GeneratingPair(gens[0], gens[1])


def _alternating(k: int):
    if not 3 <= k <= 5:
        raise UnknownFamily("alternating supports 3 <= n <= 5")
    three = permlib.from_cycle_string("(0 1 2)")
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
    params = list(map(operator.index, params if isinstance(params, (list, tuple)) else [params]))
    if len(params) != arity:
        raise UnknownFamily(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    if any(p < 1 for p in params):
        raise UnknownFamily(f"family {name!r} parameters must be positive")
    return builder(*params)


# --- group-spec text format --------------------------------------------------

def catalog_from_tokens(name: str, params, line: int):
    """The catalog group of a family name and its parameters as (column,
    token) pairs on a line, read from `catalog:` strings and specs alike."""
    return catalog_group(name, [read_int(tok, line, col, "parameter") for col, tok in params])


def parse_group_spec(text: str):
    """Parse the one-group-per-file text format (README, "Group specs").

    Returns (Group, GeneratingPair or None).  Kinds: catalog, table, perms.
    """
    content = content_lines(text)
    if not content:
        raise ParseError("empty group spec", 1)
    (no, first), rest = content[0], content[1:]
    key, sep, kind = first.partition(":")
    if key.strip() != "kind" or not sep:
        raise ParseError("expected 'kind: catalog|table|perms'", no)
    kind = kind.strip()

    if kind == "catalog":
        fields = {}
        for line, ln in rest:
            field, sep, value = ln.partition(":")
            if not sep:
                raise ParseError("expected 'key: value'", line)
            fields[field.strip()] = (line, value, len(field) + 1)
        if "name" not in fields:
            raise ParseError("catalog spec needs a 'name:' line", no)
        line, params, start = fields.get("params", (no, "", 0))
        return catalog_from_tokens(fields["name"][1].strip(), tokens(params, start), line)

    if kind == "table":
        n = header_int(rest, "n", no + 1)
        _check_order(n)
        rows = rest[1:]
        if len(rows) != n:
            raise ParseError(f"expected {n} table rows, got {len(rows)}", rest[0][0])
        table = []
        for line, ln in rows:
            toks = tokens(ln)
            if len(toks) != n:
                raise ParseError(f"expected {n} entries, got {len(toks)}", line)
            table.append([read_int(tok, line, col, "entry", n) for col, tok in toks])
        return group_from_cayley_table(table), None

    if kind == "perms":
        if not rest:
            raise ParseError("perms spec needs at least one permutation line", no)
        # Act on the named points alone, so a large point costs nothing; the
        # closure only composes and compares, so the table does not change.
        lines = [permlib.parse_cycles(ln, line) for line, ln in rest]
        points = sorted({x for cycles in lines for cycle in cycles for x in cycle})
        G, gens = group_from_permutation_generators([permlib.from_cycles(c, points) for c in lines])
        return G, GeneratingPair(*gens) if len(gens) <= 2 else None

    raise ParseError(f"unknown kind {kind!r}", no, first.index(kind, len(key)) + 1)
