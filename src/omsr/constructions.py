"""Connection-table recipes and the dispatcher that certifies each (G, m).

`recipe_table` is the one place that picks a table: the cyclic recipe for
cyclic groups of order >= 3 and the abelian and non-abelian two-generator
recipes, all three one block-cycle shape that checks its own
preconditions; a closed rigid table for Z1 at m >= 7; and at m >= 5 the
circulant C_m(1, 2) lifted to Z2 and the Klein four-group.  No recipe
searches.  `construct_omsr`, the one path from (G, m) to a verdict,
verifies the recipe table.  Under "auto", where no recipe applies
(inside the sweep's feasibility guard), or inside the guard its digraph
is not an OmSR, the witness search decides: a searched witness, or a
NOT_EXISTS certificate from its exhausted scan.  Otherwise the recipe
table is the answer, verified or not.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from typing import Optional, Tuple, Union

from .automorphisms import VALENCY, VERTEX_CAP, verify_table
from .digraphs import ConnectionTable, parse_connection_table
from .errors import (InputError, IsAbelian, NotAbelian, NotGenerating, OrderTooSmall,
                     TooLarge, UnknownFamily)
from .groups import (GeneratingPair, Group, element_order, find_generating_pair,
                     generates, is_abelian, is_cyclic, normalize_generating_pair)
from .reports import VerificationReport
from . import sweep as sweeplib

KIND_CYCLIC = "cyclic"
KIND_ABELIAN = "abelian_2gen"
KIND_NONABELIAN = "nonabelian_2gen"
KIND_RIGID_TRIVIAL = "rigid_trivial"
KIND_LIFT = "spanning_tree_lift"
KIND_SEARCH = "search_witness"
KIND_EXCEPTION = "exception_certificate"
RECIPES = ("auto", "cyclic", "abelian", "nonabelian")
# The smallest m at which the circulant C_m(1, 2) is oriented.
LIFT_MIN_M = 5
# The smallest m with a rigid trivial-group table.
RIGID_MIN_M = 7


def _block_cycle_table(G: Group, m: int, gens, d0: int, d: int, c: int) -> ConnectionTable:
    """The shape of the three two-generator recipes: d0 in the first
    diagonal cell and d in the others, the identity on the superdiagonal,
    and c in the corner (m - 1, 0) that closes the cycle of blocks.

    Raises InputError for m < 2, NotGenerating unless ``gens`` generate G,
    and OrderTooSmall for a diagonal word of order at most 2 (a loop or a
    digon) or c = e (at m = 2, a digon with the superdiagonal)."""
    if m < 2:
        raise InputError("m must be at least 2")
    if not generates(G, gens):
        raise NotGenerating(f"elements {', '.join(map(str, gens))} do not generate {G!r}")
    if min(element_order(G, d0), element_order(G, d)) < 3:
        raise OrderTooSmall("need every diagonal word of order at least 3")
    if c == 0:
        raise OrderTooSmall("need a corner word other than e")
    entries = {(i, i): {d} for i in range(m)}
    entries[(0, 0)] = {d0}
    entries[(m - 1, 0)] = {c}
    entries.update(((i, i + 1), {0}) for i in range(m - 1))
    return ConnectionTable(m, entries)


def cyclic_connection_table(G: Group, a, m: int) -> ConnectionTable:
    """Table for a cyclic group: generator on the diagonal corners, identity
    arcs chaining the blocks, the generator closing the cycle of blocks."""
    return _block_cycle_table(G, m, (a,), a, G.inverse(a), a)


def abelian_connection_table(G: Group, a, b, m: int) -> ConnectionTable:
    """Table for an abelian two-generated group: a, then ab on the diagonal,
    b closing the cycle of blocks, and a closing it at m = 2."""
    if not is_abelian(G):
        raise NotAbelian(f"{G!r} is not abelian")
    return _block_cycle_table(G, m, (a, b), a, G.mul(a, b), a if m == 2 else b)


def nonabelian_connection_table(G: Group, a, b, m: int) -> ConnectionTable:
    """Table for a non-abelian two-generated group: a on every diagonal,
    b closing the cycle of blocks."""
    if is_abelian(G):
        raise IsAbelian(f"{G!r} is abelian")
    return _block_cycle_table(G, m, (a, b), a, a, b)


def circulant_table(m: int) -> ConnectionTable:
    """The trivial group's table of the circulant C_m(1, 2), i -> i+1, i+2
    (mod m): oriented and 2-regular for m >= 5, the base that
    `spanning_tree_lift_table` lifts to Z2 and the Klein four-group."""
    if m < LIFT_MIN_M:
        raise InputError(f"the circulant C_m(1, 2) is oriented only for m >= {LIFT_MIN_M}")
    return ConnectionTable(m, {(i, (i + d) % m): {0} for i in range(m) for d in (1, 2)})


def rigid_trivial_table(m: int) -> ConnectionTable:
    """Oriented 2-regular table of the trivial group whose digraph has no
    automorphism but the identity, for m >= 7, built as its 2m non-empty
    cells: those of `circulant_table`, with rows 0..3 sent to {2, 3},
    {3, 4}, {1, 4} and {2, 5}.

    The engine finds |Aut| = 1 for every m = 7..512 (the vertex cap) and
    networkx agrees for m = 7..60.  No such table exists for m <= 6.
    """
    if m < RIGID_MIN_M:
        raise InputError(f"the rigid trivial-group table needs m >= {RIGID_MIN_M}")
    rows = {0: (2, 3), 1: (3, 4), 2: (1, 4), 3: (2, 5)}
    return ConnectionTable(m, {(i, j): {0} for i in range(m)
                               for j in rows.get(i, ((i + 1) % m, (i + 2) % m))})


def spanning_tree_lift_table(G: Group, a, b, base: ConnectionTable) -> ConnectionTable:
    """Lift of a trivial-group table to G: a on the first arc outside a BFS
    spanning tree of the base's underlying graph, b on the second, and the
    identity on every other arc.

    The lift keeps the base's orientation and valency.  The arcs outside
    the tree carry the voltages of a basis of closed walks, so the lifted
    digraph is connected when a and b generate G.
    """
    m = base.m
    arcs = list(base.entries)
    around = [[] for _ in range(m)]
    for i, j in arcs:
        around[i].append(((i, j), j))
        around[j].append(((i, j), i))
    tree, seen, queue = set(), {0}, [0]
    for u in queue:
        for arc, v in around[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
                tree.add(arc)
    volts = dict(zip([arc for arc in arcs if arc not in tree], (a, b)))
    return ConnectionTable(m, {arc: {volts.get(arc, 0)} for arc in arcs})


def recipe_table(G: Group, pair: Optional[GeneratingPair], m: int,
                 kind: str = "auto") -> Optional[Tuple[ConnectionTable, str]]:
    """The table of recipe ``kind`` for (G, m) and its construction kind.

    "auto" picks "cyclic", "abelian" or "nonabelian" by structure, and
    alone uses the closed tables: `rigid_trivial_table` for Z1 at m >= 7
    and the spanning-tree lift of `circulant_table` for Z2 and the Klein
    four-group at m >= 5 (they have no element of order >= 3), and None
    below that.  The two-generator recipes take the pair of
    `normalize_generating_pair`; the abelian one swaps b for ab when ab is
    an involution, so its diagonal word ab has order >= 3.  An explicit
    kind never substitutes another table, and raises when its recipe does
    not apply to G.  A digraph past the engine's vertex cap is refused
    with TooLarge before any table is built.
    """
    if m < 2:
        raise InputError("m must be at least 2")
    if kind not in RECIPES:
        raise UnknownFamily(f"unknown recipe {kind!r}")
    if G.order * m > VERTEX_CAP:
        raise TooLarge(f"{G.order * m} vertices exceeds cap {VERTEX_CAP}")
    if pair is None:
        pair = find_generating_pair(G)
    if kind == "auto":
        if G.order == 1:
            return (rigid_trivial_table(m), KIND_RIGID_TRIVIAL) if m >= RIGID_MIN_M else None
        if G.order == 2 or _is_klein_four(G):
            if m < LIFT_MIN_M:
                return None
            b = pair.b if pair.b is not None else 0
            return spanning_tree_lift_table(G, pair.a, b, circulant_table(m)), KIND_LIFT
        kind = "cyclic" if is_cyclic(G) else "abelian" if is_abelian(G) else "nonabelian"
    if kind == "cyclic":
        a = pair.a
        if element_order(G, a) != G.order:
            a = next((g for g in G.elements()
                      if element_order(G, g) == G.order), a)
        return cyclic_connection_table(G, a, m), KIND_CYCLIC
    if pair.b is None:
        raise NotGenerating(f"{G!r}: this recipe needs a two-element generating pair")
    a, b = normalize_generating_pair(G, pair.a, pair.b)
    if kind == "nonabelian":
        return nonabelian_connection_table(G, a, b, m), KIND_NONABELIAN
    ab = G.mul(a, b)
    if element_order(G, ab) == 2:
        # Then o(a * ab) >= 3: were ab and a^2 b both involutions, a would be
        # a product of two commuting involutions, of order at most 2.
        b = ab
    return abelian_connection_table(G, a, b, m), KIND_ABELIAN


def _is_klein_four(G: Group) -> bool:
    return G.order == 4 and all(G.mult[x][x] == 0 for x in G.elements())


def default_witness_dir() -> str:
    return os.environ.get(
        "OMSR_WITNESS_DIR",
        os.path.join(os.path.dirname(__file__), "witnesses"),
    )


def _witness_path(G: Group, m: int, witness_dir: str) -> str:
    """Cache file of G's witness.  Z2 and the Klein four-group are named by
    structure, not by label: every relabelling of them that fixes the
    identity is a group automorphism, so a cached table fits any
    presentation of the group (the catalog labels the Klein four-group
    `Z2^2`; the packaged files say `Z2xZ2`).  The loader re-verifies it."""
    if G.order == 2 or _is_klein_four(G):
        label = "Z2" if G.order == 2 else "Z2xZ2"
    else:
        label = G.label.replace("/", "_").replace("^", "e")
    return os.path.join(witness_dir, f"{label}_m{m}_v{VALENCY}.table")


def _load_cached_witness(G: Group, m: int, witness_dir: str):
    path = _witness_path(G, m, witness_dir)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            table = parse_connection_table(fh.read())
    except (OSError, ValueError) as exc:  # a ParseError is a ValueError
        warnings.warn(f"skipping unreadable witness cache file {path}: {exc}")
        return None
    if table.m != m:
        return None
    try:
        table.validate(G)
    except ValueError:
        return None
    return table


def _store_witness(G: Group, m: int, witness_dir: str, table: ConnectionTable) -> None:
    """Write the witness atomically: a temp file in the same directory, then
    os.replace, so a reader never sees a half-written file."""
    tmp = None
    try:
        os.makedirs(witness_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=witness_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(table.to_text())
        os.replace(tmp, _witness_path(G, m, witness_dir))
    except OSError:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)  # cache is best effort


def _searched_witness(G: Group, m: int):
    """A cached or searched witness with its report, or the `SweepResult`
    of a scan that found none: the NOT_EXISTS certificate."""
    witness_dir = default_witness_dir()
    cached = _load_cached_witness(G, m, witness_dir)
    if cached is not None:
        report = verify_table(G, cached, KIND_SEARCH)
        if report.omsr:
            return cached, report
    table, result = sweeplib.find_witness(G, m)
    if table is None:
        return result
    report = verify_table(G, table, KIND_SEARCH)
    _store_witness(G, m, witness_dir, table)
    return table, report


def construct_omsr(G: Group, pair: Optional[GeneratingPair], m: int, kind: str = "auto"
                   ) -> Union[Tuple[ConnectionTable, VerificationReport], sweeplib.SweepResult]:
    """Dispatch: a witness table with its report, or a certified exception.

    Verifies the table of `recipe_table` for ``kind`` by `verify_table`,
    which builds its digraph only where the certificate does not close.
    Under "auto", where no recipe applies (Z1 below m = 7, Z2 and the Klein
    four-group below m = 5) or, inside the sweep's feasibility guard, its
    digraph is not an OmSR, the witness search decides, with the witness
    cache in `default_witness_dir`.  Its exhausted scan certifies the
    exceptions, the trivial group with m <= 6, Z2 with m <= 3 and the Klein
    four-group with m = 2, and its `SweepResult` comes back as the
    certificate.  An explicit kind, or a table past the guard, comes back
    with its report whatever the verdict.
    """
    recipe = recipe_table(G, pair, m, kind)
    if recipe is not None:
        table, recipe_kind = recipe
        report = verify_table(G, table, recipe_kind)
        if report.omsr or kind != "auto" or not sweeplib.feasibility_guard(G, m):
            return table, report
    return _searched_witness(G, m)
