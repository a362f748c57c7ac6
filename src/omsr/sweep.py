"""Exhaustive enumeration of connection tables with valency constraints.

A table qualifies when every block row and block column has total size
equal to the requested valency; those are exactly the tables whose
digraphs are in- and out-regular of that valency.  Backtracking over
cells with running column budgets prunes the space.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from .automorphisms import aut_order_bounded, automorphisms
from .digraphs import ConnectionTable, build_mcayley, oriented_table_criterion
from .errors import InfeasibleSweep, SearchBudgetExceeded
from .groups import Group

GUARD_PRODUCT = 16
GUARD_TRIVIAL_M = 10
WITNESS_BUDGET = 500_000
LIFT_ATTEMPTS = 5000


@dataclass
class SweepResult:
    group_label: str
    m: int
    valency: int
    tables_enumerated: int
    oriented_count: int
    witnesses: List[ConnectionTable]
    verdict: str
    max_aut_order_seen: int = 0
    runtime_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "group": self.group_label,
            "m": self.m,
            "valency": self.valency,
            "tables_enumerated": self.tables_enumerated,
            "oriented_count": self.oriented_count,
            "witness_count": len(self.witnesses),
            "witnesses": [w.to_text() for w in self.witnesses],
            "verdict": self.verdict,
            "max_aut_order_seen": self.max_aut_order_seen,
            "runtime_ms": round(self.runtime_ms, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def enumerate_tables(G: Group, m: int, valency: int,
                     rng: Optional[random.Random] = None) -> Iterator[tuple]:
    """All m x m families of subsets of G with every row and column total
    equal to the valency.  Yields tuples of tuples of frozensets.

    With an rng, choice order at every branch point is shuffled; the set of
    yielded tables is unchanged.
    """
    n = G.order
    maxcell = min(valency, n)
    subsets = {s: [frozenset(c) for c in itertools.combinations(range(n), s)]
               for s in range(maxcell + 1)}
    colrem = [valency] * m
    current = [[frozenset()] * m for _ in range(m)]

    def fill_cell(i, j, rowrem):
        if j == m:
            if rowrem == 0:
                yield from fill_row(i + 1)
            return
        cap_rest = sum(min(colrem[jj], n) for jj in range(j + 1, m))
        smax = min(rowrem, colrem[j], n)
        sizes = [s for s in range(smax + 1) if rowrem - s <= cap_rest]
        if rng is not None:
            rng.shuffle(sizes)
        for s in sizes:
            choices = subsets[s]
            if rng is not None and s:
                choices = list(choices)
                rng.shuffle(choices)
            colrem[j] -= s
            for sub in choices:
                current[i][j] = sub
                yield from fill_cell(i, j + 1, rowrem - s)
            colrem[j] += s
            current[i][j] = frozenset()

    def fill_row(i):
        if i == m:
            yield tuple(tuple(row) for row in current)
            return
        if any(colrem[j] > (m - i) * n for j in range(m)):
            return
        yield from fill_cell(i, 0, valency)

    yield from fill_row(0)


def feasibility_guard(G: Group, m: int,
                      guard_product: int = GUARD_PRODUCT,
                      guard_trivial_m: int = GUARD_TRIVIAL_M) -> bool:
    return G.order * m <= guard_product or (G.order == 1 and m <= guard_trivial_m)


def exhaustive_sweep(G: Group, m: int, valency: int = 2,
                     all_witnesses: bool = False,
                     guard_product: int = GUARD_PRODUCT,
                     guard_trivial_m: int = GUARD_TRIVIAL_M) -> SweepResult:
    """Enumerate every constrained table, filter oriented ones, and collect
    the tables whose digraphs have automorphism group of order exactly |G|.

    Stops at the first witness unless all_witnesses is set; a NOT_EXISTS
    verdict always reflects the full enumeration.
    """
    if not feasibility_guard(G, m, guard_product, guard_trivial_m):
        raise InfeasibleSweep(
            f"|G|*m = {G.order * m} exceeds guard {guard_product} "
            f"(trivial-group limit m <= {guard_trivial_m})")
    start = time.perf_counter()
    enumerated = 0
    oriented = 0
    max_aut = 0
    witnesses: List[ConnectionTable] = []
    for sets in enumerate_tables(G, m, valency):
        enumerated += 1
        table = ConnectionTable(m, sets)
        if not oriented_table_criterion(G, table):
            continue
        oriented += 1
        gamma = build_mcayley(G, table)
        order = automorphisms(gamma).order
        max_aut = max(max_aut, order)
        if order == G.order:
            witnesses.append(table)
            if not all_witnesses:
                break
    witnesses.sort(key=lambda t: t.to_text())
    return SweepResult(
        group_label=G.label or f"order-{G.order}",
        m=m,
        valency=valency,
        tables_enumerated=enumerated,
        oriented_count=oriented,
        witnesses=witnesses,
        verdict="EXISTS" if witnesses else "NOT_EXISTS",
        max_aut_order_seen=max_aut,
        runtime_ms=(time.perf_counter() - start) * 1000.0,
    )


def _lift_witness(G: Group, m: int, valency: int,
                  attempts: int = LIFT_ATTEMPTS):
    """Witness by voltage lift of a rigid trivial-group witness digraph.

    A trivial-group witness at the same m is a 2-regular oriented digraph
    on m vertices with trivial automorphism group.  Placing one group
    element on each of its arcs yields an m-Cayley table whose digraph is
    automatically oriented and regular; when the assignment makes it
    connected, block-preserving automorphisms are exactly the right
    translations, so most random assignments already have |Aut| = |G|.
    Returns (table, digraph) or None.
    """
    if G.order == 1 or m < 7 or valency != 2:
        return None
    trivial = Group(mult=((0,),), inv=(0,), label="Z1")
    base_table, _, _ = find_witness(trivial, m, valency=valency)
    if base_table is None:
        return None
    arcs = [(i, j) for i in range(m) for j in range(m) if base_table.sets[i][j]]
    rng = random.Random(G.order * 1009 + m)
    from .digraphs import is_connected
    for _ in range(attempts):
        volt = {arc: rng.randrange(G.order) for arc in arcs}
        sets = tuple(tuple(frozenset([volt[(i, j)]]) if (i, j) in volt
                           else frozenset() for j in range(m))
                     for i in range(m))
        table = ConnectionTable(m, sets)
        gamma = build_mcayley(G, table)
        if not is_connected(gamma):
            continue
        if aut_order_bounded(gamma, G.order) == G.order:
            return table, gamma
    return None


def find_witness(G: Group, m: int, valency: int = 2,
                 budget: int = WITNESS_BUDGET):
    """First witness table in the deterministic enumeration order.

    Returns (table, digraph, stats).  When the whole space is exhausted
    without a witness, returns (None, None, stats) — the stats then certify
    non-existence: every table was examined, and ``max_aut_order_seen`` is
    the exact largest |Aut| over the oriented ones.  When the budget runs
    out with tables still unexamined, a seeded voltage-lift search (see
    _lift_witness) is tried before raising SearchBudgetExceeded.

    Structured witnesses sit very early in lexicographic order, far earlier
    than under shuffled exploration, so no randomization is used in the
    main scan.
    """
    rng = None
    stats = {"examined": 0, "oriented": 0, "max_aut_order_seen": 0}
    for sets in enumerate_tables(G, m, valency, rng=rng):
        stats["examined"] += 1
        if stats["examined"] > budget:
            lifted = _lift_witness(G, m, valency)
            if lifted is not None:
                table, gamma = lifted
                stats["oriented"] += 1
                stats["max_aut_order_seen"] = max(
                    stats["max_aut_order_seen"], G.order)
                return table, gamma, stats
            raise SearchBudgetExceeded(
                f"no witness for {G!r} m={m} within {budget} tables")
        table = ConnectionTable(m, sets)
        if not oriented_table_criterion(G, table):
            continue
        stats["oriented"] += 1
        gamma = build_mcayley(G, table)
        order = automorphisms(gamma).order
        stats["max_aut_order_seen"] = max(stats["max_aut_order_seen"], order)
        if order == G.order:
            return table, gamma, stats
    return None, None, stats
