"""Exhaustive enumeration of connection tables with valency constraints.

A table qualifies when every block row and block column has total size
equal to the requested valency; those are exactly the tables whose
digraphs are in- and out-regular of that valency.  Cells are filled in
row-major order, and a cell is rejected as soon as orientation can be
checked on it, so only oriented tables are walked.  A rejected subtree is
counted, not walked: how many tables complete a partial one depends only
on cell sizes, which a memoised recursion counts.  So each yielded table
keeps its 1-based position among all constrained tables.

|Aut| is the same on every table in an orbit of G^m x| S_m, extended by the
converse map (see `_table_moves`).  An all-witness scan visits every
oriented table, so it calls the engine on the first table of each orbit,
closes that orbit, and reads the other members from a memo.  First-stop
scans call the engine on every table they reach.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .automorphisms import automorphisms
from .digraphs import ConnectionTable, build_mcayley
from .errors import InfeasibleSweep, SearchBudgetExceeded
from .groups import Group, generating_set

GUARD_PRODUCT = 16
GUARD_TRIVIAL_M = 10
WITNESS_BUDGET = 500_000


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


@functools.lru_cache(maxsize=None)
def _completions(n: int, valency: int, rows: int, rowrem: int,
                 done: tuple, todo: tuple) -> int:
    """Number of ways to finish a partially filled table.

    The current row still has ``rowrem`` elements to place, in the cells
    whose columns have budgets ``todo``; ``done`` are the budgets of the
    columns it has passed, and ``rows`` full rows follow.  A cell of size s
    has C(n, s) fillings.  The count is symmetric in the columns of ``todo``
    and of ``done``, so both are passed sorted, which keeps the memo small.
    """
    if not todo:
        if rowrem:
            return 0
        if not rows:
            return int(not any(done))
        return _completions(n, valency, rows - 1, valency, (), done)
    budget, rest = todo[0], todo[1:]
    return sum(math.comb(n, s) * _completions(n, valency, rows, rowrem - s,
                                               tuple(sorted(done + (budget - s,))), rest)
               for s in range(min(rowrem, budget) + 1))


def count_tables(n: int, m: int, valency: int) -> int:
    """Number of m x m tables over a group of order n whose every row and
    column total equals the valency."""
    return _completions(n, valency, m - 1, valency, (), (valency,) * m)


def enumerate_tables(G: Group, m: int, valency: int) -> Iterator[Tuple[int, tuple]]:
    """The oriented m x m families of subsets of G with every row and column
    total equal to the valency, as ``(position, sets)``.

    ``sets`` is a tuple of tuples of frozensets.  ``position`` is the
    table's 1-based index, in lexicographic order, among all tables meeting
    the valency constraint, oriented or not.  A diagonal cell may not hold
    the identity or meet its own inverse set; a cell (i, j) below the
    diagonal may not meet T[j][i]^-1.  Each rejected cell advances the
    position by the number of tables under it, and a cell no table can
    complete is never entered.
    """
    n = G.order
    # Per size: (subset, its inverse set, allowed on the diagonal).
    subsets = {}
    for s in range(min(valency, n) + 1):
        cells = []
        for combo in itertools.combinations(range(n), s):
            sub = frozenset(combo)
            sub_inv = frozenset(G.inv[t] for t in combo)
            cells.append((sub, sub_inv, 0 not in sub and not sub & sub_inv))
        subsets[s] = cells
    colrem = [valency] * m
    current = [[frozenset()] * m for _ in range(m)]
    position = 0

    def fill_cell(i, j, rowrem):
        nonlocal position
        if j == m:
            if i + 1 < m:
                yield from fill_cell(i + 1, 0, valency)
            else:
                position += 1
                yield position, tuple(tuple(row) for row in current)
            return
        partner = current[j][i] if j < i else None
        later = tuple(sorted(colrem[j + 1:]))
        for s in range(min(rowrem, colrem[j], n) + 1):
            colrem[j] -= s
            below = _completions(n, valency, m - 1 - i, rowrem - s,
                                 tuple(sorted(colrem[:j + 1])), later)
            if below:
                for sub, sub_inv, diagonal_ok in subsets[s]:
                    if (diagonal_ok if i == j
                            else partner is None or not sub_inv & partner):
                        current[i][j] = sub
                        yield from fill_cell(i, j + 1, rowrem - s)
                    else:
                        position += below
            colrem[j] += s
        current[i][j] = frozenset()

    yield from fill_cell(0, 0, valency)


def _table_moves(G: Group, m: int) -> List[Tuple[tuple, tuple, bool]]:
    """Generators of G^m x| S_m, with the converse, as (h, sigma, converse).

    (h, sigma) relabels vertex (x, i) of ``build_mcayley(G, T)`` as
    (h_i * x, sigma(i)).  Arcs run (x, i) -> (t * x, j), so the image is the
    digraph of T'[sigma(i)][sigma(j)] = h_j T[i][j] h_i^-1.  A gauge h_0 = g
    for each g of a generating set, the transposition (0 1) and the m-cycle
    generate the group.  The converse T'[j][i] = T[i][j]^-1 reverses every
    arc under the identity map.  Every move keeps |Aut|, orientation and
    the row and column totals.
    """
    blocks = tuple(range(m))
    ident = (0,) * m
    moves = [((g,) + ident[1:], blocks, False) for g in generating_set(G)]
    if m > 1:
        swap, cycle = (1, 0) + blocks[2:], blocks[1:] + (0,)
        moves += [(ident, sigma, False) for sigma in dict.fromkeys((swap, cycle))]
    return moves + [(ident, blocks, True)]


class _MaskImage(dict):
    """Bit mask of a cell -> bit mask of its image under an element map."""

    def __init__(self, image):
        super().__init__()
        self.image = image

    def __missing__(self, mask):
        out = 0
        for t, x in enumerate(self.image):
            if mask >> t & 1:
                out |= 1 << x
        self[mask] = out
        return out


class _OrbitMemo:
    """|Aut| of tables already reached from a measured one by the moves of
    `_table_moves`.  A table is keyed by one bit mask per cell, row-major.
    Each table of a scan is popped once, so the memo holds only the members
    of the orbits still open."""

    def __init__(self, G: Group, m: int):
        n, images = G.order, {}
        self._masks = {}
        self._memo = {}
        self._moves = []
        for h, sigma, converse in _table_moves(G, m):
            move = [None] * (m * m)
            for i, j in itertools.product(range(m), repeat=2):
                image = tuple(G.mult[G.mult[h[j]][t]][G.inv[h[i]]] for t in range(n))
                a, b = sigma[i], sigma[j]
                if converse:
                    image, a, b = tuple(G.inv[x] for x in image), b, a
                move[a * m + b] = (i * m + j, images.setdefault(image, _MaskImage(image)))
            self._moves.append(move)

    def key(self, sets) -> tuple:
        masks = self._masks
        out = []
        for row in sets:
            for cell in row:
                if cell not in masks:
                    masks[cell] = sum(1 << t for t in cell)
                out.append(masks[cell])
        return tuple(out)

    def images(self, key) -> List[tuple]:
        """The key's image under each move of `_table_moves`, in order."""
        return [tuple([f[key[src]] for src, f in move]) for move in self._moves]

    def orbit(self, key) -> set:
        seen, queue = {key}, [key]
        for current in queue:
            for image in self.images(current):
                if image not in seen:
                    seen.add(image)
                    queue.append(image)
        return seen

    def pop(self, sets) -> Optional[int]:
        return self._memo.pop(self.key(sets), None)

    def record(self, sets, order: int) -> None:
        """Store order for every other member of the table's orbit."""
        key = self.key(sets)
        self._memo.update(dict.fromkeys(self.orbit(key) - {key}, order))


def feasibility_guard(G: Group, m: int) -> bool:
    return G.order * m <= GUARD_PRODUCT or (G.order == 1 and m <= GUARD_TRIVIAL_M)


def _scan(G: Group, m: int, valency: int, first_only: bool,
          budget: Optional[int] = None):
    """The one enumeration driver behind `exhaustive_sweep` and `find_witness`.

    Computes |Aut| of the digraph of every oriented table in enumeration
    order and collects the tables with |Aut| = |G|, stopping at the first
    one when ``first_only`` is set.  Without ``first_only`` every table is
    visited, so each orbit's |Aut| is measured once and memoised.  Returns
    (witness tables, digraph of the first witness or None, stats).  The
    first witness is always the first table of its orbit, so it has a
    digraph.  ``stats["examined"]`` is the position
    of the table the scan stopped at, or the number of constrained tables
    when it ran to the end, or ``budget + 1`` when it would have passed the
    budget; ``oriented`` and ``max_aut_order_seen`` cover the same tables.
    A negative valency raises ValueError: no table meets it, and an empty
    scan would read as a certified NOT_EXISTS.
    """
    if valency < 0:
        raise ValueError(f"valency must be >= 0, got {valency}")
    stats = {"examined": 0, "oriented": 0, "max_aut_order_seen": 0}
    witnesses: List[ConnectionTable] = []
    first_gamma = None
    memo = None if first_only else _OrbitMemo(G, m)
    for position, sets in enumerate_tables(G, m, valency):
        if budget is not None and position > budget:
            stats["examined"] = budget + 1
            return witnesses, first_gamma, stats
        stats["oriented"] += 1
        table = gamma = None
        order = memo.pop(sets) if memo is not None else None
        if order is None:
            table = ConnectionTable(m, sets)
            gamma = build_mcayley(G, table)
            order = automorphisms(gamma).order
            if memo is not None:
                memo.record(sets, order)
        stats["max_aut_order_seen"] = max(stats["max_aut_order_seen"], order)
        if order == G.order:
            witnesses.append(table or ConnectionTable(m, sets))
            if first_gamma is None:
                first_gamma = gamma
            if first_only:
                stats["examined"] = position
                return witnesses, first_gamma, stats
    total = count_tables(G.order, m, valency)
    stats["examined"] = total if budget is None else min(total, budget + 1)
    return witnesses, first_gamma, stats


def exhaustive_sweep(G: Group, m: int, valency: int = 2,
                     all_witnesses: bool = False) -> SweepResult:
    """Enumerate every constrained table and collect the oriented ones whose
    digraphs have automorphism group of order exactly |G|.

    Stops at the first witness unless all_witnesses is set; a NOT_EXISTS
    verdict always reflects the full enumeration.  With all_witnesses the
    engine runs once per orbit of G^m x| S_m with the converse, and every
    other table of the orbit takes that |Aut| through an explicit
    isomorphism; the witnesses and counts are those of one engine call per
    table.
    """
    if not feasibility_guard(G, m):
        raise InfeasibleSweep(
            f"|G|*m = {G.order * m} exceeds guard {GUARD_PRODUCT} "
            f"(trivial-group limit m <= {GUARD_TRIVIAL_M})")
    start = time.perf_counter()
    witnesses, _, stats = _scan(G, m, valency, first_only=not all_witnesses)
    witnesses.sort(key=lambda t: t.to_text())
    return SweepResult(
        group_label=G.label or f"order-{G.order}",
        m=m,
        valency=valency,
        tables_enumerated=stats["examined"],
        oriented_count=stats["oriented"],
        witnesses=witnesses,
        verdict="EXISTS" if witnesses else "NOT_EXISTS",
        max_aut_order_seen=stats["max_aut_order_seen"],
        runtime_ms=(time.perf_counter() - start) * 1000.0,
    )


def find_witness(G: Group, m: int, valency: int = 2,
                 budget: int = WITNESS_BUDGET):
    """First witness table in the deterministic enumeration order.

    Returns (table, digraph, stats).  When the whole space is exhausted
    without a witness, returns (None, None, stats) — the stats then certify
    non-existence: every table was examined, and ``max_aut_order_seen`` is
    the exact largest |Aut| over the oriented ones.  Raises
    SearchBudgetExceeded when the budget runs out with tables still
    unexamined.

    Structured witnesses sit very early in lexicographic order, so the scan
    follows that order.
    """
    witnesses, gamma, stats = _scan(G, m, valency, first_only=True, budget=budget)
    if witnesses:
        return witnesses[0], gamma, stats
    if stats["examined"] > budget:
        raise SearchBudgetExceeded(
            f"no witness for {G!r} m={m} within {budget} tables")
    return None, None, stats
