"""Exhaustive enumeration of the connection tables of valency two.

A table qualifies when every block row and block column has total size
`VALENCY` = 2; those are exactly the tables whose digraphs are in- and
out-regular of valency two.  Cells are filled in row-major order, and a
cell is rejected as soon as orientation can be checked on it, so only
oriented tables are walked.  A rejected subtree is counted, not walked:
how many tables complete a partial one depends only on how many columns
still take 2 elements and how many take 1, over the whole table and over
the current row's later columns, and a memoised recurrence on those four
counts gives it.  So each yielded table keeps its 1-based position among
all constrained tables.

`exhaustive_sweep` is the one scan, and its witnesses come back in
enumeration order; `find_witness` is its first-stop form.  |Aut| is the
same on every table in an orbit of (G^m x| S_m) x| Aut(G), extended by
the converse map (see `_table_moves`): the group automorphisms act cell
by cell, and on OmSRs the orbits without the converse are the
isomorphism classes, by the m-block form of Babai's Cayley-isomorphism
argument (*Isomorphism problem for a class of point-symmetric
structures*, 1977).  Every scan applies one rule, the cheap local test of
isomorph-free generation (McKay, *Isomorph-free exhaustive generation*,
J. Algorithms 1998): the engine runs only on a table that no single move
sends to an earlier one, and the scan records its verdict, |Aut| = |G|.
The walk also applies that test to each finished row prefix, under the
moves that keep its rows in place.  Such a move maps the subtree of the
prefix one-to-one onto that of an earlier prefix, so the subtree is
counted, not walked: it holds no new |Aut|, as many oriented tables as the
earlier one, read from a memo (`_PrefixMemo`), and as its witnesses one
segment: the earlier subtree's, mapped back through the move's inverse.
A table with no earlier image lies in no skipped subtree, since the
skipping move would give it one, so the engine runs on the same tables.

The witness rule: any other reached table has the |Aut| of its earlier
image, so the scan follows earlier images until a table has none.  That
table comes earlier and lies in no skipped subtree, so the engine measured
it, and its verdict decides.  Until the scan records a witness every
verdict so far failed, so the answer is "not a witness" with no chain
followed: first-stop and NOT_EXISTS scans follow none.  So the witnesses
(`_Witnesses`), the oriented count and the largest |Aut| are those of one
engine call per table.

Every scan runs inside the feasibility guard, |G|*m <= `GUARD_PRODUCT`,
which bounds neither the number of tables nor of witnesses; the
first-stop scans it admits end within seconds, up to Z1 at m = 16.  An
all-witness scan counts its witnesses in one part per walked witness or
skipped segment: Z4 at m = 4 (1,582,080) took 3.2 s and 34 MB on a 2-core
x86-64 host, Z2 at m = 6 (11,543,040) 5.3 s and 44 MB.  Reading them
builds every key: 312 MB on Z4 at m = 4.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .automorphisms import VALENCY, automorphisms
from .digraphs import ConnectionTable, build_mcayley
from .errors import InfeasibleSweep
from .groups import Group, automorphism_generators, generating_set

GUARD_PRODUCT = 16


@dataclass
class SweepResult:
    group_label: str
    m: int
    tables_enumerated: int
    oriented_count: int
    witnesses: Sequence[ConnectionTable]
    verdict: str
    max_aut_order_seen: int = 0
    runtime_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "group": self.group_label,
            "m": self.m,
            "valency": VALENCY,
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
def _completions(n: int, rowrem: int, a: int, b: int, a2: int, b1: int) -> int:
    """Number of ways to finish a partially filled table of valency two.

    Of all columns, ``a`` still take 2 elements and ``b`` take 1.  The
    current row places its last ``rowrem`` elements in its later columns,
    of which ``a2`` take 2 and ``b1`` take 1; a finished row passes 0 for
    both, and the next row starts on every column.  A cell of size s has
    C(n, s) fillings.  A row's 2 elements form one cell of size 2 or two
    cells of size 1, so each step has at most four terms.
    """
    if not rowrem:
        if not a and not b:
            return 1
        rowrem, a2, b1 = VALENCY, a, b
    if rowrem == 1:
        terms = [(n * a2, a - 1, b + 1), (n * b1, a, b - 1)]
    else:
        terms = [(math.comb(n, 2) * a2, a - 1, b),
                 (n * n * math.comb(a2, 2), a - 2, b + 2),
                 (n * n * a2 * b1, a - 1, b),
                 (n * n * math.comb(b1, 2), a, b - 2)]
    return sum(ways * _completions(n, 0, a_left, b_left, 0, 0)
               for ways, a_left, b_left in terms if ways)


def count_tables(n: int, m: int) -> int:
    """Number of m x m tables over a group of order n whose every row and
    column total equals the valency."""
    return _completions(n, 0, m, 0, 0, 0)


def _cell_order(n: int) -> List[frozenset]:
    """Every cell value in the order `enumerate_tables` tries them: by size,
    then as ``itertools.combinations``."""
    return [frozenset(combo) for s in range(min(VALENCY, n) + 1)
            for combo in itertools.combinations(range(n), s)]


def enumerate_tables(G: Group, m: int,
                     prefixes: Optional["_PrefixMemo"] = None) -> Iterator[Tuple[int, tuple]]:
    """The oriented m x m families of subsets of G with every row and column
    total equal to the valency, as ``(position, sets)``.

    ``sets`` is a tuple of tuples of frozensets.  ``position`` is the
    table's 1-based index, in lexicographic order, among all tables meeting
    the valency constraint, oriented or not.  A diagonal cell may not hold
    the identity or meet its own inverse set; a cell (i, j) below the
    diagonal may not meet T[j][i]^-1.  Each rejected cell advances the
    position by the number of tables under it, and a cell no table can
    complete is never entered.

    `exhaustive_sweep` passes ``prefixes``, and the walk records the
    oriented count and the range of witness positions under every finished
    row prefix; the scan adds each witness it finds before the walk resumes.
    Once an oriented table is reached, each finished prefix that
    `_PrefixMemo.skip` accepts is counted, not walked: the position
    advances past its subtree, whose oriented tables are then never
    yielded; before it, no subtree holds one.  Without ``prefixes`` every
    oriented table is yielded.
    """
    n = G.order
    # Per size: (subset, its rank, its inverse set, allowed on the diagonal).
    subsets = {s: [] for s in range(min(VALENCY, n) + 1)}
    for rank, sub in enumerate(_cell_order(n)):
        sub_inv = frozenset(G.inv[t] for t in sub)
        subsets[len(sub)].append((sub, rank, sub_inv, 0 not in sub and not sub & sub_inv))
    colrem = [VALENCY] * m
    current = [[frozenset()] * m for _ in range(m)]
    ranks = [0] * (m * m)  # row-major cell ranks of ``current``, as _RankedMoves codes them
    position = reached = 0  # reached: oriented tables yielded or counted

    def fill_cell(i, j, rowrem):
        nonlocal position, reached
        if j == m:
            if i + 1 == m:
                position += 1
                reached += 1
                yield position, tuple(tuple(row) for row in current)
                return
            if prefixes is not None:
                key = tuple(ranks[:(i + 1) * m])
                count = prefixes.skip(key, i) if reached else None
                if count is not None:
                    position += _completions(n, 0, colrem.count(2), colrem.count(1), 0, 0)
                    reached += count
                    return
                start, begin = reached, prefixes.size
            yield from fill_cell(i + 1, 0, VALENCY)
            if prefixes is not None:
                prefixes.subtrees[key] = reached - start, begin, prefixes.size
            return
        partner = current[j][i] if j < i else None
        later = colrem[j + 1:]
        a2, b1 = later.count(2), later.count(1)
        for s in range(min(rowrem, colrem[j], n) + 1):
            colrem[j] -= s
            below = _completions(n, rowrem - s, colrem.count(2), colrem.count(1), a2, b1)
            if below:
                for sub, rank, sub_inv, diagonal_ok in subsets[s]:
                    if (diagonal_ok if i == j
                            else partner is None or not sub_inv & partner):
                        current[i][j] = sub
                        ranks[i * m + j] = rank
                        yield from fill_cell(i, j + 1, rowrem - s)
                    else:
                        position += below
            colrem[j] += s
        current[i][j] = frozenset()

    yield from fill_cell(0, 0, VALENCY)


def _table_moves(G: Group, m: int) -> list:
    """Moves of (G^m x| S_m) x| Aut(G), with the converse, as
    (h, sigma, alpha, converse), ``alpha`` an element map.

    (h, sigma, alpha) relabels vertex (x, i) of ``build_mcayley(G, T)`` as
    (alpha(h_i * x), sigma(i)).  Arcs run (x, i) -> (t * x, j), so the image
    is the digraph of T'[sigma(i)][sigma(j)] = alpha(h_j T[i][j] h_i^-1).
    The converse T'[j][i] = T[i][j]^-1 reverses every arc under the
    identity map, and a move with ``converse`` set applies it after
    (h, sigma, alpha).  Every move keeps |Aut|, orientation and the row and
    column totals.

    The list holds the gauge h_i = g for every block i and every g of a
    generating set, every block transposition, the m-cycle and every
    automorphism of `automorphism_generators`, each alone and followed by
    the converse, and then the converse alone.  Only a gauge or an
    automorphism, not followed by the converse, keeps every row in place.
    """
    blocks = tuple(range(m))
    ident, same = (0,) * m, tuple(range(G.order))
    gauges = [(ident[:i] + (g,) + ident[i + 1:], blocks, same)
              for i in blocks for g in generating_set(G)]
    swaps = [(ident, tuple(j if b == i else i if b == j else b for b in blocks), same)
             for i, j in itertools.combinations(blocks, 2)]
    cycle = [(ident, blocks[1:] + blocks[:1], same)] if m > 2 else []
    autos = [(ident, blocks, alpha) for alpha in automorphism_generators(G)]
    moves = [(h, sigma, alpha, c) for c in (False, True)
             for h, sigma, alpha in gauges + swaps + cycle + autos]
    return moves + [(ident, blocks, same, True)]


class _RankedMoves:
    """The moves of `_table_moves` on rank-coded tables.

    A cell's rank is its subset's index in ``cells``, the order in which
    `enumerate_tables` tries cells: by size, then as
    ``itertools.combinations``.  A table's key is the row-major tuple of its
    cell ranks, so keys compare exactly as enumeration positions do.  A
    coded move lists, for each target cell in row-major order, its source
    cell and the rank map of the cell-wise element map between them,
    t -> alpha(h_j t h_i^-1), inverted after the converse.  Rank maps are
    memoised on the element map alpha with h_i, h_j and the converse flag,
    so each is ranked once for all the cells and moves that share it.
    """

    def __init__(self, G: Group, m: int):
        n, mult, inv = G.order, G.mult, G.inv
        self.cells = _cell_order(n)
        self._rank = {sub: r for r, sub in enumerate(self.cells)}
        rank_maps = {}
        moves = _table_moves(G, m)
        self.moves = []
        for h, sigma, alpha, converse in moves:
            code = [None] * (m * m)
            for i, j in itertools.product(range(m), repeat=2):
                f = (h[i], h[j], alpha, converse)
                if f not in rank_maps:
                    image = [alpha[mult[mult[h[j]][t]][inv[h[i]]]] for t in range(n)]
                    if converse:
                        image = [inv[x] for x in image]
                    rank_maps[f] = tuple(self._rank[frozenset(image[t] for t in sub)]
                                         for sub in self.cells)
                a, b = (sigma[j], sigma[i]) if converse else (sigma[i], sigma[j])
                code[a * m + b] = (i * m + j, rank_maps[f])
            self.moves.append(tuple(code))
        self.m = m
        self._inverses = [None] * len(moves)
        # Per row: the indices of the moves that keep rows 0..row in place.
        self._row_moves = [[k for k, (h, sigma, alpha, converse) in enumerate(moves)
                            if not converse and max(sigma[:row + 1]) == row]
                           for row in range(m - 1)]

    def key(self, sets) -> tuple:
        """The rank tuple of a table, or of a prefix of its rows."""
        rank = self._rank
        return tuple([rank[cell] for row in sets for cell in row])

    def table(self, key) -> ConnectionTable:
        """The table of a full key, built on the shared cells."""
        cells = map(self.cells.__getitem__, key)
        # zip over m references to one iterator groups its cells by row.
        return ConnectionTable._of_cells(self.m, tuple(zip(*[cells] * self.m)))

    def inverse(self, k: int) -> tuple:
        """The code of the inverse of move ``k``, built on first use: source
        and target cells swapped and rank maps inverted, since neither a
        gauge nor an automorphism need be an involution."""
        if self._inverses[k] is None:
            inverse = [None] * len(self.moves[k])
            for target, (src, f) in enumerate(self.moves[k]):
                undo = [0] * len(f)
                for r, image in enumerate(f):
                    undo[image] = r
                inverse[src] = (target, tuple(undo))
            self._inverses[k] = tuple(inverse)
        return self._inverses[k]

    def earlier_move(self, key, row: Optional[int] = None) -> Optional[int]:
        """The index in ``moves`` of the first move whose image of the key is
        earlier in enumeration order, or None.  Each image is compared cell
        by cell, up to the first cell that differs.

        Given ``row``, the key codes rows 0..row, and only the moves that
        keep those rows in place are tried: every gauge, every automorphism,
        and each transposition of two blocks that are both at most ``row``
        or both above it.  An image counts only when it first differs in row
        ``row``, so that it shares the key's rows 0..row-1."""
        moves = self.moves
        if row is None:
            indices, fixed = range(len(moves)), 0
        else:
            indices, fixed = self._row_moves[row], row * self.m
        for k in indices:
            for cell, (target, (src, f)) in enumerate(zip(key, moves[k])):
                r = f[key[src]]
                if r != target:
                    if r < target and cell >= fixed:
                        return k
                    break
        return None

    def earlier_image(self, key, row: Optional[int] = None) -> Optional[tuple]:
        """The key's image under `earlier_move`, or None."""
        k = self.earlier_move(key, row)
        return None if k is None else _image(self.moves[k], key)


def _image(code, key) -> tuple:
    """The image of a key, or of a prefix key under a move that keeps its
    rows in place, under a coded move."""
    return tuple([f[key[src]] for src, f in code[:len(key)]])


class _PrefixMemo:
    """What a scan and its walk share: per finished row prefix, its
    subtree's oriented count and ``[start, end)`` range of witness positions,
    contiguous as its tables are (``subtrees``); each measured table's
    verdict (``verdicts``); the witnesses, ``(None, key)`` per walked one and
    ``(move, (start, end))`` per skipped subtree (``parts``), and their count
    (``size``); and the skipped subtrees' oriented count (``skipped``)."""

    def __init__(self, moves: _RankedMoves):
        self.moves, self.subtrees, self.verdicts, self.parts = moves, {}, {}, []
        self.size = self.skipped = 0

    def skip(self, key, row: int) -> Optional[int]:
        """The oriented count of the subtree under the prefix ``key`` of
        rows 0..row when a move sends the prefix to an earlier one, so the
        subtree may be skipped; else None.  The subtree's witnesses are the
        earlier subtree's, as one segment through the move."""
        k = self.moves.earlier_move(key, row)
        if k is None:
            return None
        image = _image(self.moves.moves[k], key)
        # The image shares the key's parent prefix, so the walk finished it.
        subtree = self.subtrees.get(image)
        if subtree is None:
            raise RuntimeError(f"no count for the earlier prefix {image} of {key}")
        count, start, end = subtree
        begin = self.size
        if start < end:
            self.parts.append((k, (start, end)))
            self.size += end - start
        self.subtrees[key] = count, begin, self.size
        self.skipped += count
        return count

    def is_witness(self, image) -> bool:
        """Whether a table with the earlier one-move ``image`` is a witness."""
        if not self.size:
            return False
        while (earlier := self.moves.earlier_image(image)) is not None:
            image = earlier
        if image not in self.verdicts:
            raise RuntimeError(f"no verdict for the measured table {image}")
        return self.verdicts[image]


class _Witnesses(Sequence):
    """A scan's witnesses in enumeration order, read-only: ``len`` is the
    count; the first read builds every key, each segment's mapped through
    its move's inverse and sorted, and each read builds its tables."""

    def __init__(self, memo: _PrefixMemo):
        self._moves, self._parts, self._size = memo.moves, memo.parts, memo.size
        self._keys = None

    def _all_keys(self) -> list:
        if self._keys is None:
            keys = []
            for k, part in self._parts:
                if k is None:
                    keys.append(part)
                else:
                    inverse = self._moves.inverse(k)
                    keys.extend(sorted([_image(inverse, w) for w in keys[slice(*part)]]))
            self._keys, self._parts = keys, None
        return self._keys

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._moves.table(key) for key in self._all_keys()[i]]
        return self._moves.table(self._all_keys()[i])

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, _Witnesses) else other)


def feasibility_guard(G: Group, m: int) -> bool:
    return G.order * m <= GUARD_PRODUCT


def exhaustive_sweep(G: Group, m: int, all_witnesses: bool = False) -> SweepResult:
    """The scan: walk the oriented tables of valency two in enumeration
    order and collect, in that order, those whose digraphs have |Aut| = |G|,
    stopping at the first one unless ``all_witnesses`` is set, by the rules
    of the module docstring; one `_RankedMoves` and one `_PrefixMemo` serve
    the whole scan.

    ``tables_enumerated`` is the position of the table the scan stopped
    at, or the number of constrained tables when it ran to the end, so a
    NOT_EXISTS verdict reflects the full enumeration; ``oriented_count``
    and ``max_aut_order_seen`` cover the same tables.  Raises ValueError
    for m < 1 (no table has that shape, so an empty scan would read as
    NOT_EXISTS), then InfeasibleSweep past `feasibility_guard`.
    """
    start = time.perf_counter()
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not feasibility_guard(G, m):
        raise InfeasibleSweep(f"|G|*m = {G.order * m} exceeds guard {GUARD_PRODUCT}")
    moves = _RankedMoves(G, m)
    prefixes = _PrefixMemo(moves)
    oriented = top = 0
    for position, sets in enumerate_tables(G, m, prefixes):
        oriented += 1
        key = moves.key(sets)
        image = moves.earlier_image(key)
        if image is None:
            order = automorphisms(build_mcayley(G, ConnectionTable._of_cells(m, sets))).order
            top = max(top, order)
            witness = prefixes.verdicts[key] = order == G.order
        else:
            witness = prefixes.is_witness(image)
        if witness:
            prefixes.parts.append((None, key))
            prefixes.size += 1
            if not all_witnesses:
                examined = position
                break
    else:
        examined = count_tables(G.order, m)
    oriented += prefixes.skipped
    return SweepResult(
        group_label=G.label,
        m=m,
        tables_enumerated=examined,
        oriented_count=oriented,
        witnesses=_Witnesses(prefixes),
        verdict="EXISTS" if prefixes.size else "NOT_EXISTS",
        max_aut_order_seen=top,
        runtime_ms=(time.perf_counter() - start) * 1000.0,
    )


def find_witness(G: Group, m: int):
    """The first-stop `exhaustive_sweep`, as (table, digraph, stats).

    The table is the first witness in enumeration order, where structured
    witnesses sit early.  When the whole space holds none, returns (None,
    None, stats), and the stats certify non-existence.  ``stats`` holds
    the sweep's counts: ``examined`` (``tables_enumerated``), ``oriented``
    (``oriented_count``) and ``max_aut_order_seen``, the exact largest
    |Aut| over the oriented tables examined.  Raises as `exhaustive_sweep`
    does, so every search it starts runs to a witness or to the end.
    """
    result = exhaustive_sweep(G, m)
    stats = {"examined": result.tables_enumerated, "oriented": result.oriented_count,
             "max_aut_order_seen": result.max_aut_order_seen}
    if not result.witnesses:
        return None, None, stats
    table = result.witnesses[0]
    return table, build_mcayley(G, table), stats
