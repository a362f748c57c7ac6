"""Exhaustive enumeration of the connection tables of valency two.

A table qualifies when every block row and block column has total size
`VALENCY` = 2; those are exactly the tables whose digraphs are in- and
out-regular of valency two.  Cells are filled in row-major order, and a
cell is rejected as soon as orientation can be checked on it, so only
oriented tables are walked.  A rejected subtree is counted, not walked:
how many tables complete a partial one depends only on how many columns
still take 2 elements and how many take 1, over the whole table and over
the current row's later columns, which the walk keeps as it goes, and a
memoised recurrence on those four counts gives it.  So each yielded
table keeps its 1-based position among all constrained tables.  The walk
yields it as its key, the row-major tuple of its cells' ranks; a
`ConnectionTable` is built only for an engine call or a witness read.

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
`_RankedMoves` codes each move as two tuples over the key's cells: the
source cells, from `_block_code`, built once per (m, block permutation,
converse) and shared by every group, and the rank maps, one map repeated
over every cell unless the move is a gauge.  The walk also applies that
test to each finished row prefix, under the moves that keep its rows in
place, retrying only the moves that fixed the parent prefix, on the new
row, and those new to the row: any other image differs in an earlier row.
Such a move maps the subtree of the prefix one-to-one onto that of an
earlier prefix, so the subtree is counted, not walked: it holds no new
|Aut|, as many oriented tables as the earlier one, read from a memo
(`_PrefixMemo`), and as its witnesses one segment: the earlier subtree's,
mapped back through the move's inverse.
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
which bounds neither the number of tables nor of witnesses; on a 2-core
x86-64 host the first-stop scans it admits end within 0.6 s, Z1 at m = 16
the slowest.  An all-witness scan counts its witnesses in one part per
walked witness or skipped segment: Z4 at m = 4 (1,582,080) took 2.7-3.3 s
and 35 MB there, Z2 at m = 6 (11,543,040) 4.6 s and 44 MB.  Reading them
builds every key: 312 MB on Z4 at m = 4.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .automorphisms import VALENCY, automorphisms
from .digraphs import ConnectionTable, build_mcayley
from .errors import InfeasibleSweep, InputError
from .groups import Group, automorphism_generators, generating_set

GUARD_PRODUCT = 16


@dataclass
class SweepResult:
    """What one scan found.  With no witness it is the NOT_EXISTS
    certificate, which dispatch returns and a report carries unchanged."""

    group_label: str
    m: int
    tables_enumerated: int
    oriented_count: int
    witnesses: Sequence[ConnectionTable]
    max_aut_order_seen: int = 0
    runtime_ms: float = 0.0

    @property
    def all_failed(self) -> bool:
        return not self.witnesses

    @property
    def verdict(self) -> str:
        return "NOT_EXISTS" if self.all_failed else "EXISTS"

    def certificate_dict(self) -> dict:
        """The certificate as reports write it.  With ``oriented_count`` 0,
        ``max_aut_order_seen`` 0 means that no digraph was examined."""
        return {
            "group": self.group_label,
            "m": self.m,
            "enumerated_count": self.tables_enumerated,
            "oriented_count": self.oriented_count,
            "all_failed": self.all_failed,
            "max_aut_order_seen": self.max_aut_order_seen,
        }

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


@functools.lru_cache(maxsize=None)
def _cell_order(n: int) -> Tuple[frozenset, ...]:
    """Every cell value in the order `enumerate_tables` tries them: by size,
    then as ``itertools.combinations``; one tuple per order, shared by
    every scan."""
    return tuple([frozenset(combo) for s in range(min(VALENCY, n) + 1)
                  for combo in itertools.combinations(range(n), s)])


def enumerate_tables(G: Group, m: int,
                     prefixes: Optional["_PrefixMemo"] = None) -> Iterator[Tuple[int, tuple]]:
    """The oriented m x m families of subsets of G with every row and column
    total equal to the valency, as ``(position, key)``.

    ``key`` codes the table as `_RankedMoves` does.  ``position`` is the
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
    cells = _cell_order(n)
    # Per size: (a cell's rank, its inverse set, allowed on the diagonal).
    subsets = {s: [] for s in range(min(VALENCY, n) + 1)}
    for rank, sub in enumerate(cells):
        sub_inv = frozenset(G.inv[t] for t in sub)
        subsets[len(sub)].append((rank, sub_inv, 0 not in sub and not sub & sub_inv))
    colrem = [VALENCY] * m
    have = [0, 0, m]  # have[c]: the columns that still take c elements
    ranks = [0] * (m * m)  # the key of the table being filled
    position = reached = 0  # reached: oriented tables yielded or counted

    def fill_cell(i, j, rowrem, a2, b1):
        # a2, b1: the columns j.. of row i that still take 2 and 1 elements.
        nonlocal position, reached
        if j == m:
            if i + 1 == m:
                position += 1
                reached += 1
                yield position, tuple(ranks)
                return
            if prefixes is not None:
                key = tuple(ranks[:(i + 1) * m])
                count = prefixes.skip(key, i) if reached else None
                if count is not None:
                    position += _completions(n, 0, have[2], have[1], 0, 0)
                    reached += count
                    return
                start, begin = reached, prefixes.size
            yield from fill_cell(i + 1, 0, VALENCY, have[2], have[1])
            if prefixes is not None:
                prefixes.subtrees[key] = reached - start, begin, prefixes.size
            return
        partner = cells[ranks[j * m + i]] if j < i else None
        c = colrem[j]
        a2, b1 = a2 - (c == 2), b1 - (c == 1)
        have[c] -= 1
        for s in range(min(rowrem, c, n) + 1):
            colrem[j] = c - s
            have[c - s] += 1
            below = _completions(n, rowrem - s, have[2], have[1], a2, b1)
            if below:
                for rank, sub_inv, diagonal_ok in subsets[s]:
                    if (diagonal_ok if i == j
                            else partner is None or not sub_inv & partner):
                        ranks[i * m + j] = rank
                        yield from fill_cell(i, j + 1, rowrem - s, a2, b1)
                    else:
                        position += below
            have[c - s] -= 1
        have[c] += 1
        colrem[j] = c

    try:
        yield from fill_cell(0, 0, VALENCY, m, 0)
    finally:
        del fill_cell  # the recursive closure is a cycle: break it, done or closed early


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


@functools.cache
def _block_code(m: int, sigma: tuple, converse: bool) -> tuple:
    """A move's block action on an m x m key, the same for every group,
    gauge and automorphism, as ``(srcs, rows)``: each target cell's source
    cell in row-major order, and each ``row`` such that the move keeps rows
    0..row in place, none after the converse.  Built once per (m, sigma,
    converse) and shared by every group."""
    back = sorted(range(m), key=sigma.__getitem__)
    srcs = tuple([j * m + i if converse else i * m + j
                  for i, j in itertools.product(back, repeat=2)])
    rows = () if converse else tuple([row for row in range(m - 1)
                                      if max(sigma[:row + 1]) == row])
    return srcs, rows


class _RankedMoves:
    """The moves of `_table_moves` on rank-coded tables.

    A cell's rank is its subset's index in ``cells``, the order in which
    `enumerate_tables` tries cells: by size, then as
    ``itertools.combinations``.  A table's key is the row-major tuple of its
    cell ranks, so keys compare exactly as enumeration positions do.  A
    coded move is two tuples indexed by target cell in row-major order:
    ``srcs``, each target cell's source cell, shared through `_block_code`
    by every move with the same block permutation and converse flag; and
    ``maps``, the rank map of the cell-wise element map between them,
    t -> alpha(h_j t h_i^-1), inverted after the converse.  Each rank map is
    built once per element map, through a table from every ordering of a
    cell's elements to its rank; a move with a trivial gauge repeats one
    over all m^2 cells, and only a gauge builds ``maps`` cell by cell.
    """

    def __init__(self, G: Group, m: int):
        n, mult, inv = G.order, G.mult, G.inv
        self.cells = _cell_order(n)
        ranks = {p: r for r, c in enumerate(self.cells) for p in itertools.permutations(c)}
        by_image = {}  # per element map, its rank map

        @functools.cache
        def rank_map(x, y, alpha, converse):
            image = [alpha[mult[mult[y][t]][inv[x]]] for t in range(n)]
            image = tuple([inv[v] for v in image] if converse else image)
            if image not in by_image:
                by_image[image] = tuple([ranks[tuple([image[t] for t in c])] for c in self.cells])
            return by_image[image]

        moves = _table_moves(G, m)
        self.moves = []
        # Per row: the indices of the moves that keep rows 0..row in place.
        self._row_moves = [set() for _ in range(m - 1)]
        for k, (h, sigma, alpha, converse) in enumerate(moves):
            srcs, rows = _block_code(m, sigma, converse)
            if any(h):
                fs = [rank_map(x, y, alpha, converse) for x in h for y in h]  # per source cell
                maps = tuple(map(fs.__getitem__, srcs))
            else:
                maps = (rank_map(0, 0, alpha, converse),) * (m * m)
            self.moves.append((srcs, maps))
            for row in rows:
                self._row_moves[row].add(k)
        self.m = m
        self._inverses = [None] * len(moves)
        # Per row: the moves new to the row, with the cells to compare, from
        # the row ``row`` moves to.
        self._new = [[(k, [*range(a * m, row * m), *range(a * m), *range(row * m, row * m + m)])
                      for k in sorted(ks - self._row_moves[row - 1]) for a in [moves[k][1][row]]]
                     if row else [] for row, ks in enumerate(self._row_moves)]

    def table(self, key) -> ConnectionTable:
        """The table of a full key: its non-empty cells, the shared ones of
        ``cells``, since rank 0 is the empty cell."""
        cells, m = self.cells, self.m
        return ConnectionTable(m, {divmod(k, m): cells[r] for k, r in enumerate(key) if r})

    def inverse(self, k: int) -> tuple:
        """The code of the inverse of move ``k``, built on first use: source
        and target cells swapped and rank maps inverted, each distinct one
        once, since neither a gauge nor an automorphism need be an
        involution."""
        if self._inverses[k] is None:
            srcs, maps = self.moves[k]
            targets = sorted(range(len(srcs)), key=srcs.__getitem__)  # per source cell
            back = {f: tuple(sorted(range(len(f)), key=f.__getitem__)) for f in set(maps)}
            self._inverses[k] = tuple(targets), tuple([back[maps[t]] for t in targets])
        return self._inverses[k]

    def earlier_move(self, key) -> Optional[int]:
        """The index in ``moves`` of the first move whose image of the key is
        earlier in enumeration order, or None.  Each image is compared cell
        by cell, up to the first cell that differs."""
        for k, (srcs, maps) in enumerate(self.moves):
            cell = 0  # indexed, not zipped: most moves stop at the first cells
            for target in key:
                r = maps[cell][key[srcs[cell]]]
                if r != target:
                    if r < target:
                        return k
                    break
                cell += 1
        return None

    def prefix_move(self, key, row: int, parent: Optional[list] = None) -> tuple:
        """For a key of rows 0..row: ``(k, None)`` for the first move k of
        ``_row_moves[row]`` (every gauge and automorphism, and each
        transposition of two blocks both at most ``row`` or both above it)
        whose image first differs from the key in row ``row``, and is earlier
        there; else ``(None, fixers)``, the moves whose image is the key.
        ``parent`` holds the fixers of rows 0..row-1, or None if never tested;
        given it, only those are tried, on row ``row``, and the moves new to
        the row in full: any other move's image differs in an earlier row."""
        lo, hi, kept = row * self.m, (row + 1) * self.m, self._row_moves[row]
        tries = ([(k, range(hi)) for k in sorted(kept)] if parent is None
                 else sorted([(k, range(lo, hi)) for k in parent if k in kept] + self._new[row]))
        fixers = []
        for k, cells in tries:
            srcs, maps = self.moves[k]
            for cell in cells:
                r, target = maps[cell][key[srcs[cell]]], key[cell]
                if r != target:
                    if r < target and cell >= lo:
                        return k, None
                    break
            else:
                fixers.append(k)
        return None, fixers

    def earlier_image(self, key) -> Optional[tuple]:
        """The full key's image under `earlier_move`, or None."""
        k = self.earlier_move(key)
        return None if k is None else _image(self.moves[k], key)


def _image(code, key) -> tuple:
    """The image of a key, or of a prefix key under a move that keeps its
    rows in place, under a coded move."""
    srcs, maps = code
    if len(key) < len(srcs):
        srcs = srcs[:len(key)]
    return tuple([f[key[src]] for src, f in zip(srcs, maps)])


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
        self.fixers = [None] * moves.m  # [row + 1]: of the last prefix of rows 0..row tested

    def skip(self, key, row: int) -> Optional[int]:
        """The oriented count of the subtree under the prefix ``key`` of
        rows 0..row when a move sends the prefix to an earlier one, so the
        subtree may be skipped; else None.  The subtree's witnesses are the
        earlier subtree's, as one segment through the move."""
        k, self.fixers[row + 1] = self.moves.prefix_move(key, row, self.fixers[row])
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
    its move's inverse and sorted, and each read builds its tables.  With
    no witness it keeps no moves, so a NOT_EXISTS certificate does not
    keep its scan alive."""

    def __init__(self, memo: _PrefixMemo):
        self._moves = memo.moves if memo.size else None
        self._parts, self._size = memo.parts, memo.size
        self._keys = None

    def _all_keys(self) -> list:
        if self._keys is None:
            keys = []
            for k, part in self._parts:
                if k is None:
                    keys.append(part)
                else:
                    pairs = tuple(zip(*self._moves.inverse(k)))
                    keys.extend(sorted([tuple([f[w[src]] for src, f in pairs])
                                        for w in keys[slice(*part)]]))
            self._keys, self._parts = keys, None
        return self._keys

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        keys = self._all_keys()[i]
        if isinstance(i, slice):
            return [self._moves.table(key) for key in keys]
        return self._moves.table(keys)

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
    and ``max_aut_order_seen`` cover the same tables.  Raises InputError
    for m < 1 (no table has that shape, so an empty scan would read as
    NOT_EXISTS), then InfeasibleSweep past `feasibility_guard`.
    """
    start = time.perf_counter()
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    if not feasibility_guard(G, m):
        raise InfeasibleSweep(f"|G|*m = {G.order * m} exceeds guard {GUARD_PRODUCT}")
    moves = _RankedMoves(G, m)
    prefixes = _PrefixMemo(moves)
    oriented = top = 0
    for position, key in enumerate_tables(G, m, prefixes):
        oriented += 1
        image = moves.earlier_image(key)
        if image is None:
            order = automorphisms(build_mcayley(G, moves.table(key))).order
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
        max_aut_order_seen=top,
        runtime_ms=(time.perf_counter() - start) * 1000.0,
    )


def find_witness(G: Group, m: int):
    """The first-stop `exhaustive_sweep`, as (table, result).

    The table is the first witness in enumeration order, where structured
    witnesses sit early.  When the whole space holds none, returns (None,
    result), and the result is the NOT_EXISTS certificate.  Raises as
    `exhaustive_sweep` does, so every search it starts runs to a witness
    or to the end.
    """
    result = exhaustive_sweep(G, m)
    return (result.witnesses[0] if result.witnesses else None), result
