"""Connection-table recipes and the dispatcher that certifies each (G, m).

Three explicit recipes cover cyclic groups of order >= 3, abelian and
non-abelian two-generated groups.  The handful of small groups those
recipes cannot reach (trivial group, Z2, Klein four-group) are settled by
exhaustive search: either a searched witness or a certified exception.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .automorphisms import is_omsr
from .digraphs import ConnectionTable, MCayleyDigraph, build_mcayley, parse_connection_table
from .errors import (IsAbelian, NotAbelian, NotGenerating, OrderTooSmall,
                     ParseError, SearchBudgetExceeded)
from .groups import (ALL_INVOLUTIONS, GeneratingPair, Group, GroupElement, _idx,
                     closure, element_order, find_generating_pair, generates,
                     is_abelian, is_cyclic, normalize_generating_pair)
from .reports import ExceptionVerdict, VerificationReport
from . import sweep as sweeplib

KIND_CYCLIC = "cyclic"
KIND_ABELIAN = "abelian_2gen"
KIND_NONABELIAN = "nonabelian_2gen"
KIND_SEARCH = "search_witness"
KIND_EXCEPTION = "exception_certificate"


@dataclass(frozen=True)
class ConstructionRecipe:
    kind: str
    pair: GeneratingPair
    m: int


def cyclic_connection_table(G: Group, a, m: int) -> ConnectionTable:
    """Table for a cyclic group: generator on the diagonal corners, identity
    arcs chaining the blocks, the generator closing the cycle of blocks."""
    a = _idx(a)
    if m < 2:
        raise ValueError("m must be at least 2")
    if len(closure(G, (a,))) != G.order:
        raise NotGenerating(f"element {a} does not generate {G!r}")
    if element_order(G, a) < 3:
        raise OrderTooSmall("need a generator of order at least 3")
    a_inv = G.inverse(a)
    entries = {(0, 0): {a}, (m - 1, 0): {a}}
    for i in range(1, m):
        entries[(i, i)] = {a_inv}
    for i in range(m - 1):
        entries[(i, i + 1)] = {0}
    return ConnectionTable.from_dict(m, entries)


def abelian_connection_table(G: Group, a, b, m: int) -> ConnectionTable:
    """Table for an abelian two-generated group: a, then ab on the diagonal,
    b closing the cycle of blocks."""
    a, b = _idx(a), _idx(b)
    if m < 2:
        raise ValueError("m must be at least 2")
    if not is_abelian(G):
        raise NotAbelian(f"{G!r} is not abelian")
    if not generates(G, (a, b)):
        raise NotGenerating(f"elements {a},{b} do not generate {G!r}")
    if element_order(G, a) < 3:
        raise OrderTooSmall("need o(a) >= 3")
    if b == 0:
        raise OrderTooSmall("need o(b) >= 2")
    ab = G.mul(a, b)
    entries = {(0, 0): {a}, (m - 1, 0): {b}}
    for i in range(1, m):
        entries[(i, i)] = {ab}
    for i in range(m - 1):
        entries[(i, i + 1)] = {0}
    return ConnectionTable.from_dict(m, entries)


def nonabelian_connection_table(G: Group, a, b, m: int) -> ConnectionTable:
    """Table for a non-abelian two-generated group: a on every diagonal,
    b closing the cycle of blocks."""
    a, b = _idx(a), _idx(b)
    if m < 2:
        raise ValueError("m must be at least 2")
    if is_abelian(G):
        raise IsAbelian(f"{G!r} is abelian")
    if not generates(G, (a, b)):
        raise NotGenerating(f"elements {a},{b} do not generate {G!r}")
    if element_order(G, a) < 3:
        raise OrderTooSmall("need o(a) >= 3")
    entries = {(m - 1, 0): {b}}
    for i in range(m):
        entries.setdefault((i, i), set()).add(a)
    for i in range(m - 1):
        entries[(i, i + 1)] = {0}
    return ConnectionTable.from_dict(m, entries)


def _is_klein_four(G: Group) -> bool:
    return G.order == 4 and all(G.mul(x, x) == 0 for x in G.elements())


def _is_search_family(G: Group) -> bool:
    return G.order in (1, 2) or _is_klein_four(G)


def _is_exceptional(G: Group, m: int) -> bool:
    if G.order == 1:
        return m <= 6
    return m == 2 and (G.order == 2 or _is_klein_four(G))


def default_witness_dir() -> str:
    return os.environ.get(
        "OMSR_WITNESS_DIR",
        os.path.join(os.path.dirname(__file__), "witnesses"),
    )


def _witness_path(G: Group, m: int, valency: int, witness_dir: str) -> str:
    """Cache file of G's witness.  The search family is named by structure,
    not by label: every relabelling of Z1, Z2 or the Klein four-group that
    fixes the identity is a group automorphism, so a cached table fits any
    presentation of the group (the catalog labels the Klein four-group
    `Z2^2`; the packaged files say `Z2xZ2`).  The loader re-verifies it."""
    if _is_search_family(G):
        label = {1: "Z1", 2: "Z2", 4: "Z2xZ2"}[G.order]
    else:
        label = (G.label or f"order{G.order}").replace("/", "_").replace("^", "e")
    return os.path.join(witness_dir, f"{label}_m{m}_v{valency}.table")


def _load_cached_witness(G: Group, m: int, valency: int, witness_dir: str):
    path = _witness_path(G, m, valency, witness_dir)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            table = parse_connection_table(fh.read())
    except (OSError, ValueError, ParseError) as exc:
        warnings.warn(f"skipping unreadable witness cache file {path}: {exc}")
        return None
    if table.m != m:
        return None
    try:
        table.validate(G)
    except ValueError:
        return None
    return table


def _store_witness(G: Group, m: int, valency: int, witness_dir: str,
                   table: ConnectionTable) -> None:
    """Write the witness atomically: a temp file in the same directory, then
    os.replace, so a reader never sees a half-written file."""
    tmp = None
    try:
        os.makedirs(witness_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=witness_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(table.to_text())
        os.replace(tmp, _witness_path(G, m, valency, witness_dir))
    except OSError:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)  # cache is best effort


def _searched_witness(G: Group, m: int, valency: int, witness_dir: str, regen: bool):
    if not regen:
        cached = _load_cached_witness(G, m, valency, witness_dir)
        if cached is not None:
            gamma = build_mcayley(G, cached)
            report = is_omsr(gamma, G, m, valency=valency, construction_kind=KIND_SEARCH)
            if report.omsr:
                return gamma, report
    table, gamma, stats = sweeplib.find_witness(G, m, valency=valency)
    if table is None:
        # The search exhausted the whole space: certified non-existence,
        # with the exact max |Aut| over every oriented table it examined.
        return ExceptionVerdict(
            group_label=G.label or f"order-{G.order}",
            m=m,
            enumerated_count=stats["examined"],
            all_failed=True,
            max_aut_order_seen=stats["max_aut_order_seen"],
            oriented_count=stats["oriented"],
        )
    report = is_omsr(gamma, G, m, valency=valency, construction_kind=KIND_SEARCH)
    _store_witness(G, m, valency, witness_dir, table)
    return gamma, report


def construct_omsr(G: Group, pair: Optional[GeneratingPair], m: int,
                   valency: int = 2, witness_dir: Optional[str] = None,
                   regen: bool = False
                   ) -> Union[Tuple[MCayleyDigraph, VerificationReport], ExceptionVerdict]:
    """Dispatch: a verified witness digraph, or a certified exception.

    The exceptional pairs are the trivial group with m <= 6, Z2 with
    m <= 3 and the Klein four-group with m = 2; each gets an
    exhaustive-search certificate.  All of them but (Z2, 3) are on the
    hard-coded `_is_exceptional` list.  (Z2, 3) is not: its NOT_EXISTS
    comes from `_searched_witness` exhausting the search.  The same three
    small groups get searched witnesses when m allows; every other group
    uses the recipe matching its structure.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    wdir = witness_dir or default_witness_dir()

    if _is_search_family(G):
        if _is_exceptional(G, m):
            result = sweeplib.exhaustive_sweep(G, m, valency=valency)
            if result.verdict != "NOT_EXISTS":
                raise AssertionError(
                    f"expected certified exception for {G!r} m={m}, found witnesses")
            return ExceptionVerdict(
                group_label=G.label or f"order-{G.order}",
                m=m,
                enumerated_count=result.tables_enumerated,
                all_failed=True,
                max_aut_order_seen=result.max_aut_order_seen,
                oriented_count=result.oriented_count,
            )
        return _searched_witness(G, m, valency, wdir, regen)

    if pair is None:
        pair = find_generating_pair(G)

    if is_cyclic(G):
        a = pair.a if element_order(G, pair.a) == G.order else None
        if a is None:
            a = next(GroupElement(g) for g in G.elements()
                     if element_order(G, g) == G.order)
        table = cyclic_connection_table(G, a, m)
        kind = KIND_CYCLIC
    else:
        if pair.b is None:
            raise NotGenerating(f"{G!r} is not cyclic; a two-element pair is required")
        norm = normalize_generating_pair(G, pair.a, pair.b)
        if norm is ALL_INVOLUTIONS:
            raise AssertionError("all-involutions pair outside the Klein four-group")
        a, b = norm
        if is_abelian(G):
            table = abelian_connection_table(G, a, b, m)
            kind = KIND_ABELIAN
        else:
            table = nonabelian_connection_table(G, a, b, m)
            kind = KIND_NONABELIAN

    gamma = build_mcayley(G, table)
    report = is_omsr(gamma, G, m, valency=valency, construction_kind=kind)
    if report.omsr:
        return gamma, report
    # The recipe digraph failed verification (this happens for a few small
    # abelian groups at m = 2, where every generating pair leaves the recipe
    # with either a digon or a block-swapping symmetry).  Fall back to the
    # search, which still certifies |Aut| = |G| when any witness exists.
    return _searched_witness(G, m, valency, wdir, regen)


def report_from_exception(G: Group, m: int, verdict: ExceptionVerdict) -> VerificationReport:
    return VerificationReport(
        group_label=G.label or f"order-{G.order}",
        m=m,
        group_order=G.order,
        construction_kind=KIND_EXCEPTION,
        omsr=False,
        certificate=verdict,
    )
