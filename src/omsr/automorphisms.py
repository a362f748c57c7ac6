"""Digraph automorphism groups via color refinement and backtracking.

Refinement keeps an ordered partition, each vertex colored by its cell's
start, and re-splits only the cells a splitter touches, by out- and
in-neighbour counts, queueing all fragments but the largest (Hopcroft's
smaller half, as in nauty), so colors are equivariant.  A splitter costs
time in proportion to the vertices it hits, not to the cells they lie in:
singleton cells and cells hit uniformly are passed over, only the hits are
grouped by count, and the untouched fragment keeps its cell's set and start,
the hits removed from it; a single hit leaves its cell in O(1), as a
singleton at the cell's end.  On a degree-regular digraph (one out-degree
and one in-degree throughout) the uniform partition is already equitable,
and the search starts from it unrefined.  One path of
individualize-refine steps fixes a base b_1..b_k; with G_i the pointwise
stabilizer of b_1..b_i, |Aut| = prod_i |b_i^{G_(i-1)}|, found deepest level
first: each vertex of b_i's cell not yet in b_i's orbit under the known
generators is probed, and yields a generator or rules out its orbit.  Each
refinement records its trace, one (splitter start, cell count) step per
splitter popped, and a probe stops at its first step off the trace of the
path's refinement at its level (nauty's trace comparison; McKay and Piperno,
Practical graph isomorphism II, 2014): an automorphism mapping the path's
prefix to the probe's would map one run onto the other step by step.  On an
m-Cayley digraph the right translations by a generating set of G are checked
and seeded, so an OmSR costs one path plus m - 1 block probes.  A call pays
for those refinements and little else: the translations are built once per
(G, m) and kept on G, though every call checks them; each path level keeps
its cell sets, and a probe starts from a copy of its level's dict, O(cells),
copying a set only when it splits it.  Only generators and |Aut| are kept.

`is_omsr` decides a digraph by this search alone.  `verify_table` decides
a table by `certificate.certify`, which reads only the table and G, and
builds the digraph for the search only where T is not 2-regular or the
certificate does not close.
"""

from __future__ import annotations

import collections
import heapq
import time
from dataclasses import dataclass
from typing import List, Optional

from . import perms as permlib
from .certificate import certify
from .digraphs import (ConnectionTable, Digraph, MCayleyDigraph, build_mcayley, is_connected,
                       is_k_regular, is_oriented, oriented_table_criterion, right_translation)
from .errors import TooLarge
from .groups import Group, generating_set
from .reports import VerificationReport

# The valency the paper studies: `is_omsr` requires in- and out-degree
# VALENCY, and the sweep enumerates the tables whose block rows and columns
# each hold VALENCY elements.
VALENCY = 2
VERTEX_CAP = 512
ELEMENT_CAP = 10 ** 6


@dataclass
class PermutationGroup:
    """Generators and exact order.  For Aut of an m-Cayley digraph,
    translations_embed says if R(G) embeds."""

    degree: int
    generators: List[tuple]
    order: int
    translations_embed: Optional[bool] = None


def _closure_elements(generators, degree):
    ident = permlib.identity(degree)
    seen, queue = {ident}, [ident]
    for p in queue:
        for g in generators:
            q = permlib.compose(p, g)
            if q not in seen:
                if len(seen) >= ELEMENT_CAP:
                    raise TooLarge(f"group closure exceeds element cap {ELEMENT_CAP}")
                seen.add(q)
                queue.append(q)
    return sorted(seen)


def _generating_subset(elements, degree):
    """Greedy small generating set drawn from the sorted element list."""
    gens, span = [], {permlib.identity(degree)}
    for p in sorted(elements):
        if p not in span:
            gens.append(p)
            span = set(_closure_elements(gens, degree))
    return gens


# --- refinement --------------------------------------------------------------

def _cells(colors) -> dict:
    """The cell sets of a coloring by cell starts, keyed by start."""
    cells = collections.defaultdict(set)
    for v, c in enumerate(colors):
        cells[c].add(v)
    return cells


def _refine(out_adj, in_adj, colors, active, reference=None, cells=None, shared=frozenset()):
    """Coarsest equitable refinement of a partition colored by cell starts,
    by the splitter queue of the module docstring, and its trace: one step
    (splitter start, cell count after the split) per splitter popped.  Only
    the cells starting at active are queued at first, so every other cell
    must be stable.  The run recolors ``colors`` and updates ``cells``, the
    sets by start (from `_cells` when not given), in place, so a caller
    passes ones it owns; the set of a start in ``shared`` is another
    partition's and is copied before it is split.  Given a reference trace,
    returns None as soon as the run leaves it, else (colors, trace).

    Work per splitter is proportional to the vertices it hits: singleton and
    uniformly hit cells are passed over, and the untouched fragment is the
    cell's own set with the hits removed, neither copied nor recolored.  A
    cell with one hit splits in O(1), without grouping or sorting."""
    if cells is None:
        cells = _cells(colors)
    n, ncells, queue = len(colors), len(cells), sorted(set(active))
    queued, trace = set(queue), []
    while queue and ncells < n:
        s = heapq.heappop(queue)
        queued.discard(s)
        weight, counts, touched = len(cells[s]) + 1, {}, {}
        for w in cells[s]:
            for u in in_adj[w]:
                counts[u] = counts.get(u, 0) + weight
            for u in out_adj[w]:
                counts[u] = counts.get(u, 0) + 1
        for u in counts:
            c = colors[u]
            hits = touched.get(c)
            if hits is not None:
                hits.append(u)
            elif len(cells[c]) > 1:
                touched[c] = [u]
        for c, hits in touched.items():
            cell = cells[c]
            if c in shared:
                # Another partition's set: copied before it can be split.
                shared.discard(c)
                cell = cells[c] = set(cell)
            if len(hits) == 1:
                # The split below in O(1): the hit is a queued singleton at the
                # cell's end; the rest keeps the cell's set, start and queue state.
                u = hits[0]
                cell.discard(u)
                start = colors[u] = c + len(cell)
                cells[start] = {u}
                queued.add(start)
                heapq.heappush(queue, start)
                ncells += 1
                continue
            groups = {}
            for u in hits:
                k = counts[u]
                group = groups.get(k)
                if group is None:
                    groups[k] = [u]
                else:
                    group.append(u)
            if len(groups) == 1 and len(hits) == len(cell):
                continue
            # The untouched fragment comes first: it keeps the cell's set and start.
            cell.difference_update(hits)
            frags = [cell] if cell else []
            frags += [set(groups[k]) for k in sorted(groups)]
            # A queued c already stands for the first fragment.  Otherwise
            # the partition is stable by c, which implies the largest one.
            skip = frags[0] if c in queued else max(frags, key=len)
            ncells += len(frags) - 1
            start = c
            for f in frags:
                if start != c:
                    for v in f:
                        colors[v] = start
                cells[start] = f
                if f is not skip:
                    queued.add(start)
                    heapq.heappush(queue, start)
                start += len(f)
        step = (s, ncells)
        if reference is not None and (len(trace) == len(reference)
                                      or reference[len(trace)] != step):
            return None
        trace.append(step)
    if reference is not None and len(trace) != len(reference):
        return None
    return colors, trace


# --- search ------------------------------------------------------------------

def _is_automorphism(d: Digraph, p) -> bool:
    """Whether the vertex permutation p maps every arc onto an arc.  A
    bijection that does so maps the arc set onto itself."""
    out_adj = d.out_adj
    for u, nbrs in enumerate(out_adj):
        image = out_adj[p[u]]
        for w in nbrs:
            if p[w] not in image:
                return False
    return True


def _individualize(out_adj, in_adj, colors, v, reference=None, cells=None):
    """Refine an equitable coloring by v, moved to the end of its cell, as
    _refine does.  ``cells``, the coloring's cells (from `_cells` when not
    given), is a dict the caller owns whose sets another partition holds:
    the run splits and refines in it, copying each set before changing it."""
    fresh, c = list(colors), colors[v]
    if cells is None:
        cells = _cells(colors)
    shared = cells.keys() - {c}
    rest = cells[c] = cells[c] - {v}
    start = fresh[v] = c + len(rest)
    cells[start] = {v}
    return _refine(out_adj, in_adj, fresh, [start], reference, cells, shared)


def _translations(d: MCayleyDigraph) -> list:
    """Right translations by a generating set of G, kept on G per m."""
    G, key = d.group, ("translations", d.m)
    if key not in G._memo:
        G._memo[key] = [right_translation(G, d.m, g) for g in generating_set(G)]
    return G._memo[key]


def _aut_elements(d: Digraph):
    """(generators, |Aut|, translations_embed) by the search in the module
    docstring; translations_embed is None unless d is an m-Cayley digraph."""
    out_adj, in_adj, n = d.out_adj, d.in_adj, d.n
    # On a degree-regular digraph the uniform partition is equitable as it
    # is; traces[0] is never a probe's reference.
    regular = len(set(map(len, out_adj))) < 2 and len(set(map(len, in_adj))) < 2
    cells = {0: set(range(n))}
    colors, trace = ([0] * n, []) if regular else _refine(out_adj, in_adj, [0] * n, [0],
                                                          cells=cells)
    # Each level keeps its coloring and its cells; a level's sets are shared
    # with the levels and probes refined from it, which copy one to split it.
    path, levels, traces, base = [colors], [cells], [trace], []
    while len(cells) < n:
        # First vertex of the smallest non-singleton cell.
        target = min((len(cell), c) for c, cell in cells.items() if len(cell) > 1)[1]
        base.append(min(cells[target]))
        cells = dict(cells)
        colors, trace = _individualize(out_adj, in_adj, colors, base[-1], cells=cells)
        path.append(colors)
        levels.append(cells)
        traces.append(trace)

    def probe(level, colors, cells, u):
        """First automorphism fixing base[:level] that maps base[level] to u.
        One that exists maps the path's refinement onto the probe's step by
        step, so the probe stops where its trace leaves traces[level + 1]."""
        cells = dict(cells)
        run = _individualize(out_adj, in_adj, colors, u, traces[level + 1], cells)
        if run is None or cells.keys() != levels[level + 1].keys():
            return None
        c2 = run[0]
        if level + 1 == len(base):
            perm = permlib.compose(path[-1], permlib.inverse(c2))
            return perm if _is_automorphism(d, perm) else None
        target = path[level + 1][base[level + 1]]
        found = (probe(level + 1, c2, cells, w) for w in sorted(cells[target]))
        return next((g for g in found if g is not None), None)

    embed, seeds = None, []
    if isinstance(d, MCayleyDigraph):
        # R(G) embeds exactly when all the translations pass.
        translations = _translations(d)
        seeds = [t for t in translations if _is_automorphism(d, t)]
        embed = len(seeds) == len(translations)

    gens, order = [], 1
    for level in reversed(range(len(base))):
        known = gens + seeds if level == 0 else list(gens)
        colors, cells, b = path[level], levels[level], base[level]
        orbit, failed = permlib.orbit(known, b), set()
        for u in sorted(cells[colors[b]]):
            if u in orbit or u in failed:
                continue
            g = probe(level, colors, cells, u)
            if g is None:
                failed |= permlib.orbit(known, u)
            else:
                gens.append(g)
                known.append(g)
                orbit = permlib.orbit(known, b)
        order *= len(orbit)
    del probe  # it refers to itself; unbound, it and the path are freed without the GC
    return seeds + gens, order, embed


def automorphisms(d: Digraph) -> PermutationGroup:
    """Full automorphism group by individualize-refine backtracking, for
    digraphs of at most `VERTEX_CAP` vertices."""
    if d.n > VERTEX_CAP:
        raise TooLarge(f"{d.n} vertices exceeds cap {VERTEX_CAP}")
    gens, order, embed = _aut_elements(d)
    return PermutationGroup(degree=d.n, generators=gens, order=order,
                            translations_embed=embed)


def aut_order_bounded(d: Digraph, threshold: int) -> Optional[int]:
    """Exact |Aut| when it is <= threshold, else None."""
    order = _aut_elements(d)[1]
    return order if order <= threshold else None


def stabilizer(A: PermutationGroup, v: int) -> PermutationGroup:
    """Subgroup of A fixing the vertex v, by orbit-stabilizer; its
    generators are the Schreier generators u_x s u_{x^s}^-1."""
    reps, queue = {v: permlib.identity(A.degree)}, [v]
    for x in queue:
        for s in A.generators:
            if s[x] not in reps:
                reps[s[x]] = permlib.compose(reps[x], s)
                queue.append(s[x])
    gens = {permlib.compose(permlib.compose(u, s), permlib.inverse(reps[s[x]]))
            for x, u in reps.items() for s in A.generators}
    gens.discard(permlib.identity(A.degree))
    return PermutationGroup(degree=A.degree, generators=sorted(gens),
                            order=A.order // len(reps))


def orbit_count(A: PermutationGroup) -> int:
    return len(permlib.orbit_partition(A.generators, A.degree))


def is_omsr(gamma: MCayleyDigraph, construction_kind: str = "custom") -> VerificationReport:
    """Verdict on the m-Cayley digraph of G: oriented, regular of valency
    `VALENCY` = 2, and |Aut| = |G|, with G and m read from ``gamma``, by the
    digraph predicates and `automorphisms`.

    |Aut| = |G| suffices for Aut = R(G) because the right translations
    always embed; the report confirms the embedding from the translations.
    """
    G = gamma.group
    start = time.perf_counter()
    oriented, regular = is_oriented(gamma), is_k_regular(gamma, VALENCY)
    A = automorphisms(gamma)
    orbits = permlib.orbit_partition(A.generators, A.degree)
    return VerificationReport(
        group_label=G.label, m=gamma.m, group_order=G.order,
        construction_kind=construction_kind, omsr=bool(oriented and regular and A.order == G.order),
        oriented=oriented, regular2=regular, connected=is_connected(gamma),
        aut_order=A.order, stabilizer_order=A.order // len(orbits[0]),
        orbit_count=len(orbits), translations_embed=A.translations_embed,
        runtime_ms=(time.perf_counter() - start) * 1000.0)


def verify_table(G: Group, T: ConnectionTable, construction_kind: str = "custom"
                 ) -> VerificationReport:
    """`is_omsr`'s report on the digraph of T over G, which is built only
    where T does not settle it: T is 2-regular when each block row and
    column holds `VALENCY` elements, and then a closed `certify` gives
    Aut = R(G), the m blocks as orbits and strong connectivity, and
    `oriented_table_criterion` the orientation."""
    start = time.perf_counter()
    T.validate(G)
    sums = [0] * (2 * T.m)
    for (i, j), cell in T.entries.items():
        sums[i] += len(cell)
        sums[T.m + j] += len(cell)
    regular = sums == [VALENCY] * (2 * T.m)
    if not (regular and certify(G, T)):
        return is_omsr(build_mcayley(G, T), construction_kind)
    oriented = oriented_table_criterion(G, T)
    return VerificationReport(
        group_label=G.label, m=T.m, group_order=G.order,
        construction_kind=construction_kind, omsr=oriented,
        oriented=oriented, regular2=True, connected=True,
        aut_order=G.order, stabilizer_order=1, orbit_count=T.m, translations_embed=True,
        runtime_ms=(time.perf_counter() - start) * 1000.0)
