"""Digraph automorphism groups via color refinement and backtracking.

The engine returns generators and the exact order of Aut, never its
elements.  One individualize-refine path fixes a base b_1..b_k; with G_i the
pointwise stabilizer of b_1..b_i, |Aut| = prod_i |b_i^{G_(i-1)}|, found
level by level, deepest first, as in nauty: each vertex of b_i's cell not yet
in b_i's orbit under the known generators is probed, and either yields a new
generator or rules out its whole orbit.  An m-Cayley digraph's right
translations are checked and seeded at the top level, so an OmSR costs one
path plus m - 1 block probes.  A vertex stabilizer's order is |Aut| over the
vertex's orbit length; orbits come from the generators.  A factorial
brute-force oracle cross-validates the engine on tiny digraphs.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import perms as permlib
from .digraphs import Digraph, MCayleyDigraph, is_connected, is_k_regular, is_oriented, right_translation
from .errors import BlockMismatch, TooLarge
from .groups import Group
from .reports import VerificationReport

DEFAULT_VERTEX_CAP = 512
BRUTE_FORCE_CAP = 8
ELEMENT_CAP = 10 ** 6


def vertex_cap() -> int:
    override = os.environ.get("OMSR_VERTEX_CAP")
    return int(override) if override else DEFAULT_VERTEX_CAP


@dataclass
class PermutationGroup:
    """Generators and exact order; elements are closed only on demand.  For
    Aut of an m-Cayley digraph, translations_embed says if R(G) embeds."""

    degree: int
    generators: List[tuple]
    order: int
    elements: Optional[List[tuple]] = None
    translations_embed: Optional[bool] = None

    def element_set(self) -> set:
        if self.elements is None:
            self.elements = _closure_elements(self.generators, self.degree)
            if len(self.elements) != self.order:
                raise ValueError("generator closure disagrees with recorded order")
        return set(self.elements)

    def to_json(self) -> str:
        return json.dumps({
            "degree": self.degree,
            "order": self.order,
            "generators": [permlib.to_cycle_string(g) for g in self.generators],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PermutationGroup":
        data = json.loads(text)
        gens = [permlib.from_cycle_string(s, degree=data["degree"])
                for s in data["generators"]]
        return cls(degree=data["degree"], generators=gens, order=data["order"])


def _closure_elements(generators, degree, cap=ELEMENT_CAP):
    ident = permlib.identity(degree)
    seen, queue = {ident}, [ident]
    for p in queue:
        for g in generators:
            q = permlib.compose(p, g)
            if q not in seen:
                if len(seen) >= cap:
                    raise TooLarge(f"group closure exceeds element cap {cap}")
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

def _normalize_colors(colors):
    mapping = {}
    return [mapping.setdefault(c, len(mapping)) for c in colors]


def _refine(out_adj, in_adj, colors, canonical):
    """Coarsest stable refinement of the input coloring.

    canonical=False numbers new colors by first occurrence in vertex order;
    canonical=True numbers by sorted signature so that colorings of
    corresponding search branches stay aligned.
    """
    n = len(colors)
    ncolors = len(set(colors))
    while True:
        sigs = [
            (colors[v],
             tuple(sorted(colors[w] for w in out_adj[v])),
             tuple(sorted(colors[w] for w in in_adj[v])))
            for v in range(n)
        ]
        if canonical:
            mapping = {s: i for i, s in enumerate(sorted(set(sigs)))}
        else:
            mapping = {s: i for i, s in enumerate(dict.fromkeys(sigs))}
        new = [mapping[s] for s in sigs]
        if len(mapping) == ncolors:
            return new
        colors = new
        ncolors = len(mapping)


def refine(d: Digraph, initial: Optional[Sequence[int]] = None) -> List[int]:
    """Stable coloring refining the input (uniform by default)."""
    colors = _normalize_colors(initial) if initial is not None else [0] * d.n
    if len(colors) != d.n:
        raise ValueError("initial coloring length must match vertex count")
    return _refine(d.out_adj, d.in_adj, colors, canonical=False)


# --- search ------------------------------------------------------------------

def _is_automorphism(d: Digraph, p) -> bool:
    out_sets = d.out_sets
    for u in range(d.n):
        if {p[w] for w in d.out_adj[u]} != out_sets[p[u]]:
            return False
    return True


def _profile(colors):
    """Cell sizes by color; refined colorings use colors 0..k-1."""
    counts = [0] * (max(colors, default=-1) + 1)
    for c in colors:
        counts[c] += 1
    return tuple(counts)


def _individualize(out_adj, in_adj, colors, v):
    fresh = list(colors)
    fresh[v] = max(colors) + 1
    return _refine(out_adj, in_adj, fresh, canonical=True)


def _orbit(generators, v):
    seen, queue = {v}, [v]
    for x in queue:
        for s in generators:
            if s[x] not in seen:
                seen.add(s[x])
                queue.append(s[x])
    return seen


def _aut_elements(d: Digraph):
    """(generators, |Aut|, translations_embed) by the search in the module
    docstring; translations_embed is None unless d is an m-Cayley digraph."""
    out_adj, in_adj, n = d.out_adj, d.in_adj, d.n
    path = [_refine(out_adj, in_adj, [0] * n, canonical=True)]
    base: List[int] = []
    while len(set(path[-1])) < n:
        # First vertex of the smallest non-singleton cell (colors are 0..k-1).
        target = min((size, c) for c, size in enumerate(_profile(path[-1])) if size > 1)[1]
        base.append(path[-1].index(target))
        path.append(_individualize(out_adj, in_adj, path[-1], base[-1]))
    profiles = [_profile(c) for c in path]

    def probe(level, colors, u):
        """First automorphism fixing base[:level] that maps base[level] to u."""
        c2 = _individualize(out_adj, in_adj, colors, u)
        if _profile(c2) != profiles[level + 1]:
            return None
        if level + 1 == len(base):
            where = {c: w for w, c in enumerate(c2)}
            perm = tuple(where[c] for c in path[-1])
            return perm if _is_automorphism(d, perm) else None
        target = path[level + 1][base[level + 1]]
        for w in range(n):
            if c2[w] == target:
                found = probe(level + 1, c2, w)
                if found is not None:
                    return found
        return None

    seeds, embed = [], None
    if isinstance(d, MCayleyDigraph):
        translations = [right_translation(d.group, d.m, g) for g in d.group.elements()]
        passed = [t for t in translations if _is_automorphism(d, t)]
        embed = len(passed) == len(translations)
        # R(G) acts semiregularly, so a translation that maps vertex 0 into
        # its orbit under the kept ones already lies in their group.
        orbit0 = {0}
        for t in passed:
            if t[0] not in orbit0:
                seeds.append(t)
                orbit0 = _orbit(seeds, 0)

    gens, order = [], 1
    for level in reversed(range(len(base))):
        known = gens + seeds if level == 0 else list(gens)
        colors, b = path[level], base[level]
        orbit, failed = _orbit(known, b), set()
        for u in range(n):
            if colors[u] != colors[b] or u in orbit or u in failed:
                continue
            g = probe(level, colors, u)
            if g is None:
                failed |= _orbit(known, u)
            else:
                gens.append(g)
                known.append(g)
                orbit = _orbit(known, b)
        order *= len(orbit)
    return seeds + gens, order, embed


def automorphisms(d: Digraph, cap: Optional[int] = None) -> PermutationGroup:
    """Full automorphism group by individualize-refine backtracking."""
    limit = cap if cap is not None else vertex_cap()
    if d.n > limit:
        raise TooLarge(f"{d.n} vertices exceeds cap {limit}")
    gens, order, embed = _aut_elements(d)
    return PermutationGroup(degree=d.n, generators=gens, order=order,
                            translations_embed=embed)


def aut_order_bounded(d: Digraph, threshold: int) -> Optional[int]:
    """Exact |Aut| when it is <= threshold, else None."""
    order = _aut_elements(d)[1]
    return order if order <= threshold else None


def brute_force_automorphisms(d: Digraph) -> PermutationGroup:
    """Oracle: filter all N! bijections by arc preservation (N <= 8)."""
    if d.n > BRUTE_FORCE_CAP:
        raise TooLarge(f"brute force limited to {BRUTE_FORCE_CAP} vertices")
    elements = [p for p in itertools.permutations(range(d.n)) if _is_automorphism(d, p)]
    gens = _generating_subset(elements, d.n)
    return PermutationGroup(degree=d.n, generators=gens,
                            order=len(elements), elements=elements)


def stabilizer(A: PermutationGroup, v: int) -> PermutationGroup:
    """Subgroup of A fixing the vertex v, by orbit-stabilizer; its
    generators are the Schreier generators u_x s u_{x^s}^-1."""
    reps = {v: permlib.identity(A.degree)}
    queue = [v]
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


def is_omsr(gamma: MCayleyDigraph, G: Group, m: int, valency: int = 2,
            construction_kind: str = "custom") -> VerificationReport:
    """Verdict: oriented, regular of the given valency, and |Aut| = |G|.

    |Aut| = |G| suffices for Aut = R(G) because the right translations
    always embed; the report still confirms the embedding explicitly, from
    the translations the search checked before seeding them.
    """
    if gamma.n != m * G.order:
        raise BlockMismatch(f"vertex count {gamma.n} != m*|G| = {m * G.order}")
    start = time.perf_counter()
    oriented = is_oriented(gamma)
    regular = is_k_regular(gamma, valency)
    connected = is_connected(gamma)
    A = automorphisms(gamma)
    verdict = bool(oriented and regular and A.order == G.order)
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        group_label=G.label or f"order-{G.order}", m=m, group_order=G.order,
        construction_kind=construction_kind, omsr=verdict,
        oriented=oriented, regular2=regular, connected=connected,
        aut_order=A.order, stabilizer_order=A.order // len(_orbit(A.generators, 0)),
        orbit_count=orbit_count(A), translations_embed=A.translations_embed,
        runtime_ms=elapsed)
