"""Permutations as tuples of images, with a cycle-notation parser.

Composition convention used everywhere in this package: ``compose(p, q)``
applies ``p`` first, i.e. ``compose(p, q)[x] == q[p[x]]``.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import ParseError, read_int, tokens

Perm = tuple


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Apply p first, then q."""
    return tuple(q[p[x]] for x in range(len(p)))


def inverse(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def is_bijection(p: Sequence[int]) -> bool:
    n = len(p)
    return sorted(p) == list(range(n))


def parse_cycles(text: str, line: int = 1) -> list:
    """The cycles of cycle notation like ``(0 1 2)(3 4)`` as lists of points,
    each an integer >= 0 named once (README, "Group specs")."""
    cycles, seen, pos = [], set(), 0
    for match in re.finditer(r"\(([^()]*)\)", text):
        between = text[pos:match.start()]
        if between.strip():
            raise ParseError(f"unexpected text {between.strip()!r}", line, pos + 1)
        cycle = []
        for col, tok in tokens(match.group(1).replace(",", " "), match.start(1)):
            x = read_int(tok, line, col, "point")
            if x < 0:
                raise ParseError("negative point in cycle", line, col)
            if x in seen:
                raise ParseError(f"point {x} named twice", line, col)
            seen.add(x)
            cycle.append(x)
        cycles.append(cycle)
        pos = match.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected trailing text {text[pos:].strip()!r}", line, pos + 1)
    return cycles


def from_cycles(cycles, points) -> Perm:
    """The permutation with these cycles of the sorted points, numbered from 0."""
    rank = {x: i for i, x in enumerate(points)}
    images = list(range(len(rank)))
    for cycle in cycles:
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            images[rank[x]] = rank[y]
    return tuple(images)


def from_cycle_string(text: str) -> Perm:
    """Parse cycle notation like ``(0 1 2)(3 4)`` as a permutation of the
    points from 0 to the largest one named."""
    cycles = parse_cycles(text)
    return from_cycles(cycles, range(1 + max((x for cycle in cycles for x in cycle), default=-1)))


def pad(p: Sequence[int], n: int) -> Perm:
    """Extend p with fixed points up to degree n."""
    return tuple(p) + tuple(range(len(p), n))


def orbit(generators: Sequence[Sequence[int]], v: int) -> set:
    """Orbit of the point v under the group generated by the permutations,
    by breadth-first search."""
    seen, queue = {v}, [v]
    for x in queue:
        for g in generators:
            if g[x] not in seen:
                seen.add(g[x])
                queue.append(g[x])
    return seen


def orbit_partition(generators: Iterable[Sequence[int]], n: int) -> list:
    """Orbits of the group generated by the permutations, as sorted lists,
    in order of least point."""
    generators = list(generators)
    parts, covered = [], set()
    for v in range(n):
        if v not in covered:
            part = orbit(generators, v)
            covered |= part
            parts.append(sorted(part))
    return parts
