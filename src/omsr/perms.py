"""Permutations as tuples of images, with a cycle-notation parser.

Composition convention used everywhere in this package: ``compose(p, q)``
applies ``p`` first, i.e. ``compose(p, q)[x] == q[p[x]]``.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import ParseError

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


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def from_cycle_string(text: str, degree: int | None = None, line: int = 1) -> Perm:
    """Parse cycle notation like ``(0 1 2)(3 4)``.

    The degree defaults to one past the largest point mentioned.
    """
    stripped = text.strip()
    if stripped in ("", "()"):
        return identity(degree or 0)
    pos = 0
    parsed = []
    for match in _CYCLE_RE.finditer(stripped):
        between = stripped[pos:match.start()]
        if between.strip():
            raise ParseError(f"unexpected text {between.strip()!r}", line, pos + 1)
        body = match.group(1).replace(",", " ").split()
        try:
            points = [int(tok) for tok in body]
        except ValueError:
            raise ParseError(f"bad cycle entry in {match.group(0)!r}", line, match.start() + 1)
        if any(x < 0 for x in points):
            raise ParseError("negative point in cycle", line, match.start() + 1)
        if len(set(points)) != len(points):
            raise ParseError(f"repeated point in cycle {match.group(0)!r}", line, match.start() + 1)
        parsed.append(points)
        pos = match.end()
    if stripped[pos:].strip():
        raise ParseError(f"unexpected trailing text {stripped[pos:].strip()!r}", line, pos + 1)
    top = max((max(c) for c in parsed if c), default=-1)
    n = degree if degree is not None else top + 1
    if top >= n:
        raise ParseError(f"point {top} out of range for degree {n}", line)
    images = list(range(n))
    for cyc in parsed:
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    seen = set()
    for cyc in parsed:
        for x in cyc:
            if x in seen:
                raise ParseError(f"point {x} appears in two cycles", line)
            seen.add(x)
    return tuple(images)


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
