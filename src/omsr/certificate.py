"""The rigid-block certificate (McConnell, Mehlhorn, Näher and Schweitzer,
Certifying algorithms, 2011): Aut = R(G) for the m-Cayley digraph of a
table T over G, read off T and G alone, with nothing from the engine or
the sweep.  The arcs (x, i) -> (t x, j), t in T[i][j], commute with right
multiplication, so R(G) <= Aut, and four steps give |Aut| = |G|.  (1) The
in- and out-ball sizes, radius <= 3, at (e, i), grown by breadth-first
layers, are constant on block i.  (2) Refined on the m-block quotient, with
an arc i -> j per entry of T[i][j], until no class splits or every block
has its own colour, they colour the blocks so that every automorphism keeps
each class.  (3) If block 0 is a class alone, it is the orbit of b = (e, 0).
(4) An automorphism fixing a vertex fixes its out- (in-) neighbours when
their colours differ.  A walk from b along such arcs, with voltage t along
an arc of T[i][j] and t^-1 against one, reaches (w, j), w its voltage; so
if it reaches every block, and the Schreier voltages of its arcs inside
block 0's strong component generate G, it reaches every vertex, and only
the identity fixes b.  The orbits are then the blocks, and a 2-regular
digraph, searched along and against arcs, is strongly connected.
"""

from __future__ import annotations

from .groups import Group, closure


def _walks(G: Group, arcs) -> dict:
    """The voltage of a breadth-first walk from block 0 to each block it
    reaches, where arcs[i] holds block i's (voltage, block) pairs."""
    voltage, queue = {0: 0}, [0]
    for i in queue:
        for t, j in arcs[i]:
            if j not in voltage:
                voltage[j] = G.mult[t][voltage[i]]
                queue.append(j)
    return voltage


def _refine(colors: list, adjs) -> list:
    """The coarsest refinement of the block colours in which the blocks of a
    class have, in each of ``adjs``, as many arcs to each class, by a
    splitter queue that leaves out one largest fragment of each split class
    not itself queued (Hopcroft's smaller half), and stops at a discrete
    colouring.  ``colors``, of hashable values, is recoloured in place with
    a new int for each new class."""
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, set()).add(i)
    queue, fresh = set(classes), len(colors)
    while queue and len(classes) < len(colors):
        s, counts, hits = queue.pop(), {}, {}
        for k, adj in enumerate(adjs):
            for w in classes[s]:
                for _, u in adj[w]:
                    counts.setdefault(u, [0] * len(adjs))[k] += 1
        for u, count in counts.items():
            hits.setdefault(colors[u], {}).setdefault(tuple(count), set()).add(u)
        for c, groups in hits.items():
            cell, frags = classes[c], list(groups.values())
            for f in frags:
                cell -= f
            if not cell:
                cell |= frags.pop()
            skip = None if c in queue else max([cell, *frags], key=len)
            if skip is not None and skip is not cell:
                queue.add(c)
            for f in frags:
                fresh += 1
                classes[fresh] = f
                for u in f:
                    colors[u] = fresh
                if f is not skip:
                    queue.add(fresh)
    return colors


def _ball_sizes(G: Group, adjs) -> list:
    """Step 1: per block i, the sizes of the balls of radius 1, 2, 3 at (e, i)
    in each of ``adjs``; a (product, block) pair is seen as product * m + block."""
    m, mult, keys = len(adjs[0]), G.mult, []
    for i in range(m):
        keys.append(key := [])
        for adj in adjs:
            seen, layer = {i}, [(0, i)]
            for _ in range(3):
                last, layer = layer, []
                for x, j in last:
                    for t, k in adj[j]:
                        y = mult[t][x]
                        if (code := y * m + k) not in seen:
                            seen.add(code)
                            layer.append((y, k))
                key.append(len(seen))
    return list(map(tuple, keys))


def certify(G: Group, T) -> bool:
    """Whether the certificate of the module docstring closes on the
    digraph of the table T over G."""
    m, mult, inv = T.m, G.mult, G.inv
    adjs = out, into = [[] for _ in range(m)], [[] for _ in range(m)]
    for (i, j), cell in T.entries.items():
        for t in cell:
            out[i].append((t, j))
            into[j].append((inv[t], i))
    colors = _refine(_ball_sizes(G, adjs), adjs)  # steps 1 and 2, then step 3
    if colors.count(colors[0]) > 1:
        return False
    # Step 4: a fixed vertex of block i fixes the heads of follow[i].
    follow = [[arc for adj in adjs if len({colors[j] for _, j in adj[i]}) == len(adj[i])
               for arc in adj[i]] for i in range(m)]
    voltage, back = _walks(G, follow), [[] for _ in range(m)]
    if len(voltage) < m:
        return False
    for i, arcs in enumerate(follow):
        for t, j in arcs:
            back[j].append((t, i))
    strong = _walks(G, back)
    schreier = {mult[mult[inv[voltage[j]]][t]][voltage[i]]
                for i in strong for t, j in follow[i] if j in strong}
    return len(closure(G, schreier)) == G.order
