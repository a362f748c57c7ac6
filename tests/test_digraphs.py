"""m-Cayley digraph construction, predicates, translations, table text."""

import random

import pytest

from omsr.automorphisms import verify_table
from omsr.constructions import cyclic_connection_table, nonabelian_connection_table
from omsr.digraphs import (ConnectionTable, Digraph, build_mcayley, is_connected, is_k_regular,
                           is_oriented, oriented_table_criterion, parse_connection_table,
                           right_translation)
from omsr.errors import InputError, ParseError
from omsr.groups import (GroupElement, catalog_group, closure, element_order, generates,
                         normalize_generating_pair)
from omsr.perms import compose, is_bijection
from oracles import (arc_count, arcs, cycles, distance2_out_set, entries_of, grid_of,
                     induced_subdigraph, strongly_connected)


def random_table(G, m, rng, max_cell=2):
    entries = {}
    for i in range(m):
        for j in range(m):
            k = rng.randrange(max_cell + 1)
            entries[(i, j)] = rng.sample(range(G.order), min(k, G.order))
    return ConnectionTable(m, entries)


def test_connection_table_keeps_int_frozensets():
    shared = frozenset({1, 2})
    T = ConnectionTable(2, {(0, 0): frozenset(), (0, 1): shared, (1, 0): shared})
    assert T.entries[(0, 1)] is shared and T.entries[(1, 0)] is shared
    assert list(T.entries) == [(0, 1), (1, 0)]
    converted = ConnectionTable(1, {(0, 0): [GroupElement(1), 2]})
    assert converted.entries == {(0, 0): frozenset({1, 2})}
    assert all(type(t) is int for t in converted.entries[(0, 0)])
    booled = ConnectionTable(1, {(0, 0): frozenset({True})})
    assert all(type(t) is int for t in booled.entries[(0, 0)])
    G, _ = catalog_group("cyclic", [3])
    with pytest.raises(ValueError):
        ConnectionTable(1, {(0, 0): frozenset({5})}).validate(G)


def test_group_elements_are_ints():
    # An element is its index: a GroupElement is an int, and a float or a
    # string is no element, not even one that int() would read as one.
    G, pair = catalog_group("cyclic", [5])
    e = GroupElement(3)
    assert isinstance(e, int) and e == e.index == 3 and type(e.index) is int
    assert G.mul(e, pair.a) == G.mul(3, 1) == 4 and pair.a.index == 1
    for bad in (1.9, 0.0, "2"):
        for call in (lambda: ConnectionTable(1, {(0, 0): [bad]}),
                     lambda: ConnectionTable(1, {(0, 0): frozenset({1, bad})}),
                     lambda: G.mul(bad, 2), lambda: G.mul(2, bad),
                     lambda: element_order(G, bad), lambda: closure(G, [1, bad]),
                     lambda: cyclic_connection_table(G, bad, 2),
                     lambda: GroupElement(bad)):
            with pytest.raises(TypeError):
                call()
    # A negative index is refused, as one past the order is, not read from
    # the end of a table.
    for bad in (-1, -G.order):
        for call in (lambda: GroupElement(bad), lambda: G.mul(bad, 2), lambda: G.mul(2, bad),
                     lambda: G.inverse(bad), lambda: element_order(G, bad),
                     lambda: closure(G, [bad]), lambda: closure(G, [1, bad]),
                     lambda: generates(G, [bad]),
                     lambda: normalize_generating_pair(G, bad, 1),
                     lambda: cyclic_connection_table(G, bad, 2),
                     lambda: right_translation(G, 2, bad)):
            with pytest.raises(IndexError):
                call()
    with pytest.raises(IndexError):
        G.mul(G.order, 0)


def test_connection_table_keeps_nonempty_cells_in_row_major_order():
    T = ConnectionTable(3, {(2, 2): {1}, (0, 1): {0}, (1, 0): (), (0, 0): [2]})
    assert list(T.entries) == [(0, 0), (0, 1), (2, 2)]
    assert T == ConnectionTable(3, entries_of(grid_of(T)))
    assert grid_of(T)[2] == (frozenset(), frozenset(), frozenset({1}))


def test_connection_table_rejects_cell_out_of_range():
    # Every (i, j) must lie in [0, m), even for an empty cell; m must be positive.
    for m, cell in [(2, (2, 0)), (2, (0, 2)), (3, (-1, 1)), (3, (1, -1)), (1, (1, 1))]:
        for value in ({0}, ()):
            with pytest.raises(ValueError, match="out of range"):
                ConnectionTable(m, {cell: value})
    with pytest.raises(ValueError, match="positive"):
        ConnectionTable(0, {})
    # Each is the caller's input refused, an InputError (exit code 2), and
    # so is an entry outside G, also where `verify_table` meets it.
    Z3, _ = catalog_group("cyclic", [3])
    for refused in (lambda: ConnectionTable(2, {(2, 0): {0}}), lambda: ConnectionTable(0, {}),
                    lambda: ConnectionTable(1, {(0, 0): {5}}).validate(Z3),
                    lambda: verify_table(Z3, ConnectionTable(1, {(0, 0): {5}}))):
        with pytest.raises(InputError):
            refused()


def test_build_trivial():
    G, _ = catalog_group("cyclic", [1])
    d = build_mcayley(G, ConnectionTable(1, {}))
    assert d.n == 1
    assert arc_count(d) == 0


def test_build_z3_m2():
    G, pair = catalog_group("cyclic", [3])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
    assert d.n == 6
    assert arc_count(d) == 12
    assert all(len(d.out_adj[v]) == 2 for v in range(6))


def test_build_klein_m3_formal_case1():
    # The abelian-recipe shape written out by hand over the Klein group;
    # the recipe itself rejects this group (no generator of order >= 3).
    G, pair = catalog_group("elementary_abelian_2", [2])
    a, b = pair.a.index, pair.b.index
    ab = G.mul(a, b)
    t = ConnectionTable(3, {(0, 0): [a], (1, 1): [ab], (2, 2): [ab],
                     (0, 1): [0], (1, 2): [0], (2, 0): [b]})
    d = build_mcayley(G, t)
    assert d.n == 12
    assert all(len(d.out_adj[v]) == 2 for v in range(12))


def test_arc_rule():
    # (g_i, h_j) is an arc iff h = t*g for some t in T_ij.
    G, pair = catalog_group("cyclic", [4])
    a = pair.a.index
    t = ConnectionTable(2, {(0, 1): [a]})
    d = build_mcayley(G, t)
    for g in G.elements():
        assert G.order + G.mul(a, g) in d.out_adj[g]
    assert arc_count(d) == 4


def test_in_adj_is_transpose():
    G, _ = catalog_group("cyclic", [5])
    rng = random.Random(3)
    digraphs = [build_mcayley(G, random_table(G, 2, rng)) for _ in range(10)]
    # Out-lists given unsorted: the in-lists still come out sorted.
    digraphs += [Digraph(n, [rng.sample(range(n), rng.randint(0, min(4, n))) for _ in range(n)])
                 for n in (1, 5, 17, 40) for _ in range(3)]
    for d in digraphs:
        assert set(arcs(d)) == {(u, v) for v in range(d.n) for u in d.in_adj[v]}
        assert all(list(nbrs) == sorted(nbrs) for nbrs in d.in_adj)


def test_out_neighbors_lemma_values():
    # Cyclic recipe, m >= 3: out(1_0) = {a_0, 1_1}; out(1_{m-1}) = {ainv_{m-1}, a_0}.
    # Vertex g_i is i*|G| + g.
    G, pair = catalog_group("cyclic", [5])
    a = pair.a.index
    ainv = G.inverse(a)
    n, m = G.order, 3
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, m))
    assert set(d.out_adj[0]) == {a, n}
    assert set(d.out_adj[(m - 1) * n]) == {(m - 1) * n + ainv, a}


def test_out_neighbors_nonabelian_corner():
    # Non-abelian recipe: out(1_{m-1}) = {a_{m-1}, b_0}.
    G, pair = catalog_group("symmetric", [3])
    from omsr.groups import normalize_generating_pair
    a, b = normalize_generating_pair(G, pair.a, pair.b)
    n, m = G.order, 3
    d = build_mcayley(G, nonabelian_connection_table(G, a, b, m))
    assert set(d.out_adj[(m - 1) * n]) == {(m - 1) * n + a.index, b.index}


def test_is_oriented_examples():
    G, pair = catalog_group("cyclic", [5])
    assert is_oriented(build_mcayley(G, cyclic_connection_table(G, pair.a, 2)))
    Z2, _ = catalog_group("cyclic", [2])
    digon = build_mcayley(Z2, ConnectionTable(1, {(0, 0): [1]}))
    assert not is_oriented(digon)
    loop = build_mcayley(G, ConnectionTable(2, {(0, 0): [0]}))
    assert not is_oriented(loop)


def test_oriented_agrees_with_table_criterion():
    rng = random.Random(17)
    for name, params in [("cyclic", [3]), ("cyclic", [4]), ("elementary_abelian_2", [2])]:
        G, _ = catalog_group(name, params)
        for _ in range(40):
            m = rng.choice([1, 2, 3])
            t = random_table(G, m, rng)
            assert oriented_table_criterion(G, t) == is_oriented(build_mcayley(G, t))


def test_is_k_regular_examples():
    G, pair = catalog_group("cyclic", [3])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
    assert is_k_regular(d, 2)
    assert not is_k_regular(d, 1)
    sparse = build_mcayley(G, ConnectionTable(2, {(0, 0): [pair.a.index]}))
    assert not is_k_regular(sparse, 1)


def test_is_connected_examples():
    G, pair = catalog_group("cyclic", [5])
    assert is_connected(build_mcayley(G, cyclic_connection_table(G, pair.a, 2)))
    Z4, p4 = catalog_group("cyclic", [4])
    sq = Z4.mul(p4.a, p4.a)
    assert not is_connected(build_mcayley(Z4, ConnectionTable(2, {(0, 0): [sq]})))
    # 0 -> 1: the forward sweep covers V, but the degrees are unbalanced and
    # nothing reaches 0.
    path = Digraph(2, [[1], []])
    assert not is_connected(path) and not strongly_connected(path)


def test_weak_equals_strong_on_regular():
    # is_connected decides connectivity by one forward sweep on balanced
    # digraphs; the reference sweeps both ways.
    def weakly_connected(d):
        seen, queue = {0}, [0]
        for u in queue:
            for w in d.out_adj[u] + d.in_adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == d.n

    rng = random.Random(5)
    G, _ = catalog_group("cyclic", [4])
    seen_regular = 0
    for _ in range(200):
        t = random_table(G, 2, rng)
        d = build_mcayley(G, t)
        if is_k_regular(d, 2):
            seen_regular += 1
            assert weakly_connected(d) == strongly_connected(d) == is_connected(d)
    assert seen_regular > 0


def test_right_translation_identity_and_structure():
    G, pair = catalog_group("cyclic", [3])
    assert right_translation(G, 2, 0) == tuple(range(6))
    r = right_translation(G, 2, pair.a)
    assert is_bijection(r)
    assert sorted(len(c) for c in cycles(r)) == [3, 3]


def test_right_translation_homomorphism():
    # compose applies left first; R(g) then R(h) sends x to xgh = R(gh).
    G, _ = catalog_group("symmetric", [3])
    rng = random.Random(9)
    for _ in range(20):
        g, h = rng.randrange(6), rng.randrange(6)
        lhs = compose(right_translation(G, 2, g), right_translation(G, 2, h))
        assert lhs == right_translation(G, 2, G.mul(g, h))


def test_right_translation_preserves_arcs():
    rng = random.Random(23)
    G, _ = catalog_group("cyclic", [4])
    for _ in range(30):
        t = random_table(G, 2, rng)
        d = build_mcayley(G, t)
        arc_set = set(arcs(d))
        for g in G.elements():
            r = right_translation(G, 2, g)
            assert {(r[u], r[v]) for u, v in arc_set} == arc_set


def test_right_translations_semiregular_with_m_orbits():
    from omsr.perms import orbit_partition
    G, _ = catalog_group("cyclic", [5])
    m = 3
    perms = [right_translation(G, m, g) for g in range(1, G.order)]
    assert all(all(p[x] != x for x in range(m * G.order)) for p in perms)
    orbits = orbit_partition(perms, m * G.order)
    assert len(orbits) == m
    assert sorted(len(o) for o in orbits) == [G.order] * m


def test_distance2_sizes_cyclic():
    G, pair = catalog_group("cyclic", [5])
    m = 4
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, m))
    assert len(distance2_out_set(d, 0)) == 4
    for i in range(1, m - 1):
        assert len(distance2_out_set(d, i * G.order)) == 3


def test_distance2_m2_order3():
    G, pair = catalog_group("cyclic", [3])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
    assert len(distance2_out_set(d, G.order)) == 3


def test_induced_arc_counts_z7_m2():
    G, pair = catalog_group("cyclic", [7])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
    assert arc_count(induced_subdigraph(d, distance2_out_set(d, 0))) == 3
    assert arc_count(induced_subdigraph(d, distance2_out_set(d, G.order))) == 1


def test_induced_single_vertex():
    G, pair = catalog_group("cyclic", [5])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
    sub = induced_subdigraph(d, [0])
    assert sub.n == 1 and arc_count(sub) == 0


def test_arc_count_formula():
    rng = random.Random(31)
    for name, params in [("cyclic", [4]), ("elementary_abelian_2", [2])]:
        G, _ = catalog_group(name, params)
        for _ in range(20):
            m = rng.choice([2, 3])
            t = random_table(G, m, rng)
            d = build_mcayley(G, t)
            total = sum(map(len, t.entries.values()))
            assert arc_count(d) == G.order * total


def test_connection_table_text_round_trip():
    G, pair = catalog_group("cyclic", [5])
    t = cyclic_connection_table(G, pair.a, 3)
    assert parse_connection_table(t.to_text()) == t


def test_parse_connection_table_errors():
    with pytest.raises(ParseError) as info:
        parse_connection_table("m: 2\nT 0 5 : 1\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        parse_connection_table("T 0 0 : 1\n")
