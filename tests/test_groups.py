"""Finite group construction, validation, catalog families, generation."""

import hashlib
import importlib
import itertools
import random

import numpy as np
import pytest

from omsr.cli import group_roster
from omsr.constructions import _is_klein_four, recipe_table
from omsr.errors import NotAGroup, NotGenerating, ParseError, TooLarge, UnknownFamily
from omsr.groups import (ORDER_CAP,
                         GroupElement, automorphism_generators, catalog_group, closure,
                         element_order,
                         find_generating_pair, generates, generating_set,
                         group_from_cayley_table,
                         group_from_permutation_generators, is_abelian, is_cyclic,
                         normalize_generating_pair, parse_group_spec)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_trivial_group():
    G = group_from_cayley_table([[0]])
    assert G.order == 1
    assert G.inv == (0,)


def test_order_two():
    G = group_from_cayley_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.mul(1, 1) == 0
    assert element_order(G, 1) == 2


def test_identity_relabeled_to_zero():
    # Z3 written with the identity at index 2.
    relabel = [1, 2, 0]  # old -> new names so that old 2 becomes 0... build directly:
    n = 3
    old = cyclic_table(n)
    perm = {0: 2, 1: 0, 2: 1}  # old identity 0 moves to slot 2
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[old[i][j]]
    G = group_from_cayley_table(table)
    assert G.mult[0] == (0, 1, 2)
    assert all(G.mul(0, x) == x and G.mul(x, 0) == x for x in G.elements())
    assert element_order(G, 1) == 3


def test_non_latin_square_rejected():
    with pytest.raises(NotAGroup):
        group_from_cayley_table([[0, 1], [1, 1]])


def test_non_associative_rejected_with_witness():
    G, _ = catalog_group("symmetric", [3])
    table = [list(row) for row in G.mult]
    # Swap two entries in one row: keeps the Latin property in that row's
    # multiset but breaks associativity somewhere.
    table[3][4], table[3][5] = table[3][5], table[3][4]
    with pytest.raises(NotAGroup):
        group_from_cayley_table(table)


def test_no_identity_rejected():
    # Latin square with no two-sided identity element.
    table = [[1, 0, 2], [0, 2, 1], [2, 1, 0]]
    with pytest.raises(NotAGroup):
        group_from_cayley_table(table)


def test_perm_generators_cyclic():
    G, gens = group_from_permutation_generators([(1, 2, 0)])
    assert G.order == 3
    assert element_order(G, gens[0]) == 3


def test_perm_generators_s3():
    G, gens = group_from_permutation_generators([(1, 2, 0), (1, 0, 2)])
    assert G.order == 6
    assert not is_abelian(G)


def test_perm_generators_klein():
    G, _ = group_from_permutation_generators([(1, 0, 3, 2), (2, 3, 0, 1)])
    assert G.order == 4
    assert all(element_order(G, g) == 2 for g in range(1, 4))


def test_perm_generators_cap():
    # S7 has 5,040 elements, past the order cap of 2,000.
    assert ORDER_CAP == 2000
    with pytest.raises(TooLarge, match="closure exceeds order cap 2000"):
        group_from_permutation_generators([(1, 2, 3, 4, 5, 6, 0), (1, 0)])


def test_catalog_cyclic():
    G, pair = catalog_group("cyclic", [5])
    assert G.order == 5
    assert element_order(G, pair.a) == 5
    assert pair.b is None


def test_catalog_klein():
    G, pair = catalog_group("elementary_abelian_2", [2])
    assert G.order == 4
    assert is_abelian(G) and not is_cyclic(G)
    assert generates(G, (pair.a, pair.b))
    ab = G.mul(pair.a, pair.b)
    assert element_order(G, ab) == 2


def test_catalog_a5():
    G, pair = catalog_group("alternating", [5])
    assert G.order == 60
    assert generates(G, (pair.a, pair.b))


def test_catalog_dihedral_quaternion():
    D4, p = catalog_group("dihedral", [4])
    assert D4.order == 8 and not is_abelian(D4)
    assert generates(D4, (p.a, p.b))
    Q8, q = catalog_group("dicyclic", [2])
    assert Q8.order == 8 and not is_abelian(Q8)
    # Q8 has a unique involution.
    assert sum(1 for g in Q8.elements() if element_order(Q8, g) == 2) == 1


def test_catalog_unknown():
    with pytest.raises(UnknownFamily):
        catalog_group("sporadic", [1])
    with pytest.raises(TooLarge):
        catalog_group("cyclic", [5000])


def test_catalog_refuses_by_exact_order_before_building(monkeypatch):
    # Dihedral k has order 2k and dicyclic k order 4k: D1001 (2,002) and
    # Q2004 (2,004) pass a check on the parameter alone.
    def no_table(*args, **kwargs):
        raise AssertionError("a Cayley table was built past the order cap")

    monkeypatch.setattr("omsr.groups.group_from_cayley_table", no_table)
    for name, param, order in [("dihedral", 1001, 2002), ("dicyclic", 501, 2004)]:
        with pytest.raises(TooLarge, match=f"group order {order} exceeds cap 2000"):
            catalog_group(name, [param])


def test_element_order_examples():
    G, pair = catalog_group("cyclic", [5])
    assert element_order(G, 0) == 1
    assert element_order(G, pair.a) == 5
    K, kp = catalog_group("elementary_abelian_2", [2])
    assert element_order(K, K.mul(kp.a, kp.b)) == 2


def test_lagrange():
    for name, params in [("cyclic", [12]), ("dihedral", [5]),
                         ("symmetric", [4]), ("dicyclic", [3])]:
        G, _ = catalog_group(name, params)
        for g in G.elements():
            assert G.order % element_order(G, g) == 0


def test_is_abelian_examples():
    assert is_abelian(catalog_group("cyclic", [5])[0])
    assert not is_abelian(catalog_group("symmetric", [3])[0])
    assert is_abelian(catalog_group("elementary_abelian_2", [2])[0])


def test_generates_examples():
    Z5, p5 = catalog_group("cyclic", [5])
    assert generates(Z5, (p5.a,))
    Z4, p4 = catalog_group("cyclic", [4])
    sq = Z4.mul(p4.a, p4.a)
    assert not generates(Z4, (sq,))
    S3, p = catalog_group("symmetric", [3])
    assert generates(S3, (p.a, p.b))


def test_closure_is_subgroup():
    Z12, p = catalog_group("cyclic", [12])
    sub = closure(Z12, (Z12.mul(p.a, Z12.mul(p.a, p.a)),))  # <a^3>
    assert len(sub) == 4


def test_normalize_pair_klein():
    K, kp = catalog_group("elementary_abelian_2", [2])
    with pytest.raises(NotGenerating, match="no generator of order >= 3"):
        normalize_generating_pair(K, kp.a, kp.b)


def test_normalize_pair_swaps():
    S3, _ = catalog_group("symmetric", [3])
    two = next(g for g in S3.elements() if element_order(S3, g) == 2)
    three = next(g for g in S3.elements() if element_order(S3, g) == 3)
    a, b = normalize_generating_pair(S3, two, three)
    assert (a.index, b.index) == (three, two)


def test_normalize_pair_z2xz4():
    G, _ = catalog_group("cyclic_product", [2, 4])
    # pick a of order 2 and b of order 4 that together generate
    four = next(g for g in G.elements() if element_order(G, g) == 4)
    invol = next(g for g in range(1, G.order)
                 if element_order(G, g) == 2 and generates(G, (g, four)))
    a, b = normalize_generating_pair(G, invol, four)
    assert element_order(G, a) >= 3


def test_normalize_pair_not_generating():
    Z4, p = catalog_group("cyclic", [4])
    sq = Z4.mul(p.a, p.a)
    with pytest.raises(NotGenerating):
        normalize_generating_pair(Z4, sq, 0)


def test_normalize_pair_always_generates():
    for name, params in [("symmetric", [3]), ("dihedral", [4]),
                         ("cyclic_product", [3, 3]), ("dicyclic", [2])]:
        G, p = catalog_group(name, params)
        a, b = normalize_generating_pair(G, p.a, p.b)
        assert element_order(G, a) >= 3
        assert generates(G, (a, b))


def test_find_generating_pair():
    for name, params in [("cyclic", [7]), ("symmetric", [4]),
                         ("elementary_abelian_2", [2])]:
        G, _ = catalog_group(name, params)
        pair = find_generating_pair(G)
        gens = (pair.a,) if pair.b is None else (pair.a, pair.b)
        assert generates(G, gens)


def test_round_trip_table():
    G, _ = catalog_group("dihedral", [3])
    H = group_from_cayley_table([list(r) for r in G.mult])
    assert H.mult == G.mult
    assert H.inv == G.inv


def test_associativity_rejects_large_loop():
    # Z_n with one intercalate swapped: rows 1 and 1 + n/2 exchange their
    # entries in columns 1 and 1 + n/2.  Identity, Latin property and
    # inverses survive; associativity fails on about 16n of the n^3 triples.
    n = 514
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    a, b = 1, 1 + n // 2
    table[[a, a, b, b], [a, b, a, b]] = table[[a, a, b, b], [b, a, b, a]]
    with pytest.raises(NotAGroup) as info:
        group_from_cayley_table(table)
    x, y, z = info.value.witness
    assert table[table[x, y], z] != table[x, table[y, z]]


def random_loop(n, rng, two_sided):
    """A random Latin square with identity row and column 0, filled cell by
    cell in row-major order with backtracking.  With ``two_sided`` every
    right inverse is also a left inverse, so only associativity can fail."""
    table = [[(i if j == 0 else j if i == 0 else None) for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i]) | {table[r][j] for r in range(n)}
        choices = [v for v in range(n) if v not in used
                   and not (two_sided and j < i and (v == 0) != (table[j][i] == 0))]
        rng.shuffle(choices)
        for v in choices:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    return table


def associative(table):
    n = len(table)
    return all(table[table[x][a]][y] == table[x][table[a][y]]
               for x, a, y in itertools.product(range(n), repeat=3))


def test_light_associativity_matches_brute_force_on_random_loops():
    rng = random.Random(1961)
    outcomes = {"group": 0, "witness": 0, "inverse": 0}
    for k in range(1000):
        table = random_loop(rng.randint(1, 8), rng, two_sided=k % 2 == 0)
        if associative(table):
            outcomes["group"] += 1
            assert group_from_cayley_table(table).mult == tuple(map(tuple, table))
            continue
        with pytest.raises(NotAGroup) as info:
            group_from_cayley_table(table)
        if info.value.witness is None:
            # Rejected before the associativity check: some element has a
            # right inverse that is not a left inverse.
            outcomes["inverse"] += 1
            assert any(table[row.index(0)][x] != 0 for x, row in enumerate(table))
            continue
        outcomes["witness"] += 1
        x, a, y = info.value.witness
        assert table[table[x][a]][y] != table[x][table[a][y]]
    assert min(outcomes.values()) >= 100, outcomes


def relabel(table, f):
    """The table with each element x renamed f[x]."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for x, y in itertools.product(range(n), repeat=2):
        out[f[x]][f[y]] = f[table[x][y]]
    return out


def test_failure_witnesses_use_input_indices():
    # An order-5 loop renamed 0->2, 1->0, 2->1, so its identity is not at
    # index 0: the witness must fail associativity in the table as given.
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    table = relabel(loop, [2, 0, 1, 3, 4])
    with pytest.raises(NotAGroup) as info:
        group_from_cayley_table(table)
    x, a, y = info.value.witness
    assert table[table[x][a]][y] != table[x][table[a][y]]
    assert f"({x},{a},{y})" in str(info.value)
    # Identity at index 1, so input element 0 is relabeled 1: the first
    # broken row, and then column, is the input's 0.
    with pytest.raises(NotAGroup, match=r"^row 0 "):
        group_from_cayley_table([[1, 0, 0], [0, 1, 2], [0, 2, 1]])
    with pytest.raises(NotAGroup, match=r"^column 0 "):
        group_from_cayley_table([[1, 0, 2], [0, 1, 2], [0, 2, 1]])


def test_failure_witnesses_use_input_indices_on_random_loops():
    rng = random.Random(2022)
    for k in range(300):
        n = rng.randint(2, 7)
        loop = random_loop(n, rng, two_sided=k % 2 == 0)
        f = rng.sample(range(n), n)
        table = relabel(loop, f)
        e = f[0]
        try:
            group_from_cayley_table(table)
        except NotAGroup as exc:
            if exc.witness is not None:
                x, a, y = exc.witness
                assert table[table[x][a]][y] != table[x][table[a][y]]
            else:
                x = int(str(exc).split()[1])
                assert not any(table[x][y] == table[y][x] == e for y in range(n))
        else:
            assert associative(table)


@pytest.mark.parametrize("table", [
    [[0, 1.9], [1, 0]],        # a float, which would truncate to 1
    [["0", "1"], ["1", "0"]],  # strings, which would be coerced
    [[0, 1], [1]],             # ragged rows
], ids=["float", "string", "ragged"])
def test_malformed_table_is_not_a_group(table):
    with pytest.raises(NotAGroup):
        group_from_cayley_table(table)


# SHA-256 over (mult, inv, generating pair) of every catalog group below.
# Computed at the commit before the tables were built in numpy; it pins the
# element numbering that the packaged witness files and every `reproduce`
# row rely on.
CATALOG_TABLES_SHA256 = "c9c15c831036f17c16da5f573017632713f2dd1e837f94e43e09366d6e11fd8d"


def test_catalog_tables_pinned():
    groups = group_roster(24) + [catalog_group(name, params) for name, params in [
        ("cyclic", [500]), ("dihedral", [250]), ("dicyclic", [50]), ("symmetric", [5])]]
    digest = hashlib.sha256()
    for G, pair in groups:
        b = None if pair.b is None else pair.b.index
        digest.update(repr((G.mult, G.inv, (pair.a.index, b))).encode())
    assert digest.hexdigest() == CATALOG_TABLES_SHA256


def test_generating_set():
    assert generating_set(group_from_cayley_table([[0]])) == []
    for family, params in [("cyclic", [12]), ("elementary_abelian_2", [2]),
                           ("dihedral", [5]), ("quaternion", [2]), ("alternating", [5])]:
        G, _ = catalog_group(family, params)
        gens = generating_set(G)
        assert generates(G, gens)
        for k, g in enumerate(gens):
            assert g not in closure(G, gens[:k])


def brute_force_automorphism_count(G):
    """Identity-fixing bijections that are homomorphisms, all of them tried."""
    n = G.order
    count = 0
    for rest in itertools.permutations(range(1, n)):
        alpha = (0,) + rest
        count += all(alpha[G.mult[x][y]] == G.mult[alpha[x]][alpha[y]]
                     for x in range(n) for y in range(n))
    return count


def generated_maps(maps, n):
    """The group of element maps that ``maps`` generate, by breadth-first
    composition from the identity."""
    seen, queue = {tuple(range(n))}, [tuple(range(n))]
    for beta in queue:
        for alpha in maps:
            gamma = tuple(alpha[x] for x in beta)
            if gamma not in seen:
                seen.add(gamma)
                queue.append(gamma)
    return seen


def check_automorphism_generators(G, order):
    gens = automorphism_generators(G)
    n = G.order
    for alpha in gens:
        assert sorted(alpha) == list(range(n)) and alpha != tuple(range(n))
        assert all(alpha[G.mult[x][y]] == G.mult[alpha[x]][alpha[y]]
                   for x in range(n) for y in range(n)), G
    assert len(generated_maps(gens, n)) == order, G
    # Each kept map at least doubles the group generated so far.
    assert 2 ** len(gens) <= order
    assert automorphism_generators(G) == gens


def test_automorphism_generators_against_brute_force():
    small = [G for G, _ in group_roster(16) if G.order <= 7]
    assert [G.label for G in small] == ["Z1", "Z2", "Z3", "Z2xZ2", "Z4", "Z5", "D3", "Z6", "Z7"]
    for G in small:
        check_automorphism_generators(G, brute_force_automorphism_count(G))
    known = {"D4": 8, "Z2xZ4": 8, "Q8": 24, "Z8": 4}
    eight = {G.label: G for G, _ in group_roster(8) if G.order == 8}
    assert set(eight) == set(known)
    for label, order in known.items():
        check_automorphism_generators(eight[label], order)
    # |GL(4, 2)| = 20,160 and |GL(2, 3)| = 48.
    z2e4, _ = parse_group_spec("kind: perms\n(0 1)\n(2 3)\n(4 5)\n(6 7)\n")
    check_automorphism_generators(z2e4, 20160)
    check_automorphism_generators(catalog_group("cyclic_product", [3, 3])[0], 48)


def test_automorphism_generators_on_relabelled_groups():
    # The search reads only the multiplication table, so a relabelled copy
    # has an automorphism group of the same order.  A relabelled Z8, Z2xZ4
    # or D4 may get a greedy generating set with a redundant element, whose
    # images of the right orders can define a bijection along the word tree
    # that is not a homomorphism: there the homomorphism check decides.
    rng = random.Random(24)
    cases = [(("elementary_abelian_2", [2]), 6, 3), (("quaternion", [2]), 24, 3),
             (("dihedral", [3]), 6, 3), (("cyclic", [8]), 4, 10),
             (("cyclic_product", [2, 4]), 8, 10), (("dihedral", [4]), 8, 10)]
    for (family, params), order, copies in cases:
        G0, _ = catalog_group(family, params)
        n = G0.order
        for _ in range(copies):
            rest = list(range(1, n))
            rng.shuffle(rest)
            sigma = [0] + rest
            table = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    table[sigma[x]][sigma[y]] = sigma[G0.mult[x][y]]
            check_automorphism_generators(group_from_cayley_table(table), order)


def test_parse_group_spec_catalog():
    G, pair = parse_group_spec("kind: catalog\nname: cyclic\nparams: 6\n")
    assert G.order == 6 and pair is not None


def test_parse_group_spec_catalog_without_params_line():
    # No 'params:' line means no parameters, which the family's arity refuses.
    with pytest.raises(UnknownFamily, match="takes 1 parameter"):
        parse_group_spec("kind: catalog\nname: cyclic\n")


def test_parse_group_spec_table():
    text = "kind: table\nn: 2\n0 1\n1 0\n"
    G, _ = parse_group_spec(text)
    assert G.order == 2


def test_parse_group_spec_perms():
    text = "kind: perms\n(0 1 2)\n(0 1)\n"
    G, _ = parse_group_spec(text)
    assert G.order == 6


def test_parse_group_spec_errors_have_location():
    with pytest.raises(ParseError) as info:
        parse_group_spec("kind: table\nn: 2\n0 1\n1 x\n")
    assert info.value.line == 4
    with pytest.raises(ParseError):
        parse_group_spec("nonsense\n")
    with pytest.raises(ParseError):
        parse_group_spec("")


def naive_closure(G, gens):
    """Products of the set with itself, added until nothing new appears."""
    span = {0} | {int(g) for g in gens}
    while True:
        grown = span | {G.mult[x][y] for x in span for y in span}
        if grown == span:
            return span
        span = grown


def naive_order(G, g):
    """Left powers g, g^2, ... counted up to the identity."""
    k, power = 1, g
    while power != 0:
        power, k = G.mult[g][power], k + 1
    return k


def roster_with_relabellings(max_order, seed):
    rng = random.Random(seed)
    for G, _ in group_roster(max_order):
        yield G
        sigma = [0] + rng.sample(range(1, G.order), G.order - 1)
        table = [[0] * G.order for _ in range(G.order)]
        for x in G.elements():
            for y in G.elements():
                table[sigma[x]][sigma[y]] = sigma[G.mult[x][y]]
        yield group_from_cayley_table(table, label=G.label)


def test_primitives_match_naive_products_on_roster():
    rng = random.Random(24)
    for G in roster_with_relabellings(24, seed=17):
        orders = [naive_order(G, g) for g in G.elements()]
        assert [element_order(G, g) for g in G.elements()] == orders, G
        for size in (1, 1, 2, 2, 3):
            gens = rng.sample(range(G.order), min(size, G.order))
            assert closure(G, gens) == naive_closure(G, gens), (G, gens)
            assert closure(G, [GroupElement(g) for g in gens]) == naive_closure(G, gens)
        assert is_cyclic(G) == (G.order in orders), G
        assert _is_klein_four(G) == (G.order == 4 and max(orders) == 2), G



def test_abelian_and_cyclic_decided_once_per_group(monkeypatch):
    # recipe_table asks both at every m: a group decides each once, keeps
    # the answer in its _memo, and answers again without a product.
    groups = importlib.import_module("omsr.groups")
    orders, transposes = [], []
    element_order_, zip_ = groups.element_order, zip
    monkeypatch.setattr(groups, "element_order",
                        lambda G, g: orders.append(g) or element_order_(G, g))
    monkeypatch.setattr(groups, "zip", lambda *rows: transposes.append(1) or zip_(*rows),
                        raising=False)
    for family, params, cyclic, abelian in (("cyclic", [6], True, True),
                                            ("cyclic_product", [2, 4], False, True),
                                            ("symmetric", [3], False, False)):
        G, pair = catalog_group(family, params)
        for m in range(2, 6):
            recipe_table(G, pair, m)
        assert (is_cyclic(G), is_abelian(G)) == (cyclic, abelian)
        assert (G._memo["cyclic"], G._memo["abelian"]) == (cyclic, abelian)
        del orders[:], transposes[:]
        assert (is_cyclic(G), is_abelian(G)) == (cyclic, abelian)
        assert orders == transposes == []
