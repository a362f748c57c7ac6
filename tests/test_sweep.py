"""Exhaustive table enumeration, sweep verdicts, witness search."""

import collections
import dataclasses
import hashlib
import itertools
import json
import random

import pytest

import omsr.sweep
from omsr.automorphisms import automorphisms, is_omsr
from omsr.cli import group_roster
from omsr.digraphs import ConnectionTable, build_mcayley, oriented_table_criterion
from omsr.errors import InfeasibleSweep
from omsr.groups import (Group, automorphism_generators, catalog_group, generating_set,
                         group_from_cayley_table)
from omsr.sweep import (_PrefixMemo, _RankedMoves, _cell_order, _image,
                        _table_moves, count_tables, enumerate_tables, exhaustive_sweep,
                        feasibility_guard, find_witness)
from oracles import arcs, brute_force_automorphisms, entries_of, grid_of, ranked_moves_reference

Z1 = Group(mult=((0,),), inv=(0,), label="Z1")


def naive_count(n, m, valency):
    """Unpruned recount: product over all m*m cells of all subsets, filtered
    by the row/column sum constraints."""
    subsets = []
    for size in range(min(valency, n) + 1):
        subsets.extend(itertools.combinations(range(n), size))
    count = 0
    for combo in itertools.product(subsets, repeat=m * m):
        rows = [sum(len(combo[i * m + j]) for j in range(m)) for i in range(m)]
        cols = [sum(len(combo[i * m + j]) for i in range(m)) for j in range(m)]
        if all(r == valency for r in rows) and all(c == valency for c in cols):
            count += 1
    return count


def naive_tables(n, m, valency):
    """Every constrained table in lexicographic order, unpruned: all rows with
    the right total, then every combination of rows, filtered by column
    totals.  Cells are ordered by size, then as combinations, like the
    enumerator's."""
    cells = [frozenset(c) for size in range(min(valency, n) + 1)
             for c in itertools.combinations(range(n), size)]
    rows = [r for r in itertools.product(cells, repeat=m)
            if sum(len(c) for c in r) == valency]
    for sets in itertools.product(rows, repeat=m):
        if all(sum(len(sets[i][j]) for i in range(m)) == valency for j in range(m)):
            yield sets


def naive_oriented(G, m, valency):
    """(position, sets) of the oriented tables among all constrained ones."""
    return [(pos, sets) for pos, sets in enumerate(naive_tables(G.order, m, valency), 1)
            if oriented_table_criterion(G, ConnectionTable(m, entries_of(sets)))]


def test_trivial_group_counts_match_binary_matrix_series():
    # 0-1 m x m matrices with all row and column sums equal to 2: OEIS A001499,
    # a(m) = m(m-1)/2 * (2 a(m-1) + (m-1) a(m-2)), a(0) = 1, a(1) = 0.
    series = [1, 0]
    for m in range(2, 81):
        series.append(m * (m - 1) // 2 * (2 * series[m - 1] + (m - 1) * series[m - 2]))
    for m in range(81):
        assert count_tables(1, m) == series[m], m
    expected = {2: 1, 3: 6, 4: 90, 5: 2040, 6: 67950}
    for m, want in expected.items():
        assert count_tables(1, m) == want
        result = exhaustive_sweep(Z1, m, all_witnesses=True)
        assert result.tables_enumerated == want
        positions = [pos for pos, _ in enumerate_tables(Z1, m)]
        assert len(positions) == result.oriented_count
        assert positions == sorted(set(positions))
        assert all(1 <= pos <= want for pos in positions)
    K, _ = catalog_group("elementary_abelian_2", [2])
    assert count_tables(K.order, 3) == 39696


def test_table_counts_pinned():
    # SHA-256 of every count over n = 1..16 and m = 1..24, computed by the
    # sorted-budget recursion that the two-count recurrence replaced.
    counts = json.dumps([[n, m, count_tables(n, m)] for n in range(1, 17) for m in range(1, 25)])
    assert hashlib.sha256(counts.encode()).hexdigest() == (
        "3ecb909e73708ab16ed8482d743cba6092c67427d3ab7891fa29ec55e1b877d3")


def test_enumeration_positions_pinned():
    # SHA-256 of the positions of every oriented table, one JSON list per
    # cell, 15,032 positions in all, computed before the two-count recurrence.
    cells = [("cyclic", [2], 4), ("cyclic", [3], 3), ("cyclic", [4], 3),
             ("elementary_abelian_2", [2], 3), ("dihedral", [3], 2), ("cyclic", [6], 2),
             ("dicyclic", [2], 2)]
    digest = hashlib.sha256()
    total = 0
    for family, args, m in cells:
        G, _ = catalog_group(family, args)
        positions = [pos for pos, _ in enumerate_tables(G, m)]
        total += len(positions)
        digest.update(json.dumps([G.label, m, positions]).encode())
    assert total == 15032
    assert digest.hexdigest() == (
        "b921842abddef6094e0252352862e152162b188f829d75e70b5f3890ba0ae205")


def test_enumeration_matches_naive_recount():
    for G, m in [(Z1, 2), (Z1, 3), (Z1, 4),
                 (catalog_group("cyclic", [2])[0], 2),
                 (catalog_group("cyclic", [3])[0], 2),
                 (catalog_group("cyclic", [4])[0], 2),
                 (catalog_group("cyclic", [2])[0], 3)]:
        total = naive_count(G.order, m, 2)
        assert count_tables(G.order, m) == total
        assert exhaustive_sweep(G, m, all_witnesses=True).tables_enumerated == total
        assert sum(1 for _ in naive_tables(G.order, m, 2)) == total


def test_enumeration_matches_naive_oriented_tables():
    # Same oriented tables, in the same order, at the same positions among
    # all constrained tables, as an unpruned product filtered afterwards.
    cyclic = lambda k: catalog_group("cyclic", [k])[0]
    K, _ = catalog_group("elementary_abelian_2", [2])
    cases = [(Z1, m) for m in range(1, 6)]
    cases += [(cyclic(2), 2), (cyclic(2), 3), (cyclic(3), 2), (cyclic(4), 2), (K, 2)]
    for G, m in cases:
        got = [(pos, unkey(G, m, key)) for pos, key in enumerate_tables(G, m)]
        assert got == naive_oriented(G, m, 2), (G, m)


def test_enumeration_yields_unique_row_column_constrained_tables():
    G, _ = catalog_group("cyclic", [3])
    seen = set()
    last = 0
    for pos, key in enumerate_tables(G, 2):
        assert pos > last
        last = pos
        assert key not in seen
        seen.add(key)
        sets = unkey(G, 2, key)
        assert all(sum(len(sets[i][j]) for j in range(2)) == 2 for i in range(2))
        assert all(sum(len(sets[i][j]) for i in range(2)) == 2 for j in range(2))
        assert oriented_table_criterion(G, ConnectionTable(2, entries_of(sets)))
    assert seen
    assert last <= count_tables(G.order, 2)


def test_feasibility_guard():
    assert feasibility_guard(Z1, 10)
    assert feasibility_guard(Z1, 16)
    assert not feasibility_guard(Z1, 17)
    with pytest.raises(InfeasibleSweep) as refused:
        exhaustive_sweep(Z1, 17)
    assert str(refused.value) == "|G|*m = 17 exceeds guard 16"
    G, _ = catalog_group("cyclic", [4])
    assert feasibility_guard(G, 4)
    assert not feasibility_guard(G, 5)
    with pytest.raises(InfeasibleSweep):
        exhaustive_sweep(G, 5)


def test_sweep_trivial_boundary():
    for m in (2, 6):
        assert exhaustive_sweep(Z1, m).verdict == "NOT_EXISTS"
    result = exhaustive_sweep(Z1, 7)
    assert result.verdict == "EXISTS"
    assert result.witnesses


def test_sweep_small_two_groups_m2():
    Z2, _ = catalog_group("cyclic", [2])
    K, _ = catalog_group("elementary_abelian_2", [2])
    assert exhaustive_sweep(Z2, 2).verdict == "NOT_EXISTS"
    assert exhaustive_sweep(K, 2).verdict == "NOT_EXISTS"


def test_sweep_z2_m3_certified_not_exists():
    # Full enumeration over Z2 at m=3, then the same oriented tables through
    # the factorial oracle, which tests all 6! permutations and never refines.
    Z2, _ = catalog_group("cyclic", [2])
    result = exhaustive_sweep(Z2, 3, all_witnesses=True)
    assert result.verdict == "NOT_EXISTS"
    assert result.oriented_count > 0
    assert result.max_aut_order_seen > Z2.order

    # The oracle's tables come from the unpruned enumeration, not the sweep's.
    assert result.tables_enumerated == sum(1 for _ in naive_tables(Z2.order, 3, 2)) == 534
    tables = [ConnectionTable(3, entries_of(sets)) for _, sets in naive_oriented(Z2, 3, 2)]
    orders = [len(brute_force_automorphisms(build_mcayley(Z2, t))) for t in tables]
    assert len(orders) == result.oriented_count
    assert sorted(orders) == [6] * 8 + [24] * 2
    assert Z2.order not in orders


def test_sweep_klein_m3_exists():
    K, _ = catalog_group("elementary_abelian_2", [2])
    result = exhaustive_sweep(K, 3)
    assert result.verdict == "EXISTS"


def test_sweep_witnesses_reverify():
    K, _ = catalog_group("elementary_abelian_2", [2])
    result = exhaustive_sweep(K, 3)
    for table in result.witnesses:
        report = is_omsr(build_mcayley(K, table))
        assert report.omsr


def test_sweep_stable_under_relabeling():
    K, _ = catalog_group("elementary_abelian_2", [2])
    base = exhaustive_sweep(K, 2, all_witnesses=True)
    # Relabel the non-identity elements.
    perm = {0: 0, 1: 2, 2: 3, 3: 1}
    table = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            table[perm[i]][perm[j]] = perm[K.mult[i][j]]
    H = group_from_cayley_table(table, label="relabeled")
    again = exhaustive_sweep(H, 2, all_witnesses=True)
    assert again.verdict == base.verdict
    assert len(again.witnesses) == len(base.witnesses)
    assert again.tables_enumerated == base.tables_enumerated


def test_sweep_result_json():
    result = exhaustive_sweep(Z1, 3)
    data = json.loads(json.dumps(result.to_dict(), sort_keys=True))
    assert data["verdict"] == "NOT_EXISTS"
    assert data["tables_enumerated"] == 6
    assert data["witness_count"] == 0


def test_find_witness_deterministic_and_verified():
    K, _ = catalog_group("elementary_abelian_2", [2])
    t1, gamma1, result1 = find_witness(K, 3)
    t2, gamma2, _ = find_witness(K, 3)
    assert t1 == t2
    assert is_omsr(gamma1).omsr
    assert result1.tables_enumerated >= result1.oriented_count > 0


def test_find_witness_exhaustion_returns_none():
    Z2, _ = catalog_group("cyclic", [2])
    table, gamma, result = find_witness(Z2, 3)
    assert table is None and gamma is None
    assert result.tables_enumerated > 0


def test_m_below_one_is_rejected():
    Z3, _ = catalog_group("cyclic", [3])
    for m in (-1, 0):
        with pytest.raises(ValueError, match="m must be"):
            exhaustive_sweep(Z3, m)
        with pytest.raises(ValueError, match="m must be"):
            find_witness(Z3, m)


def test_find_witness_pinned_stats():
    Z2, _ = catalog_group("cyclic", [2])
    K, _ = catalog_group("elementary_abelian_2", [2])
    pins = {(Z1, 7): (800, 4), (Z2, 4): (223, 2), (Z2, 7): (8613, 128),
            (K, 3): (2199, 218)}
    for (G, m), want in pins.items():
        table, gamma, result = find_witness(G, m)
        assert (result.tables_enumerated, result.oriented_count) == want, (G, m)
        assert is_omsr(gamma).omsr
        assert gamma.table == table


def test_find_witness_past_guard_raises(monkeypatch):
    # Z2^2 at m = 7 is past the sweep's guard, so find_witness raises before
    # it enumerates a table; the dispatcher lifts a recipe there instead
    # (test_construct_klein_m7_lift).
    def no_walk(*args):
        raise AssertionError("enumerate_tables called past the guard")

    monkeypatch.setattr(omsr.sweep, "enumerate_tables", no_walk)
    K, _ = catalog_group("elementary_abelian_2", [2])
    with pytest.raises(InfeasibleSweep, match="exceeds guard 16"):
        find_witness(K, 7)


# --- table moves and all-witness sweeps -------------------------------------

def klein():
    return catalog_group("elementary_abelian_2", [2])[0]


def cyclic(k):
    return catalog_group("cyclic", [k])[0]


def engine_order(G, m, sets):
    return automorphisms(build_mcayley(G, ConnectionTable(m, entries_of(sets)))).order


def random_oriented_table(G, m, rng):
    """An oriented table with every block row and column totalling 2: two
    random block permutations, one random element per arc, redrawn until
    oriented."""
    for _ in range(10_000):
        sets = [[set() for _ in range(m)] for _ in range(m)]
        for sigma in (rng.sample(range(m), m), rng.sample(range(m), m)):
            for i in range(m):
                free = [t for t in range(G.order) if t not in sets[i][sigma[i]]]
                if not free:
                    break
                sets[i][sigma[i]].add(rng.choice(free))
        table = ConnectionTable(m, entries_of(sets))
        full = all(sum(map(len, row)) == 2 for row in grid_of(table))
        if full and oriented_table_criterion(G, table):
            return table
    raise AssertionError(f"no oriented table drawn for {G!r} m={m}")


def unkey(G, m, key):
    cells = _cell_order(G.order)
    return tuple(tuple(cells[key[i * m + j]] for j in range(m)) for i in range(m))


def key_of(G, sets):
    """The key `enumerate_tables` yields for a table given by its cells."""
    rank = {cell: r for r, cell in enumerate(_cell_order(G.order))}
    return tuple(rank[frozenset(cell)] for row in sets for cell in row)


def move_images(ranked, key):
    """The key's image under each move of ``ranked``, in order."""
    return [tuple([f[key[src]] for src, f in zip(srcs, maps)]) for srcs, maps in ranked.moves]


def orbit(ranked, key):
    """Every key that the moves of ``ranked`` reach from ``key``."""
    seen, queue = {key}, [key]
    for current in queue:
        for image in move_images(ranked, current):
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


def test_table_moves_are_isomorphisms():
    # Each move (h, sigma, alpha, converse) relabels (x, i) as
    # (alpha(h_i * x), sigma(i)); that vertex map must carry the arcs of T's
    # digraph onto exactly the arcs of T''s (reversed for the converse, which
    # follows (h, sigma, alpha)).  Z3, Z2^2, S3 and the relabelled Q8 have
    # non-trivial automorphism moves.
    # Oriented tables need m >= 5 over Z1, m >= 3 over Z2 and m >= 2 else.
    rng = random.Random(6)
    S3, _ = catalog_group("symmetric", [3])
    Q8 = relabelled(catalog_group("dicyclic", [2])[0], rng)
    cases = [(Z1, 5), (Z1, 6), (cyclic(2), 3), (cyclic(2), 4)]
    cases += [(G, m) for G in (cyclic(3), klein(), S3) for m in (2, 3, 4)]
    cases += [(Q8, 2), (Q8, 3)]
    for G, m in cases:
        n = G.order
        ranked = _RankedMoves(G, m)
        moves = _table_moves(G, m)
        autos = automorphism_generators(G)
        assert bool(autos) == (n > 2)
        # Gauges on every block, transpositions, the m-cycle and the
        # automorphisms, each with and without the converse, then the
        # converse alone.
        base = m * len(generating_set(G)) + m * (m - 1) // 2 + (m > 2) + len(autos)
        assert len(moves) == len(set(moves)) == 2 * base + 1
        assert [alpha for h, sigma, alpha, c in moves[:base] if h == (0,) * m
                and sigma == tuple(range(m)) and alpha != tuple(range(n))] == autos
        for _ in range(5):
            table = random_oriented_table(G, m, rng)
            d = build_mcayley(G, table)
            images = move_images(ranked, key_of(G, grid_of(table)))
            assert len(images) == len(moves)
            for (h, sigma, alpha, converse), image in zip(moves, images):
                moved = ConnectionTable(m, entries_of(unkey(G, m, image)))
                assert oriented_table_criterion(G, moved)
                d2 = build_mcayley(G, moved)
                phi = [sigma[i] * n + alpha[G.mult[h[i]][x]] for i in range(m) for x in range(n)]
                mapped = {(phi[u], phi[v]) for u, v in arcs(d)}
                if converse:
                    mapped = {(v, u) for u, v in mapped}
                assert mapped == set(arcs(d2)), (G, m, h, sigma, alpha, converse)


ORBIT_COUNTS = {
    # (G, m): orbits of the moves on the oriented tables
    (Z1, 6): 4, ("klein", 3): 10, ("Z3", 3): 21, ("Z4", 3): 52,
    ("Z2", 3): 2, ("klein", 2): 1,
}

ALL_WITNESS_PINS = {
    # (G, m): (engine calls, tables, oriented, witnesses, max |Aut|)
    (Z1, 6): (6, 67950, 570, 0, 24),
    ("klein", 3): (21, 39696, 2160, 1152, 1152),
    ("Z3", 3): (47, 6723, 1458, 972, 18),
    ("Z4", 3): (209, 39696, 7216, 5184, 1152),
}


def cells_of(pins):
    groups = {"klein": klein(), "Z2": cyclic(2), "Z3": cyclic(3), "Z4": cyclic(4)}
    return [(groups.get(G, G), m, pin) for (G, m), pin in pins.items()]


def test_orbit_closure_stays_in_enumerated_set():
    # The orbits of the moves partition the enumerated oriented tables, so an
    # earlier image of an enumerated table is always enumerated too.
    for G, m, count in cells_of(ORBIT_COUNTS):
        ranked = _RankedMoves(G, m)
        keys = {key for _, key in enumerate_tables(G, m)}
        covered, orbits = set(), 0
        for key in keys:
            if key not in covered:
                closed = orbit(ranked, key)
                assert closed <= keys, (G, m)
                covered |= closed
                orbits += 1
        assert covered == keys
        assert orbits == count, (G, m)


def test_all_witness_sweep_engine_calls_pinned(monkeypatch):
    # The engine runs once on each table with no earlier move image: at
    # least once per orbit, as pinned in ORBIT_COUNTS.
    calls = []
    engine = omsr.sweep.automorphisms
    monkeypatch.setattr(omsr.sweep, "automorphisms", lambda d: calls.append(d) or engine(d))
    for G, m, pins in cells_of(ALL_WITNESS_PINS):
        calls.clear()
        result = exhaustive_sweep(G, m, all_witnesses=True)
        got = (len(calls), result.tables_enumerated, result.oriented_count,
               len(result.witnesses), result.max_aut_order_seen)
        assert got == pins, (G, m)
    # A first-stop scan calls the engine on the same tables up to its first
    # witness: here, with no witness, the same 6 of the 570 oriented ones.
    calls.clear()
    assert exhaustive_sweep(Z1, 6).oriented_count == 570
    assert len(calls) == 6


def test_all_witness_sweep_matches_unpruned_oracle():
    # Witnesses, in enumeration order, and max |Aut| from the sweep, which
    # reads |Aut| from earlier images, against a direct engine call on every
    # oriented table of the unpruned product enumeration, in its order.
    for G, m in [(cyclic(2), 3), (cyclic(3), 2), (cyclic(4), 2), (klein(), 2), (Z1, 5)]:
        orders = [(engine_order(G, m, sets), sets) for _, sets in naive_oriented(G, m, 2)]
        result = exhaustive_sweep(G, m, all_witnesses=True)
        assert result.oriented_count == len(orders)
        assert result.max_aut_order_seen == max((o for o, _ in orders), default=0)
        want = [ConnectionTable(m, entries_of(sets)).to_text()
                for o, sets in orders if o == G.order]
        assert [w.to_text() for w in result.witnesses] == want, (G, m)


def test_all_witness_sweeps_match_pinned_digest():
    # SHA-256 over verdict, tables, oriented count, max |Aut| and sorted
    # witness texts, taken from the scan that closed each orbit of the moves
    # by breadth-first search and read |Aut| for the rest from the closure.
    cells = [(klein(), 3), (cyclic(3), 3), (cyclic(4), 3), (cyclic(5), 3), (cyclic(2), 4),
             (catalog_group("dihedral", [3])[0], 2), (cyclic(6), 2)]
    digest = hashlib.sha256()
    for G, m in cells:
        r = exhaustive_sweep(G, m, all_witnesses=True)
        digest.update(json.dumps([r.verdict, r.tables_enumerated, r.oriented_count,
                                  r.max_aut_order_seen,
                                  sorted(w.to_text() for w in r.witnesses)]).encode())
    assert digest.hexdigest() == (
        "983ddcc574487236716272e424c494a9ecd64f2b0e1863aa07b0a6de1a06b92f")


# --- first-stop scans: the engine only on tables with no earlier image --------

def first_stop_oracle(G, m):
    """(examined, oriented, max |Aut|, first witness text or None) of a
    first-stop scan, from a direct engine call on every oriented table of the
    unpruned enumeration, in order."""
    oriented = top = pos = 0
    for pos, sets in enumerate(naive_tables(G.order, m, 2), 1):
        if not oriented_table_criterion(G, ConnectionTable(m, entries_of(sets))):
            continue
        oriented += 1
        order = engine_order(G, m, sets)
        top = max(top, order)
        if order == G.order:
            return pos, oriented, top, ConnectionTable(m, entries_of(sets)).to_text()
    return pos, oriented, top, None


def test_first_stop_scan_matches_unpruned_oracle():
    cells = [(Z1, 5), (cyclic(2), 3), (cyclic(2), 4), (cyclic(3), 2), (cyclic(3), 3),
             (cyclic(4), 2), (klein(), 2), (klein(), 3)]
    for G, m in cells:
        want = first_stop_oracle(G, m)
        result = exhaustive_sweep(G, m)
        got = (result.tables_enumerated, result.oriented_count, result.max_aut_order_seen,
               result.witnesses[0].to_text() if result.witnesses else None)
        assert got == want, (G, m)
        table, gamma, found = find_witness(G, m)
        assert (found.tables_enumerated, found.oriented_count,
                found.max_aut_order_seen) == want[:3]
        assert (table.to_text() if table else None) == want[3], (G, m)
        if table is not None:
            assert gamma.table == table
            # An all-witness scan lists its witnesses in the same order.
            assert exhaustive_sweep(G, m, all_witnesses=True).witnesses[0] == table, (G, m)


def test_skipped_tables_have_earlier_images_of_equal_order():
    # Keys compare as positions do, and every table the first-stop test skips
    # has a smaller image that is an enumerated table at an earlier position
    # with the same engine |Aut|.
    for G, m in [(Z1, 6), (klein(), 3), (cyclic(3), 3)]:
        ranked = _RankedMoves(G, m)
        enumerated = [(key, pos) for pos, key in enumerate_tables(G, m)]
        keys = [key for key, _ in enumerated]
        assert keys == sorted(set(keys))
        where = dict(enumerated)
        orders = {}

        def order(key):
            if key not in orders:
                orders[key] = engine_order(G, m, unkey(G, m, key))
            return orders[key]

        skipped = 0
        for key, pos in enumerated:
            earlier = [image for image in move_images(ranked, key) if image < key]
            assert ranked.earlier_image(key) == (earlier[0] if earlier else None), (G, m, pos)
            skipped += bool(earlier)
            for image in earlier:
                assert where[image] < pos
                assert order(image) == order(key), (G, m, pos)
        assert 0 < skipped < len(enumerated)


# --- first-stop scans: skipped row prefixes ----------------------------------

def full_walk(G, m):
    """(position, sets, |Aut|) of every table of the full `enumerate_tables`
    walk, in order, with no prefix skipped, from a direct engine call on
    each."""
    for pos, key in enumerate_tables(G, m):
        sets = unkey(G, m, key)
        yield pos, sets, engine_order(G, m, sets)


def full_walk_reference(G, m):
    """(examined, oriented, max |Aut|, first witness text or None) of a
    first-stop scan, from `full_walk`."""
    oriented = top = 0
    for pos, sets, order in full_walk(G, m):
        oriented += 1
        top = max(top, order)
        if order == G.order:
            return pos, oriented, top, ConnectionTable(m, entries_of(sets)).to_text()
    return count_tables(G.order, m), oriented, top, None


def test_prefix_skip_matches_full_walk():
    # Cells where row prefixes are skipped; Z2 at m = 4 and 5, whose witness
    # is the second oriented table, before any prefix can be; and cells with
    # no oriented table, whose walk records prefixes but never tests one.
    S3 = catalog_group("dihedral", [3])[0]
    Q8 = catalog_group("dicyclic", [2])[0]
    empty = [(Z1, m) for m in range(1, 5)] + [(cyclic(2), 1), (cyclic(2), 2)]
    for G, m in [(Z1, 6), (cyclic(2), 4), (cyclic(2), 5), (S3, 2), (Q8, 2)] + empty:
        want = full_walk_reference(G, m)
        result = exhaustive_sweep(G, m)
        got = (result.tables_enumerated, result.oriented_count, result.max_aut_order_seen,
               result.witnesses[0].to_text() if result.witnesses else None)
        assert got == want, (G, m)
        table, gamma, found = find_witness(G, m)
        assert (found.tables_enumerated, found.oriented_count,
                found.max_aut_order_seen) == want[:3]
        assert (table.to_text() if table else None) == want[3], (G, m)
        if table is not None:
            assert gamma.table == table


def test_prefix_skip_walked_tables_pinned(monkeypatch):
    # The walk yields only the tables of prefixes it did not skip; a wrapper
    # that forwards next() alone, as a tracer does, sees the same scan.
    walked, calls = [], []
    walk, engine = omsr.sweep.enumerate_tables, omsr.sweep.automorphisms

    def forwarding(*args):
        for item in walk(*args):
            walked.append(item[0])
            yield item

    monkeypatch.setattr(omsr.sweep, "enumerate_tables", forwarding)
    monkeypatch.setattr(omsr.sweep, "automorphisms",
                        lambda d: calls.append(engine(d)) or calls[-1])
    pins = {(Z1, 5): (2, 24, 1), (Z1, 6): (20, 570, 6), (cyclic(2), 3): (3, 10, 2),
            (klein(), 2): (1, 6, 1)}
    for (G, m), want in pins.items():
        walked.clear()
        calls.clear()
        result = exhaustive_sweep(G, m)
        assert result.verdict == "NOT_EXISTS"
        assert (len(walked), result.oriented_count, len(calls)) == want, (G, m)
    # All-witness scans skip the same prefixes and call the engine on the
    # tables of ALL_WITNESS_PINS.
    pins = {(klein(), 3): (39, 2160, 21), (cyclic(3), 3): (116, 1458, 47),
            (cyclic(4), 3): (510, 7216, 209), (Z1, 6): (20, 570, 6)}
    for (G, m), want in pins.items():
        walked.clear()
        calls.clear()
        result = exhaustive_sweep(G, m, all_witnesses=True)
        assert (len(walked), result.oriented_count, len(calls)) == want, (G, m)
        assert result.max_aut_order_seen == max(aut.order for aut in calls), (G, m)


def test_prefix_memo_records_every_earlier_prefix():
    # A first-stop Z1 m=6 scan runs to the end; every prefix it skipped has an
    # earlier image under a move that keeps its rows, sharing its earlier
    # rows, and holding as many oriented tables.
    ranked = _RankedMoves(Z1, 6)
    prefixes = _PrefixMemo(ranked)
    for _ in enumerate_tables(Z1, 6, prefixes):
        pass

    def earlier_prefix(key):
        k = ranked.prefix_move(key, len(key) // 6 - 1)[0]
        return None if k is None else _image(ranked.moves[k], key)

    oriented = {}
    for _, key in enumerate_tables(Z1, 6):
        for row in range(5):
            oriented[key[:6 * (row + 1)]] = oriented.get(key[:6 * (row + 1)], 0) + 1
    skipped = 0
    for key, (count, _, _) in prefixes.subtrees.items():
        assert count == oriented.get(key, 0), key
        image = earlier_prefix(key)
        if image is not None:
            skipped += 1
            assert image < key and image[:len(key) - 6] == key[:-6]
            assert prefixes.subtrees[image][0] == count
    assert skipped and prefixes.skipped == 570 - 20
    # The walk finishes every earlier prefix before it tests a later one, so
    # a miss is a fault.
    key = next(key for key in prefixes.subtrees if earlier_prefix(key) is not None)
    with pytest.raises(RuntimeError, match="no count"):
        _PrefixMemo(ranked).skip(key, len(key) // 6 - 1)


def guard_cells():
    """Every group of group_roster(16) at every m the guard admits."""
    return [(G, m) for G, _ in group_roster(16) for m in range(1, omsr.sweep.GUARD_PRODUCT + 1)
            if feasibility_guard(G, m)]


def test_move_codes_match_frozenset_reference():
    # Each cell image is ranked through a table over element tuples and each
    # code built per element map; the reference ranks every cell of every
    # move as a frozenset.
    for G, m in guard_cells():
        ranked = _RankedMoves(G, m)
        codes, rows = ranked_moves_reference(G, m)
        assert [tuple(zip(srcs, maps)) for srcs, maps in ranked.moves] == codes, (G, m)
        assert ranked._row_moves == [set(ks) for ks in rows], (G, m)


def test_block_memo_carries_no_group_state():
    # The block sources are shared by every group and m: scanning the guard
    # cells at m = 2..4 in roster order and then, from a cleared memo, in
    # reverse order gives the same scans.
    cells = [(G, m) for G, m in guard_cells() if 2 <= m <= 4]

    def scan(G, m):
        result = exhaustive_sweep(G, m)
        first = result.witnesses[0].to_text() if result.witnesses else None
        return (result.tables_enumerated, result.oriented_count, len(result.witnesses),
                result.max_aut_order_seen, first)

    omsr.sweep._blocks.clear()
    forward = [scan(G, m) for G, m in cells]
    omsr.sweep._blocks.clear()
    backward = [scan(G, m) for G, m in reversed(cells)]
    assert forward == backward[::-1]
    assert any(w for _, _, w, _, _ in forward) and not all(w for _, _, w, _, _ in forward)
    # Moves with the same block action share one source tuple across groups.
    sources = [{id(srcs) for srcs, _ in _RankedMoves(G, 3).moves} for G in (cyclic(2), klein())]
    assert sources[0] == sources[1] and len(sources[0]) == 10


def test_prefix_test_from_parent_fixers_matches_full_compare(monkeypatch):
    # Every row prefix a scan tests inside the guard, first-stop and
    # all-witness (all-witness up to 4,000,000 tables): the test that retries
    # the parent prefix's fixers returns the move and the fixers of a full
    # compare of every move that keeps the prefix's rows in place.
    prefix_move, tested = _RankedMoves.prefix_move, collections.Counter()

    def checked(self, key, row, parent=None):
        got = prefix_move(self, key, row, parent)
        fixed = row * self.m
        images = [(k, _image(self.moves[k], key)) for k in sorted(self._row_moves[row])]
        earlier = [k for k, image in images if image[:fixed] == key[:fixed] and image < key]
        fixers = [k for k, image in images if image == key]
        want = (earlier[0], None) if earlier else (None, fixers)
        assert got == want, (key, row, parent)
        tested[parent is not None] += 1
        return got

    monkeypatch.setattr(_RankedMoves, "prefix_move", checked)
    for G, m in guard_cells():
        exhaustive_sweep(G, m)
        if count_tables(G.order, m) <= 4_000_000:
            exhaustive_sweep(G, m, all_witnesses=True)
    assert tested[True] > tested[False] > 0


def test_chain_verdict_matches_engine_on_reached_tables(monkeypatch):
    # A reached table with an earlier one-move image takes the verdict of the
    # measured table that ends its chain of earlier images; the engine, run
    # on the reached table itself, agrees.
    S3 = catalog_group("dihedral", [3])[0]
    Q8 = catalog_group("dicyclic", [2])[0]
    walk, runs = omsr.sweep.enumerate_tables, []

    def forwarding(G, m, prefixes):
        runs.append((prefixes, []))
        for item in walk(G, m, prefixes):
            runs[-1][1].append(item[1])
            yield item

    monkeypatch.setattr(omsr.sweep, "enumerate_tables", forwarding)
    for G, m in [(klein(), 3), (cyclic(3), 3), (cyclic(4), 3), (Q8, 2), (S3, 2)]:
        runs.clear()
        exhaustive_sweep(G, m, all_witnesses=True)
        [(prefixes, reached)] = runs
        ranked, chained = prefixes.moves, 0
        for key in reached:
            image = ranked.earlier_image(key)
            if image is not None:
                chained += 1
                want = engine_order(G, m, unkey(G, m, key)) == G.order
                assert prefixes.is_witness(image) == want, (G, m, key)
        assert chained, (G, m)
    # Every chain ends at a table the scan measured, so a miss is a fault.
    ranked = _RankedMoves(klein(), 3)
    key = next(key for _, key in walk(klein(), 3) if ranked.earlier_image(key) is not None)
    memo = _PrefixMemo(ranked)
    assert not memo.is_witness(ranked.earlier_image(key))
    memo.size = 1  # as if the scan had recorded a witness
    with pytest.raises(RuntimeError, match="no verdict"):
        memo.is_witness(ranked.earlier_image(key))


# --- all-witness scans: skipped row prefixes ---------------------------------

def relabelled(G, rng):
    """G presented as a random relabelling of its Cayley table that keeps
    the identity at index 0."""
    rest = list(range(1, G.order))
    rng.shuffle(rest)
    sigma = [0] + rest
    table = [[0] * G.order for _ in range(G.order)]
    for x in range(G.order):
        for y in range(G.order):
            table[sigma[x]][sigma[y]] = sigma[G.mult[x][y]]
    return group_from_cayley_table(table, label=G.label)


def test_all_witness_prefix_skip_matches_full_walk():
    # Witnesses mapped back from earlier prefixes through inverse moves and
    # witnesses read from earlier images, in order, and the largest |Aut|,
    # against a direct engine call on every table of the full walk.  D3 and
    # Z6 have gauges that are not involutions; the relabelled groups are the
    # benchmark's input shape.
    rng = random.Random(7)
    cells = [(cyclic(2), 4), (cyclic(3), 3), (catalog_group("dihedral", [3])[0], 2),
             (cyclic(6), 2), (relabelled(klein(), rng), 3), (relabelled(cyclic(4), rng), 3)]
    for G, m in cells:
        orders = [(order, sets) for _, sets, order in full_walk(G, m)]
        result = exhaustive_sweep(G, m, all_witnesses=True)
        assert result.oriented_count == len(orders), (G, m)
        assert result.max_aut_order_seen == max(o for o, _ in orders), (G, m)
        want = [ConnectionTable(m, entries_of(sets)).to_text()
                for o, sets in orders if o == G.order]
        assert [w.to_text() for w in result.witnesses] == want, (G, m)


def test_witness_sequence_reads_as_a_list():
    # The witnesses read as the list of tables the full walk gives, through
    # every list operation a caller uses; an all-witness scan, a first-stop
    # scan and a scan with no witness.
    for G, m in [(cyclic(3), 3), (cyclic(2), 3)]:
        tables = [ConnectionTable(m, entries_of(sets)) for _, sets, order in full_walk(G, m)
                  if order == G.order]
        for result, want in [(exhaustive_sweep(G, m, all_witnesses=True), tables),
                             (exhaustive_sweep(G, m), tables[:1])]:
            got, n = result.witnesses, len(want)
            assert len(got) == n and bool(got) == bool(want)
            assert got == want and want == got and list(got) == want
            assert got != want + [None] and got != tuple(want)
            for i in {0, 1, n // 2, n - 1, -1, -2, -n} & set(range(-n, n)):
                assert got[i] == want[i], i
            for part in [slice(None), slice(2, 9), slice(-5, None), slice(None, None, -7),
                         slice(3, 1)]:
                assert got[part] == want[part], part
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    got[i]
            replaced = dataclasses.replace(result, witnesses=want)
            assert result.to_dict() == replaced.to_dict()
            assert (json.dumps(result.to_dict(), sort_keys=True)
                    == json.dumps(replaced.to_dict(), sort_keys=True))


def test_witness_count_builds_no_keys(monkeypatch):
    # Skipped subtrees keep their witnesses as segments, so the count needs
    # no key; here prefixes of one to six rows (Z1) and one to four rows
    # (Z2) are skipped with their witnesses.
    def no_keys(self):
        raise AssertionError("witness keys built")

    monkeypatch.setattr(omsr.sweep._Witnesses, "_all_keys", no_keys)
    for G, m, count in [(Z1, 7, 20160), (cyclic(2), 5, 74880)]:
        result = exhaustive_sweep(G, m, all_witnesses=True)
        assert len(result.witnesses) == count and result.witnesses, (G, m)
        assert result.verdict == "EXISTS"


# --- automorphism moves: witness orbits are isomorphism classes --------------

def test_witness_orbits_are_isomorphism_classes():
    # An isomorphism of two OmSRs over G normalises the regular action of G,
    # so on block i it is x -> alpha(h_i * x) followed by a block permutation
    # (Babai, 1977, in m-block form): the witness orbits of the moves are the
    # classes of digraphs isomorphic or anti-isomorphic to each other.
    nx = pytest.importorskip("networkx")
    rng = random.Random(8)

    def graph(G, m, key):
        d = build_mcayley(G, ConnectionTable(m, entries_of(unkey(G, m, key))))
        g = nx.DiGraph()
        g.add_nodes_from(range(d.n))
        g.add_edges_from(arcs(d))
        return g

    for G, m, classes in [(klein(), 3, 2), (cyclic(3), 3, 9)]:
        ranked = _RankedMoves(G, m)
        witnesses = {key_of(G, grid_of(w))
                     for w in exhaustive_sweep(G, m, all_witnesses=True).witnesses}
        orbits, covered = [], set()
        for key in sorted(witnesses):
            if key not in covered:
                closed = orbit(ranked, key)
                assert closed <= witnesses, (G, m)
                covered |= closed
                orbits.append(sorted(closed))
        assert covered == witnesses and len(orbits) == classes, (G, m)
        reps = [graph(G, m, members[0]) for members in orbits]
        for a, b in itertools.combinations(reps, 2):
            assert not nx.is_isomorphic(a, b), (G, m)
            assert not nx.is_isomorphic(a, b.reverse()), (G, m)
        for rep, members in zip(reps, orbits):
            for key in rng.sample(members, min(3, len(members))):
                g = graph(G, m, key)
                assert nx.is_isomorphic(g, rep) or nx.is_isomorphic(g, rep.reverse()), (G, m)
