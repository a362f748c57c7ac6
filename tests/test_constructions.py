"""Recipe tables, the dispatcher, exception certificates, witness caching."""

import gc
import itertools
import json
import os
import weakref

import pytest

import omsr.sweep
from omsr.automorphisms import automorphisms, is_omsr
from omsr.cli import group_roster
from omsr.constructions import (KIND_ABELIAN, KIND_CYCLIC, KIND_EXCEPTION, KIND_LIFT,
                                KIND_NONABELIAN, KIND_RIGID_TRIVIAL, KIND_SEARCH,
                                abelian_connection_table, circulant_table,
                                construct_omsr, cyclic_connection_table, nonabelian_connection_table,
                                recipe_table, report_from_exception, rigid_trivial_table,
                                spanning_tree_lift_table)
from omsr.digraphs import (ConnectionTable, build_mcayley, is_k_regular, is_oriented,
                           parse_connection_table)
from omsr.errors import IsAbelian, NotAbelian, NotGenerating, OrderTooSmall
from omsr.groups import (GeneratingPair, GroupElement, catalog_group, closure, element_order,
                         is_abelian, is_cyclic, normalize_generating_pair)
from omsr.sweep import SweepResult, exhaustive_sweep, find_witness
from oracles import arc_count, arcs, distance2_out_set, grid_of, induced_subdigraph


def cell(t, i, j):
    return set(t.entries.get((i, j), ()))


# --- cyclic recipe -----------------------------------------------------------

def test_cyclic_table_z3_m2():
    G, pair = catalog_group("cyclic", [3])
    a = pair.a.index
    t = cyclic_connection_table(G, pair.a, 2)
    assert cell(t, 0, 0) == {a}
    assert cell(t, 1, 1) == {G.inverse(a)}
    assert cell(t, 0, 1) == {0}
    assert cell(t, 1, 0) == {a}


def test_cyclic_table_z5_m4_shape():
    G, pair = catalog_group("cyclic", [5])
    a, ainv = pair.a.index, G.inverse(pair.a.index)
    t = cyclic_connection_table(G, pair.a, 4)
    assert [cell(t, i, i) for i in range(4)] == [{a}, {ainv}, {ainv}, {ainv}]
    assert all(cell(t, i, i + 1) == {0} for i in range(3))
    assert cell(t, 3, 0) == {a}
    assert set(t.entries) == {(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2), (2, 3), (3, 0)}


def test_cyclic_table_guards():
    Z2, p2 = catalog_group("cyclic", [2])
    with pytest.raises(OrderTooSmall):
        cyclic_connection_table(Z2, p2.a, 2)
    Z4, p4 = catalog_group("cyclic", [4])
    sq = Z4.mul(p4.a, p4.a)
    with pytest.raises(NotGenerating):
        cyclic_connection_table(Z4, sq, 2)


# --- abelian recipe ----------------------------------------------------------

def test_abelian_table_z3xz3_m2():
    # At m = 2 the corner is a, not b.
    G, pair = catalog_group("cyclic_product", [3, 3])
    a, b = normalize_generating_pair(G, pair.a, pair.b)
    t = abelian_connection_table(G, a, b, 2)
    assert cell(t, 0, 0) == {a.index}
    assert cell(t, 1, 1) == {G.mul(a, b)}
    assert cell(t, 0, 1) == {0}
    assert cell(t, 1, 0) == {a.index}


def test_abelian_table_z4xz2_m3_shape():
    G, pair = catalog_group("cyclic_product", [4, 2])
    a, b = normalize_generating_pair(G, pair.a, pair.b)
    t = abelian_connection_table(G, a, b, 3)
    ab = G.mul(a, b)
    assert [cell(t, i, i) for i in range(3)] == [{a.index}, {ab}, {ab}]
    assert cell(t, 0, 1) == {0} and cell(t, 1, 2) == {0}
    assert cell(t, 2, 0) == {b.index}


def test_abelian_table_guards():
    K, kp = catalog_group("elementary_abelian_2", [2])
    with pytest.raises(OrderTooSmall):
        abelian_connection_table(K, kp.a, kp.b, 2)
    S3, sp = catalog_group("symmetric", [3])
    a, b = normalize_generating_pair(S3, sp.a, sp.b)
    with pytest.raises(NotAbelian):
        abelian_connection_table(S3, a, b, 2)


def test_abelian_table_refuses_involution_ab():
    # The diagonal word ab must have order >= 3; recipe_table swaps b for ab
    # so that it does, and the table itself refuses a pair where it does not.
    G, _ = catalog_group("cyclic_product", [2, 4])
    a = next(g for g in G.elements() if element_order(G, g) == 4)
    b = next(g for g in G.elements() if g != a and element_order(G, G.mul(a, g)) == 2
             and len(closure(G, [a, g])) == G.order)
    for m in range(2, 6):
        with pytest.raises(OrderTooSmall):
            abelian_connection_table(G, a, b, m)


def test_abelian_recipe_on_every_generating_pair():
    # Every generating pair of every non-cyclic abelian group of order <= 12
    # but the Klein four-group, at m = 2..5: 120 pairs, 20 of which
    # normalise to a pair whose product is an involution.
    groups = [G for G, _ in group_roster(12)
              if G.order > 4 and is_abelian(G) and not is_cyclic(G)]
    assert [G.label for G in groups] == ["Z2xZ4", "Z3xZ3", "Z2xZ6"]
    checked = 0
    for G in groups:
        for a, b in itertools.permutations(range(1, G.order), 2):
            if len(closure(G, [a, b])) < G.order:
                continue
            pair = GeneratingPair(GroupElement(a), GroupElement(b))
            for m in range(2, 6):
                table, kind = recipe_table(G, pair, m)
                report = is_omsr(build_mcayley(G, table))
                assert kind == KIND_ABELIAN and report.omsr, (G.label, a, b, m)
                checked += 1
    assert checked == 120 * 4


# --- non-abelian recipe ------------------------------------------------------

def test_nonabelian_table_s3_m2():
    G, pair = catalog_group("symmetric", [3])
    a, b = normalize_generating_pair(G, pair.a, pair.b)
    t = nonabelian_connection_table(G, a, b, 2)
    assert cell(t, 0, 0) == {a.index}
    assert cell(t, 1, 1) == {a.index}
    assert cell(t, 0, 1) == {0}
    assert cell(t, 1, 0) == {b.index}


def test_nonabelian_table_q8_m3_shape():
    G, pair = catalog_group("dicyclic", [2])
    a, b = normalize_generating_pair(G, pair.a, pair.b)
    t = nonabelian_connection_table(G, a, b, 3)
    assert [cell(t, i, i) for i in range(3)] == [{a.index}] * 3
    assert cell(t, 0, 1) == {0} and cell(t, 1, 2) == {0}
    assert cell(t, 2, 0) == {b.index}


def test_nonabelian_table_guards():
    Z6, p = catalog_group("cyclic", [6])
    with pytest.raises(IsAbelian):
        nonabelian_connection_table(Z6, p.a, 1, 2)


# --- the rigid trivial-group table and its lift ------------------------------

def test_recipe_table_auto_has_no_recipe_for_small_groups():
    Z1, _ = catalog_group("cyclic", [1])
    Z2, p2 = catalog_group("cyclic", [2])
    K, pk = catalog_group("elementary_abelian_2", [2])
    for m in range(2, 7):
        assert recipe_table(Z1, None, m) is None
    for m in range(2, 5):
        assert recipe_table(Z2, p2, m) is None
        assert recipe_table(K, pk, m) is None
        with pytest.raises(ValueError):
            circulant_table(m)
    for m in (5, 6, 7, 12):
        assert recipe_table(Z2, p2, m) == (
            spanning_tree_lift_table(Z2, p2.a, 0, circulant_table(m)), KIND_LIFT)
        assert recipe_table(K, pk, m) == (
            spanning_tree_lift_table(K, pk.a, pk.b, circulant_table(m)), KIND_LIFT)
    for m in (7, 12):
        assert recipe_table(Z1, None, m) == (rigid_trivial_table(m), KIND_RIGID_TRIVIAL)


def test_rigid_trivial_table_shape():
    table = rigid_trivial_table(9)
    grid = grid_of(table)
    targets = {i: {j for j in range(9) if grid[i][j]} for i in range(9)}
    assert targets == {0: {2, 3}, 1: {3, 4}, 2: {1, 4}, 3: {2, 5}, 4: {5, 6},
                       5: {6, 7}, 6: {7, 8}, 7: {8, 0}, 8: {0, 1}}
    assert all(cell == {0} for row in grid for cell in row if cell)
    for m in range(2, 7):
        with pytest.raises(ValueError):
            rigid_trivial_table(m)


def test_closed_tables_at_the_vertex_cap_hold_2m_cells():
    # The largest closed tables the vertex cap admits keep only their 2m
    # non-empty cells and survive a text round trip.
    Z2, p2 = catalog_group("cyclic", [2])
    K, pk = catalog_group("elementary_abelian_2", [2])
    for table in (rigid_trivial_table(512),
                  spanning_tree_lift_table(Z2, p2.a, 0, circulant_table(256)),
                  spanning_tree_lift_table(K, pk.a, pk.b, circulant_table(128))):
        assert len(table.entries) == 2 * table.m
        assert parse_connection_table(table.to_text()) == table


def test_construct_klein_m7_lift(tmp_path, monkeypatch):
    # Past the guard of find_witness (test_find_witness_past_guard_raises)
    # the dispatcher lifts the circulant table instead, and neither
    # searches nor writes the cache.
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    K, pair = catalog_group("elementary_abelian_2", [2])
    gamma, report = construct_omsr(K, pair, 7)
    assert report.construction_kind == KIND_LIFT
    assert report.omsr and report.aut_order == 4
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("m", [16, 20])
def test_construct_small_groups_past_search_budget(tmp_path, monkeypatch, m):
    # find_witness raises InfeasibleSweep for Z2 from m = 9 and for the
    # Klein four-group from m = 5 on.  Z1, Z2 and the Klein four-group take
    # closed tables there: no search, and so no cache file.
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    for (name, params), kind in [(("cyclic", [1]), KIND_RIGID_TRIVIAL),
                                 (("cyclic", [2]), KIND_LIFT),
                                 (("elementary_abelian_2", [2]), KIND_LIFT)]:
        G, pair = catalog_group(name, params)
        gamma, report = construct_omsr(G, pair, m)
        assert report.omsr and report.connected and report.aut_order == G.order
        assert report.construction_kind == kind
    assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def new_recipe_digraphs():
    """(G, m, digraph) for the abelian recipe on Z2 x Z2k at m = 2,
    k = 2..39, the rigid trivial-group table at m = 7..64, 128, 256 and
    512, the lift of the circulant C_m(1, 2) to every non-trivial group of
    group_roster(24) at m = 5..10, and the recipe tables of Z2 and the
    Klein four-group, which are such lifts, at m = 5..64."""
    out = []
    for k in range(2, 40):
        G, pair = catalog_group("cyclic_product", [2, 2 * k])
        table, kind = recipe_table(G, pair, 2)
        assert kind == KIND_ABELIAN
        out.append((G, 2, build_mcayley(G, table)))
    Z1, _ = catalog_group("cyclic", [1])
    for m in list(range(7, 65)) + [128, 256, 512]:
        out.append((Z1, m, build_mcayley(Z1, rigid_trivial_table(m))))
    roster = [(G, pair) for G, pair in group_roster(24) if G.order > 1]
    assert len(roster) == 49
    for m in range(5, 11):
        for G, pair in roster:
            b = pair.b if pair.b is not None else 0
            table = spanning_tree_lift_table(G, pair.a, b, circulant_table(m))
            out.append((G, m, build_mcayley(G, table)))
    for G, pair in [catalog_group("cyclic", [2]), catalog_group("elementary_abelian_2", [2])]:
        for m in range(5, 65):
            table, kind = recipe_table(G, pair, m)
            assert kind == KIND_LIFT
            out.append((G, m, build_mcayley(G, table)))
    return out


def test_new_recipes_are_omsr(new_recipe_digraphs):
    for G, m, d in new_recipe_digraphs:
        report = is_omsr(d)
        assert report.omsr and report.connected, (G.label, m, report.aut_order)


def test_networkx_agrees_on_new_recipes(new_recipe_digraphs):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher
    checked = 0
    for G, m, d in new_recipe_digraphs:
        if d.n > 60:
            continue
        g = nx.DiGraph()
        g.add_nodes_from(range(d.n))
        g.add_edges_from(arcs(d))
        count = sum(1 for _ in itertools.islice(
            DiGraphMatcher(g, g).isomorphisms_iter(), G.order + 1))
        assert count == automorphisms(d).order == G.order, (G.label, m)
        checked += 1
    assert checked > 0


# --- recipe outputs are oriented and 2-regular -------------------------------

def test_recipes_oriented_regular_everywhere():
    corpus = []
    for n in range(3, 10):
        G, pair = catalog_group("cyclic", [n])
        corpus.append((G, lambda G=G, a=pair.a: lambda m: cyclic_connection_table(G, a, m)))
    for name, params in [("cyclic_product", [3, 3]), ("cyclic_product", [4, 2])]:
        G, pair = catalog_group(name, params)
        a, b = normalize_generating_pair(G, pair.a, pair.b)
        corpus.append((G, lambda G=G, a=a, b=b: lambda m: abelian_connection_table(G, a, b, m)))
    for name, params in [("symmetric", [3]), ("dihedral", [4]), ("dicyclic", [2])]:
        G, pair = catalog_group(name, params)
        a, b = normalize_generating_pair(G, pair.a, pair.b)
        corpus.append((G, lambda G=G, a=a, b=b: lambda m: nonabelian_connection_table(G, a, b, m)))
    for G, make in corpus:
        recipe = make()
        for m in range(2, 7):
            d = build_mcayley(G, recipe(m))
            assert is_oriented(d)
            assert is_k_regular(d, 2)


# --- proof-detail neighborhood structure ------------------------------------

def test_case1_distance2_sizes():
    G, pair = catalog_group("cyclic_product", [3, 3])
    a, b = normalize_generating_pair(G, pair.a, pair.b)
    for m in (3, 4, 5):
        d = build_mcayley(G, abelian_connection_table(G, a, b, m))
        sizes = [len(distance2_out_set(d, i * G.order)) for i in range(m)]
        assert sizes[0] == 4 and sizes[m - 1] == 4
        assert all(s == 3 for s in sizes[1:m - 1])


def test_case2_distance2_sizes():
    G, pair = catalog_group("symmetric", [3])
    a, b = normalize_generating_pair(G, pair.a, pair.b)
    for m in (2, 3, 4):
        d = build_mcayley(G, nonabelian_connection_table(G, a, b, m))
        sizes = [len(distance2_out_set(d, i * G.order)) for i in range(m)]
        assert sizes[m - 1] == 4
        assert all(s == 3 for s in sizes[:m - 1])


def _digraphs_isomorphic(d1, d2):
    if d1.n != d2.n or arc_count(d1) != arc_count(d2):
        return False
    arcs2 = set(arcs(d2))
    for p in itertools.permutations(range(d1.n)):
        if all((p[u], p[v]) in arcs2 for u, v in arcs(d1)):
            return True
    return False


def test_case1_m2_two_balls_not_isomorphic():
    G, pair = catalog_group("cyclic_product", [3, 3])
    a, b = normalize_generating_pair(G, pair.a, pair.b)
    d = build_mcayley(G, abelian_connection_table(G, a, b, 2))
    balls = []
    for v in (0, G.order):
        span = {v, *d.out_adj[v]} | distance2_out_set(d, v)
        balls.append(induced_subdigraph(d, span))
    assert balls[0].n <= 7 and balls[1].n <= 7
    assert not _digraphs_isomorphic(balls[0], balls[1])


# --- dispatcher --------------------------------------------------------------

def test_construct_klein_m2_exception(tmp_path, monkeypatch):
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    G, pair = catalog_group("elementary_abelian_2", [2])
    verdict = construct_omsr(G, pair, 2)
    assert isinstance(verdict, SweepResult)
    assert verdict.all_failed
    assert verdict.tables_enumerated > 0
    data = json.loads(json.dumps(verdict.certificate_dict(), sort_keys=True))
    assert set(data) >= {"group", "m", "enumerated_count", "all_failed",
                         "max_aut_order_seen"}


def test_construct_trivial_m7_witness(tmp_path, monkeypatch):
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    G, pair = catalog_group("cyclic", [1])
    gamma, report = construct_omsr(G, pair, 7)
    assert report.omsr and report.aut_order == 1
    assert report.construction_kind == KIND_RIGID_TRIVIAL
    assert gamma.table == rigid_trivial_table(7)


def test_construct_s3_m4():
    G, pair = catalog_group("symmetric", [3])
    gamma, report = construct_omsr(G, pair, 4)
    assert report.omsr and report.aut_order == 6
    assert report.construction_kind == KIND_NONABELIAN


def test_construct_uses_cyclic_recipe_for_cyclic_groups():
    G, pair = catalog_group("cyclic", [6])
    _, report = construct_omsr(G, pair, 3)
    assert report.construction_kind == KIND_CYCLIC and report.omsr


def test_construct_abelian_noncyclic():
    G, pair = catalog_group("cyclic_product", [3, 3])
    _, report = construct_omsr(G, pair, 2)
    assert report.construction_kind == KIND_ABELIAN and report.omsr


def test_recipe_rejected_inside_guard_searches_under_auto_only(tmp_path, monkeypatch):
    # Inside the sweep's guard (|G| m = 9) "auto" hands a recipe digraph
    # that is not an OmSR to the witness search; the explicit kind returns
    # that digraph with its failed report.
    from omsr import constructions
    recipe = constructions.recipe_table
    # Oriented, 2-regular and connected over Z3, with |Aut| = 18.
    rejected = ConnectionTable(3, {(0, 1): {0, 1}, (1, 2): {0, 1}, (2, 0): {0, 1}})

    def rejected_for_z3_m3(G, pair, m, kind="auto"):
        if (G.order, m) == (3, 3):
            return rejected, KIND_CYCLIC
        return recipe(G, pair, m, kind)

    monkeypatch.setattr(constructions, "recipe_table", rejected_for_z3_m3)
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    G, pair = catalog_group("cyclic", [3])
    gamma, report = construct_omsr(G, pair, 3)
    assert (report.construction_kind, report.omsr, report.aut_order) == (KIND_SEARCH, True, 3)
    assert gamma.table != rejected
    gamma, report = construct_omsr(G, pair, 3, kind="cyclic")
    assert (report.construction_kind, report.omsr, report.aut_order) == (KIND_CYCLIC, False, 18)
    assert gamma.table == rejected


def test_witness_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    G, pair = catalog_group("elementary_abelian_2", [2])
    gamma1, report1 = construct_omsr(G, pair, 3)
    assert report1.omsr
    files = list(tmp_path.glob("*.table"))
    assert len(files) == 1
    # Second call reuses the cached table and still verifies from scratch.
    gamma2, report2 = construct_omsr(G, pair, 3)
    assert report2.omsr
    assert gamma2.table == gamma1.table


def test_bundled_witnesses_reverify():
    import glob
    import os
    from omsr.constructions import default_witness_dir
    from omsr.digraphs import parse_connection_table
    from omsr.groups import catalog_group as cg
    paths = sorted(glob.glob(os.path.join(default_witness_dir(), "*.table")))
    assert paths, "bundled witness directory should not be empty"
    label_to_group = {
        "Z2": ("cyclic", [2]),
        "Z2xZ2": ("elementary_abelian_2", [2]),
    }
    for path in paths:
        name = os.path.basename(path)
        label, m_part, _ = name.split("_")
        if label not in label_to_group:
            continue
        m = int(m_part[1:])
        G, _ = cg(*label_to_group[label])
        table = parse_connection_table(open(path).read())
        assert table.m == m, name
        report = is_omsr(build_mcayley(G, table))
        assert report.omsr, f"bundled witness {name} failed re-verification"


def test_report_from_exception():
    G, pair = catalog_group("cyclic", [2])
    verdict = construct_omsr(G, pair, 2)
    assert isinstance(verdict, SweepResult)
    report = report_from_exception(G, 2, verdict)
    assert not report.omsr
    assert report.construction_kind == KIND_EXCEPTION
    assert report.certificate is not None


def test_exhausted_search_certificate_from_one_enumeration(tmp_path, monkeypatch):
    from omsr import sweep
    calls = []
    original = sweep.enumerate_tables

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sweep, "enumerate_tables", counting)
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    G, pair = catalog_group("cyclic", [2])
    verdict = construct_omsr(G, pair, 3)
    assert isinstance(verdict, SweepResult)
    assert len(calls) == 1
    assert (verdict.tables_enumerated, verdict.oriented_count,
            verdict.max_aut_order_seen) == (534, 10, 24)
    assert verdict.certificate_dict()["oriented_count"] == 10
    summary = report_from_exception(G, 3, verdict).summary()
    assert "534 tables, 10 oriented, max |Aut| seen 24" in summary
    # No table is oriented at m = 2, so max |Aut| 0 means "no digraph examined".
    empty = construct_omsr(G, pair, 2)
    assert (empty.oriented_count, empty.max_aut_order_seen) == (0, 0)


def test_certificate_is_the_scan_result(tmp_path, monkeypatch):
    # Each certified cell of the corpus comes back from dispatch as the
    # scan's own result, and its certificate is the corpus row's.
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    corpus = os.path.join(os.path.dirname(__file__), "data", "reproduce_24x10.json")
    with open(corpus) as fh:
        rows = [r for r in json.load(fh) if r["verdict"] == "NOT_EXISTS"]
    assert len(rows) == 8
    groups = {G.label: (G, pair) for G, pair in group_roster(24)}
    for row in rows:
        G, pair = groups[row["group"]]
        result = construct_omsr(G, pair, row["m"])
        assert isinstance(result, SweepResult), row
        assert result.certificate_dict() == row["certificate"]
        direct = exhaustive_sweep(G, row["m"])
        assert (result.tables_enumerated, result.oriented_count, result.max_aut_order_seen) == \
            (direct.tables_enumerated, direct.oriented_count, direct.max_aut_order_seen), row
        assert (result.all_failed, result.verdict) == (True, "NOT_EXISTS")
    K, pair = groups["Z2xZ2"]
    gamma, report = construct_omsr(K, pair, 3)
    assert report.omsr and report.construction_kind == KIND_SEARCH
    table, _, result = find_witness(K, 3)
    assert table == gamma.table
    assert (result.all_failed, result.verdict) == (False, "EXISTS")


def test_certificate_keeps_no_scan_alive(tmp_path, monkeypatch):
    # A NOT_EXISTS certificate has no witness to read, so it holds none of
    # its scan's moves, and its certificate reads as before.  Reference
    # counting alone frees a scan, whether its walk ran to the end or was
    # closed at the first witness: the collector stays off.
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    built = []

    class Recorded(omsr.sweep._RankedMoves):
        def __init__(self, G, m):
            super().__init__(G, m)
            built.append(weakref.ref(self))

    monkeypatch.setattr(omsr.sweep, "_RankedMoves", Recorded)
    G, pair = catalog_group("cyclic", [1])
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = construct_omsr(G, pair, 6)
        assert isinstance(result, SweepResult) and len(built) == 1
        assert built[0]() is None
        assert exhaustive_sweep(G, 7).witnesses  # first-stop, dropped at its witness
        assert len(built) == 2 and built[1]() is None
    finally:
        if enabled:
            gc.enable()
    assert result.certificate_dict() == {
        "group": "Z1", "m": 6, "enumerated_count": 67950, "oriented_count": 570,
        "all_failed": True, "max_aut_order_seen": 24}
    assert len(result.witnesses) == 0 and list(result.witnesses) == []


def test_corrupt_cached_witness_is_skipped(tmp_path, monkeypatch):
    from omsr.constructions import _witness_path
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    G, pair = catalog_group("elementary_abelian_2", [2])
    path = tmp_path / os.path.basename(_witness_path(G, 3, str(tmp_path)))
    path.write_text("m: 3\nT 0 0 : 1\nT 0 1")  # cut off mid-write
    with pytest.warns(UserWarning, match="unreadable witness cache file"):
        gamma, report = construct_omsr(G, pair, 3)
    assert report.omsr and report.construction_kind == KIND_SEARCH
    # The search rewrote the file with the witness it found.
    assert parse_connection_table(path.read_text()) == gamma.table


def test_store_witness_replaces_atomically(tmp_path, monkeypatch):
    from omsr import constructions
    G, pair = catalog_group("elementary_abelian_2", [2])
    table = ConnectionTable(1, {(0, 0): [1, 2]})
    replaced = []
    real_replace = os.replace

    def recording(src, dst):
        with open(src) as fh:
            replaced.append((os.path.dirname(src), dst, fh.read()))
        real_replace(src, dst)

    monkeypatch.setattr(constructions.os, "replace", recording)
    constructions._store_witness(G, 1, str(tmp_path), table)
    target = constructions._witness_path(G, 1, str(tmp_path))
    assert replaced == [(str(tmp_path), target, table.to_text())]
    assert [str(p) for p in tmp_path.iterdir()] == [target]

    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(constructions.os, "replace", failing)
    constructions._store_witness(G, 1, str(tmp_path),
                                 ConnectionTable(1, {(0, 0): [1, 3]}))
    # The old file is intact and no temporary file is left behind.
    assert [str(p) for p in tmp_path.iterdir()] == [target]
    with open(target) as fh:
        assert fh.read() == table.to_text()
