"""Automorphism engine: refinement, search, oracle agreement, OmSR verdicts."""

import hashlib
import importlib
import itertools
import random

import pytest

from omsr.automorphisms import (VERTEX_CAP, _individualize, _refine, aut_order_bounded,
                                automorphisms, is_omsr, orbit_count, stabilizer)
from omsr.cli import group_roster
from omsr.constructions import (cyclic_connection_table, nonabelian_connection_table,
                                recipe_table)
from omsr.digraphs import (ConnectionTable, Digraph, MCayleyDigraph, _reachable, build_mcayley,
                           right_translation)
from omsr.errors import TooLarge
from omsr.groups import catalog_group, group_from_cayley_table, normalize_generating_pair
from omsr.perms import compose, inverse, orbit_partition
from omsr.sweep import _RankedMoves, enumerate_tables, exhaustive_sweep
from oracles import (arcs, brute_force_automorphisms, certificate, elements, first_occurrence,
                     k_regular, oriented, refine, report_fields, strongly_connected)


def directed_cycle(n):
    return Digraph(n, [[(i + 1) % n] for i in range(n)])


def random_table(G, m, rng, max_cell=2):
    entries = {}
    for i in range(m):
        for j in range(m):
            k = rng.randrange(max_cell + 1)
            entries[(i, j)] = rng.sample(range(G.order), min(k, G.order))
    return ConnectionTable(m, entries)


def test_refine_vertex_transitive_single_class():
    colors = refine(directed_cycle(6))
    assert len(set(colors)) == 1


def test_refine_distinct_in_valencies_discrete():
    # Path-like digraph: 0->1, 0->2, 1->2; all in/out profiles differ.
    d = Digraph(3, [[1, 2], [2], []])
    colors = refine(d)
    assert len(set(colors)) == 3


def test_refine_regular_digraph_stays_uniform():
    # On an in/out-regular digraph every vertex has the same degree profile,
    # so plain refinement cannot split anything; the search individualizes
    # to break ties instead.
    G, pair = catalog_group("cyclic", [7])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
    assert len(set(refine(d))) == 1


def test_individualized_refinement_separates_blocks_z7_m2():
    G, pair = catalog_group("cyclic", [7])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
    start = [1] + [0] * (d.n - 1)
    colors = refine(d, start)
    blocks0 = {colors[v] for v in range(7)}
    blocks1 = {colors[v] for v in range(7, 14)}
    assert blocks0.isdisjoint(blocks1)


def test_refine_classes_are_orbit_unions():
    rng = random.Random(41)
    G, _ = catalog_group("cyclic", [4])
    for _ in range(25):
        d = build_mcayley(G, random_table(G, 2, rng))
        colors = refine(d)
        for orbit in orbit_partition(brute_force_automorphisms(d), d.n):
            assert len({colors[v] for v in orbit}) == 1


def test_automorphisms_directed_cycle():
    A = automorphisms(directed_cycle(5))
    assert A.order == 5
    assert elements(A) == {tuple((i + k) % 5 for i in range(5)) for k in range(5)}


def test_automorphisms_cyclic_recipe():
    for n in (3, 5):
        G, pair = catalog_group("cyclic", [n])
        d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
        assert automorphisms(d).order == n


def test_vertex_cap():
    assert automorphisms(directed_cycle(VERTEX_CAP)).order == VERTEX_CAP == 512
    with pytest.raises(TooLarge, match="513 vertices exceeds cap 512"):
        automorphisms(directed_cycle(VERTEX_CAP + 1))


def test_brute_force_examples():
    assert len(brute_force_automorphisms(Digraph(1, [[]]))) == 1
    assert len(brute_force_automorphisms(directed_cycle(4))) == 4
    with pytest.raises(TooLarge):
        brute_force_automorphisms(directed_cycle(9))


def test_brute_force_trivial_witness_m7():
    from omsr.groups import Group
    from omsr.sweep import find_witness
    Z1 = Group(mult=((0,),), inv=(0,), label="Z1")
    table, gamma, _ = find_witness(Z1, 7)
    assert table is not None
    assert len(brute_force_automorphisms(gamma)) == 1


def test_engine_matches_brute_force_random():
    rng = random.Random(97)
    for name, params in [("cyclic", [2]), ("cyclic", [3]), ("cyclic", [4]),
                         ("elementary_abelian_2", [2])]:
        G, _ = catalog_group(name, params)
        m_max = 2 if G.order >= 3 else 3
        for _ in range(15):
            m = rng.randint(1, m_max)
            if G.order * m > 8:
                continue
            d = build_mcayley(G, random_table(G, m, rng))
            assert elements(automorphisms(d)) == brute_force_automorphisms(d)


def test_relabel_conjugation_invariance():
    rng = random.Random(13)
    G, _ = catalog_group("cyclic", [3])
    for _ in range(10):
        d = build_mcayley(G, random_table(G, 2, rng))
        pi = list(range(d.n))
        rng.shuffle(pi)
        pi = tuple(pi)
        relabeled = Digraph(d.n, [sorted(pi[w] for w in d.out_adj[inverse(pi)[v]])
                                  for v in range(d.n)])
        A = elements(automorphisms(d))
        B = elements(automorphisms(relabeled))
        assert B == {compose(compose(inverse(pi), a), pi) for a in A}


def test_aut_order_bounded():
    d = directed_cycle(6)
    assert aut_order_bounded(d, 6) == 6
    assert aut_order_bounded(d, 10) == 6
    assert aut_order_bounded(d, 3) is None


def test_stabilizer_examples():
    G, pair = catalog_group("cyclic", [5])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
    A = automorphisms(d)
    for v in range(d.n):
        assert stabilizer(A, v).order == 1
    rot = automorphisms(directed_cycle(7))
    assert stabilizer(rot, 0).order == 1


def test_orbit_count_regular_action():
    G, pair = catalog_group("cyclic", [5])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 3))
    assert orbit_count(automorphisms(d)) == 3


def test_aut_divisible_by_group_order():
    rng = random.Random(59)
    G, _ = catalog_group("elementary_abelian_2", [1])
    for _ in range(30):
        d = build_mcayley(G, random_table(G, rng.choice([2, 3]), rng))
        assert automorphisms(d).order % G.order == 0


def test_is_omsr_positive_cyclic():
    G, pair = catalog_group("cyclic", [5])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
    report = is_omsr(d)
    assert report.omsr and report.aut_order == 5
    assert report.oriented and report.regular2 and report.connected
    assert report.translations_embed
    assert report.stabilizer_order == 1


def test_is_omsr_positive_nonabelian():
    G, pair = catalog_group("symmetric", [3])
    a, b = normalize_generating_pair(G, pair.a, pair.b)
    d = build_mcayley(G, nonabelian_connection_table(G, a, b, 2))
    report = is_omsr(d)
    assert report.omsr and report.aut_order == 6


def test_is_omsr_negative():
    # A table whose digraph keeps extra symmetry: empty table, m=2 over Z2.
    G, _ = catalog_group("cyclic", [2])
    d = build_mcayley(G, ConnectionTable(2, {(0, 1): [0], (1, 0): [0]}))
    report = is_omsr(d)
    assert not report.omsr
    assert report.aut_order % G.order == 0


def test_translations_in_aut_for_recipes():
    G, pair = catalog_group("cyclic", [7])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 2))
    elems = elements(automorphisms(d))
    for g in G.elements():
        assert right_translation(G, 2, g) in elems


def test_translation_seed_check_detects_broken_translation():
    # A hand-built digraph on Z2^2 x Z_2 whose arcs are kept by the
    # translation by element 1 but not by element 2: only the generators'
    # translations are checked, and one failing still reports no embedding.
    K, _ = catalog_group("elementary_abelian_2", [2])
    out = [[] for _ in range(8)]
    for x in range(4):
        out[x].append(4 + x)
        out[4 + x].append(x ^ 1)
    out[0].append(6)
    out[1].append(7)
    d = MCayleyDigraph(K, ConnectionTable(2, {(0, 1): [0], (1, 0): [1]}), out)
    A = automorphisms(d)
    assert A.translations_embed is False
    auts = brute_force_automorphisms(d)
    assert A.order == len(auts)
    assert right_translation(K, 2, 1) in auts
    assert right_translation(K, 2, 2) not in auts
    # |Aut| = 2 is not a multiple of |G| = 4; the report says so, not raises.
    report = is_omsr(d)
    assert (report.omsr, report.translations_embed, report.aut_order) == (False, False, 2)


# --- orbit-stabilizer search: differential checks and cost guards ------------

def random_valency2_table(G, m, rng):
    """Every block row and column totals 2: two random block permutations,
    one random element per arc."""
    while True:
        sigmas = (rng.sample(range(m), m), rng.sample(range(m), m))
        if G.order > 1 or all(a != b for a, b in zip(*sigmas)):
            break
    entries = {}
    for sigma in sigmas:
        for i in range(m):
            cell = entries.setdefault((i, sigma[i]), set())
            cell.add(rng.choice([t for t in range(G.order) if t not in cell]))
    return ConnectionTable(m, entries)


def permuted(d, pi):
    """The digraph with each vertex u renamed pi[u], as a plain Digraph."""
    out = [[] for _ in range(d.n)]
    for u in range(d.n):
        out[pi[u]] = [pi[w] for w in d.out_adj[u]]
    return Digraph(d.n, out)


def relabel(d, rng):
    """The digraph under a random vertex permutation, as a plain Digraph."""
    pi = list(range(d.n))
    rng.shuffle(pi)
    return permuted(d, pi)


def test_networkx_agrees_on_aut_order():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher
    cap = 2000
    rng = random.Random(6060)
    pool = [("cyclic", [n]) for n in (1, 2, 3, 5, 6, 12)]
    pool += [("elementary_abelian_2", [2]), ("symmetric", [3]), ("dihedral", [5])]
    checked = 0
    while checked < 40:
        name, params = rng.choice(pool)
        G, _ = catalog_group(name, params)
        m = rng.randint(1, max(1, 60 // G.order))
        if G.order * m < 2:
            continue
        d = build_mcayley(G, random_valency2_table(G, m, rng))
        plain = relabel(d, rng)
        g = nx.DiGraph()
        g.add_nodes_from(range(plain.n))
        g.add_edges_from(arcs(plain))
        count = sum(1 for _ in itertools.islice(
            DiGraphMatcher(g, g).isomorphisms_iter(), cap + 1))
        seeded, unseeded = automorphisms(d).order, automorphisms(plain).order
        assert seeded == unseeded
        if count <= cap:
            assert seeded == count, (name, params, m)
        else:
            assert seeded > cap
        checked += 1


def test_sympy_order_of_returned_generators():
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation
    from sympy.combinatorics import PermutationGroup as SymPyGroup
    rng = random.Random(77)
    for name, params, m in [("cyclic", [2], 3), ("elementary_abelian_2", [2], 3),
                            ("cyclic", [4], 2), ("symmetric", [3], 2), ("cyclic", [1], 6)]:
        G, _ = catalog_group(name, params)
        for _ in range(8):
            d = build_mcayley(G, random_valency2_table(G, m, rng))
            A = automorphisms(d)
            gens = [Permutation(list(g)) for g in A.generators]
            gens.append(Permutation(list(range(d.n))))
            assert SymPyGroup(gens).order() == A.order


def test_stabilizer_matches_brute_force_elements():
    G, _ = catalog_group("cyclic", [2])
    rng = random.Random(5)
    for _ in range(10):
        d = build_mcayley(G, random_valency2_table(G, 3, rng))
        A = automorphisms(d)
        for v in (0, 3):
            want = {p for p in brute_force_automorphisms(d) if p[v] == v}
            assert elements(stabilizer(A, v)) == want


def test_verify_costs_at_most_2m_individualizations(monkeypatch):
    engine = importlib.import_module("omsr.automorphisms")
    calls, aborted = [], []
    original = engine._individualize

    def counting(*args, **kwargs):
        calls.append(args[3])
        run = original(*args, **kwargs)
        aborted.append(run is None)
        return run

    monkeypatch.setattr(engine, "_individualize", counting)
    G, pair = catalog_group("cyclic", [48])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 5))
    # The engine itself; `is_omsr` closes this digraph without it.
    A = automorphisms(d)
    assert A.order == 48 and A.translations_embed and orbit_count(A) == 5
    assert len(calls) <= 2 * 5
    # Each of the m - 1 block probes stops where its refinement trace
    # leaves the base path's.
    assert sum(aborted) == 5 - 1


def test_verify_refines_only_individualizations(monkeypatch):
    # The recipe digraph is 2-regular, so its uniform partition is taken as
    # is: one refinement for the path and one for each of the 4 probes.
    engine = importlib.import_module("omsr.automorphisms")
    calls = []
    original = engine._refine

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(engine, "_refine", counting)
    G, pair = catalog_group("cyclic", [48])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 5))
    assert automorphisms(d).order == 48
    assert len(calls) == 5


# --- the rigid-block certificate of is_omsr ----------------------------------

def recipe_corpus(max_order=24):
    """(label, m, digraph) for every recipe digraph of group_roster(max_order)
    at m = 2..10 under the vertex cap."""
    for G, pair in group_roster(max_order):
        for m in range(2, 11):
            if G.order * m <= VERTEX_CAP and (made := recipe_table(G, pair, m)):
                yield G.label, m, build_mcayley(G, made[0])


def blocks_of(A):
    return sorted(map(sorted, orbit_partition(A.generators, A.degree)))


def report_without_runtime(d):
    fields = is_omsr(d).to_dict()
    del fields["runtime_ms"]
    return fields


def test_is_omsr_closes_large_recipes_without_individualizing(monkeypatch):
    # The three 240-vertex recipe digraphs are verified by the certificate:
    # no individualization, and one refinement, on the m-block quotient.
    # Connectivity and the orbits come from the certificate too.
    engine = importlib.import_module("omsr.automorphisms")
    individualized, refined, recomputed = [], [], []
    original, refine_ = engine._individualize, engine._refine
    monkeypatch.setattr(engine, "_individualize",
                        lambda *args, **kw: individualized.append(args) or original(*args, **kw))
    monkeypatch.setattr(engine, "_refine",
                        lambda *args, **kw: refined.append(len(args[2])) or refine_(*args, **kw))
    monkeypatch.setattr(engine, "is_connected", recomputed.append)
    monkeypatch.setattr(engine.permlib, "orbit_partition", lambda *args: recomputed.append(args))
    for family, params, m in (("cyclic", [48], 5), ("cyclic_product", [6, 8], 5),
                              ("alternating", [5], 4)):
        G, pair = catalog_group(family, params)
        report = is_omsr(build_mcayley(G, recipe_table(G, pair, m)[0]))
        assert (report.omsr, report.aut_order, report.stabilizer_order, report.orbit_count,
                report.translations_embed) == (True, G.order, 1, m, True)
    assert individualized == recomputed == []
    assert refined == [5, 5, 4]


def test_is_omsr_falls_back_to_the_engine_with_the_same_report(monkeypatch):
    # Z3 m=2: both blocks have the same ball sizes and the quotient does not
    # split them, so the engine decides and the report is the one it gave
    # before the certificate.  The engine is seeded with the translations
    # is_omsr checked for the certificate, so each is checked once.
    engine = importlib.import_module("omsr.automorphisms")
    individualized, checked = [], []
    original, is_aut = engine._individualize, engine._is_automorphism
    monkeypatch.setattr(engine, "_individualize",
                        lambda *args, **kw: individualized.append(args) or original(*args, **kw))
    monkeypatch.setattr(engine, "_is_automorphism", lambda d, p: checked.append(p) or is_aut(d, p))
    G, pair = catalog_group("cyclic", [3])
    d = build_mcayley(G, recipe_table(G, pair, 2)[0])
    assert certificate(d) is None
    del checked[:]
    fields = is_omsr(d, construction_kind="cyclic").to_dict()
    translations = G._memo[("translations", 2)]
    assert [sum(p is t for p in checked) for t in translations] == [1] * len(translations)
    del fields["runtime_ms"]
    assert fields == {
        "group_label": "Z3", "m": 2, "group_order": 3, "construction_kind": "cyclic",
        "omsr": True, "oriented": True, "regular2": True, "connected": True,
        "aut_order": 3, "stabilizer_order": 1, "orbit_count": 2, "translations_embed": True}
    assert individualized


def test_certificate_agrees_with_engine_on_recipe_corpus():
    # The report matches the computation before a closed certificate gave
    # its connectivity and orbits, on every recipe digraph.
    closed, fell_back = 0, []
    for label, m, d in recipe_corpus():
        assert report_without_runtime(d) == report_fields(d), (label, m)
        C, A = certificate(d), automorphisms(d)
        if C is None:
            fell_back.append((label, m))
            continue
        closed += 1
        assert (C.order, C.translations_embed) == (A.order, A.translations_embed), (label, m)
        assert blocks_of(C) == blocks_of(A), (label, m)
    assert (closed, fell_back) == (438, [("Z3", 2)])


def test_certificate_never_closes_where_the_engine_finds_more():
    # Random valency-two tables, many with |Aut| > |G|: wherever the
    # certificate closes, the engine finds exactly R(G), and every report
    # matches the computation without the certificate's shortcuts.
    rng = random.Random(3232)
    pool = [("cyclic", [k]) for k in (1, 2, 3, 4, 6, 12)]
    pool += [("elementary_abelian_2", [2]), ("symmetric", [3]), ("dicyclic", [2])]
    closed = larger = 0
    for _ in range(600):
        G, _ = catalog_group(*rng.choice(pool))
        m = rng.randint(1, 6)
        if G.order * m < 2:
            continue
        d = build_mcayley(G, random_valency2_table(G, m, rng))
        assert report_without_runtime(d) == report_fields(d)
        C, A = certificate(d), automorphisms(d)
        larger += A.order > G.order
        if C is not None:
            closed += 1
            assert (A.order, A.translations_embed) == (G.order, True)
            assert blocks_of(C) == blocks_of(A)
    assert closed >= 200 and larger >= 200


def test_closed_certificate_on_a_digraph_that_is_not_strongly_connected():
    # Z3 = <a>, m = 2, T[0][0] = {a}, T[0][1] = {e}, T[1][1] = {a}: block 0
    # has out-degree 2 and block 1 in-degree 2, and no arc leaves block 1.
    # The certificate closes, its search going against the arcs 0 -> 1, so
    # connectivity is not read off it.
    G, pair = catalog_group("cyclic", [3])
    d = build_mcayley(G, ConnectionTable(2, {(0, 0): [pair.a], (0, 1): [0], (1, 1): [pair.a]}))
    assert certificate(d) is not None
    assert not k_regular(d, 2) and not strongly_connected(d)
    fields = report_without_runtime(d)
    assert fields == report_fields(d)
    assert (fields["connected"], fields["regular2"], fields["aut_order"],
            fields["orbit_count"]) == (False, False, 3, 2)


def test_certificate_needs_the_translations(monkeypatch):
    # Two arcs of the Z48 m=5 recipe swap heads far from every block's first
    # vertex: the translations no longer keep the arcs, though the ball sizes
    # and the quotient read at the first vertices stay as they were.  The
    # engine is seeded with the empty list of translations that passed, so
    # each translation is still checked once.
    engine = importlib.import_module("omsr.automorphisms")
    checked, is_aut = [], engine._is_automorphism
    monkeypatch.setattr(engine, "_is_automorphism", lambda d, p: checked.append(p) or is_aut(d, p))
    G, pair = catalog_group("cyclic", [48])
    d = build_mcayley(G, recipe_table(G, pair, 5)[0])
    out = [list(nbrs) for nbrs in d.out_adj]
    u, v = 2 * 48 + 24, 2 * 48 + 25
    assert (out[u][1] // 48, out[v][1] // 48) == (3, 3)
    out[u][1], out[v][1] = out[v][1], out[u][1]
    swapped = MCayleyDigraph(G, d.table, out)
    assert certificate(swapped) is None
    del checked[:]
    report = is_omsr(swapped)
    assert (report.aut_order, report.translations_embed, report.omsr) == (1, False, False)
    translations = G._memo[("translations", 5)]
    assert [sum(p is t for p in checked) for t in translations] == [1] * len(translations)


def test_networkx_agrees_on_closed_certificates():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher
    # A sample of the 136 recipe digraphs of group_roster(12) on at most 60
    # vertices (all of them take networkx about 9 s), and random tables.
    rng = random.Random(60)
    cases = rng.sample([d for _, _, d in recipe_corpus(12) if d.n <= 60], 25)
    for name, params in (("cyclic", [4]), ("symmetric", [3]), ("elementary_abelian_2", [2])):
        G, _ = catalog_group(name, params)
        cases += [build_mcayley(G, random_valency2_table(G, rng.randint(2, 5), rng))
                  for _ in range(10)]
    checked = 0
    for d in cases:
        C = certificate(d)
        if C is None:
            continue
        g = nx.DiGraph()
        g.add_nodes_from(range(d.n))
        g.add_edges_from(arcs(d))
        matcher = DiGraphMatcher(g, g)
        count = sum(1 for _ in itertools.islice(matcher.isomorphisms_iter(), C.order + 1))
        assert count == C.order == d.group.order
        checked += 1
    assert checked >= 30


def test_search_never_rebuilds_cells_from_colors(monkeypatch):
    # Each level of the search path keeps its cells, and the top level
    # starts from the one uniform cell, so the helper that builds cells from
    # colours serves only callers that have colours alone.
    engine = importlib.import_module("omsr.automorphisms")
    calls = []
    original = engine._cells
    monkeypatch.setattr(engine, "_cells", lambda colors: calls.append(colors) or original(colors))
    rng = random.Random(77)
    cases = list(oracle_cases(rng))
    for family, params, m in (("cyclic", [48], 5), ("alternating", [5], 4)):
        G, pair = catalog_group(family, params)
        cases.append(build_mcayley(G, recipe_table(G, pair, m)[0]))
    orders = [automorphisms(d).order for d in cases]
    assert calls == []
    assert all(order == len(brute_force_automorphisms(d))
               for d, order in zip(cases, orders) if d.n <= 8)
    _refine(cases[0].out_adj, cases[0].in_adj, [0] * cases[0].n, [0])
    assert len(calls) == 1


def test_translation_seeds_built_once_per_group_and_m(monkeypatch):
    # The all-witness Z2^2 m=3 scan calls the engine 21 times on one group:
    # the translations by its 2 generators are built once, and still
    # checked on every call.
    engine = importlib.import_module("omsr.automorphisms")
    built, checked = [], []
    original, is_aut = engine.right_translation, engine._is_automorphism
    monkeypatch.setattr(engine, "right_translation",
                        lambda G, m, g: built.append((G, m, g)) or original(G, m, g))
    monkeypatch.setattr(engine, "_is_automorphism",
                        lambda d, p: checked.append(p) or is_aut(d, p))
    K, _ = catalog_group("elementary_abelian_2", [2])
    result = exhaustive_sweep(K, 3, all_witnesses=True)
    assert len(result.witnesses) == 1152
    assert built == [(K, 3, 1), (K, 3, 2)]
    seeds = K._memo[("translations", 3)]
    assert sum(any(p is t for t in seeds) for p in checked) == 2 * 21
    automorphisms(build_mcayley(K, recipe_table(K, None, 5)[0]))
    assert built[2:] == [(K, 5, 1), (K, 5, 2)]
    # A relabelled copy is another Group: it builds its own seeds, once,
    # from its own generating set ([1, 2] here, where Z4 has [1]).
    Z4, _ = catalog_group("cyclic", [4])
    sigma = [0, 2, 1, 3]
    table = [[0] * 4 for _ in range(4)]
    for x in range(4):
        for y in range(4):
            table[sigma[x]][sigma[y]] = sigma[Z4.mult[x][y]]
    Z4b = group_from_cayley_table(table)
    T = ConnectionTable(3, {(0, 1): [1, 2], (1, 2): [1, 3], (2, 0): [1, 2]})
    for G in (Z4, Z4b, Z4, Z4b):
        assert automorphisms(build_mcayley(G, T)).translations_embed
    assert built[4:] == [(Z4, 3, 1), (Z4b, 3, 1), (Z4b, 3, 2)]


def test_is_omsr_checks_match_predicates():
    # is_omsr's orientation, 2-regularity and strong connectivity agree
    # with the arc-list oracles, which share no code with the predicates.
    def check(G, table):
        d = build_mcayley(G, table)
        report = is_omsr(d)
        want = (oriented(d), k_regular(d, 2), strongly_connected(d))
        assert (report.oriented, report.regular2, report.connected) == want
        return want

    rng = random.Random(4242)
    seen = set()
    for family, params in (("cyclic", [1]), ("cyclic", [2]), ("cyclic", [3]),
                           ("elementary_abelian_2", [2]), ("dihedral", [3])):
        G, _ = catalog_group(family, params)
        for m in range(1, 5):
            for _ in range(6):
                if G.order > 1 or m > 1:
                    seen.add(check(G, random_valency2_table(G, m, rng)))
                seen.add(check(G, random_table(G, m, rng)))
    assert len(seen) >= 5
    Z1, _ = catalog_group("cyclic", [1])
    # 0 -> 1 and a loop at 1: vertex 0 reaches everything, but nothing
    # reaches it, and the in- and out-degrees differ.
    d = build_mcayley(Z1, ConnectionTable(2, {(0, 1): [0], (1, 1): [0]}))
    assert _reachable([(d.out_adj,)] * d.n, 0) == d.n
    assert check(Z1, d.table) == (False, False, False)
    # Two copies of the oriented Cay(Z5, {1, 2}): 2-regular, not connected.
    Z5, _ = catalog_group("cyclic", [5])
    assert check(Z5, ConnectionTable(2, {(0, 0): [1, 2], (1, 1): [1, 2]})) == \
        (True, True, False)
    # Cay(Z3, {0, 1}): a loop at every vertex, 2-regular and connected.
    Z3, _ = catalog_group("cyclic", [3])
    assert check(Z3, ConnectionTable(1, {(0, 0): [0, 1]})) == (False, True, True)


def test_z100_m5_near_vertex_cap():
    G, pair = catalog_group("cyclic", [100])
    d = build_mcayley(G, cyclic_connection_table(G, pair.a, 5))
    report = is_omsr(d)
    assert (report.aut_order, report.stabilizer_order, report.orbit_count) == (100, 1, 5)
    assert report.omsr and report.translations_embed


def test_property_relabeling_keeps_order_and_orbits():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    groups = [("cyclic", [2]), ("cyclic", [3]), ("cyclic", [6]),
              ("elementary_abelian_2", [2]), ("symmetric", [3])]

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from(groups), st.integers(1, 5),
                      st.randoms(use_true_random=False))
    def check(group, m, rng):
        G, _ = catalog_group(*group)
        d = build_mcayley(G, random_valency2_table(G, m, rng))
        A, B = automorphisms(d), automorphisms(relabel(d, rng))
        assert A.order == B.order and A.order % G.order == 0
        assert orbit_count(A) == orbit_count(B)
        assert stabilizer(A, 0).order * len(orbit_partition(A.generators, d.n)[0]) == A.order

    check()


# --- splitter-queue refinement: reference rounds and equivariance ------------

def signature_rounds(d, colors):
    """Reference refinement: recolor every vertex by its color and the sorted
    colors of its out- and in-neighbours until no class splits; classes are
    numbered by first occurrence."""
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in d.out_adj[v])),
                 tuple(sorted(colors[w] for w in d.in_adj[v]))) for v in range(d.n)]
        numbers = {sig: i for i, sig in enumerate(dict.fromkeys(sigs))}
        if len(numbers) == len(set(colors)):
            return [numbers[sig] for sig in sigs]
        colors = [numbers[sig] for sig in sigs]


def random_digraph(n, rng):
    """Out-degrees 0..3, loops allowed, so in- and out-degrees vary."""
    return Digraph(n, [rng.sample(range(n), rng.randint(0, min(3, n))) for _ in range(n)])


def oracle_cases(rng):
    for name, params, m in [("cyclic", [1], 7), ("cyclic", [2], 4), ("cyclic", [3], 3),
                            ("cyclic", [5], 2), ("elementary_abelian_2", [2], 3),
                            ("symmetric", [3], 2)]:
        G, _ = catalog_group(name, params)
        for _ in range(6):
            yield build_mcayley(G, random_table(G, m, rng))
            yield build_mcayley(G, random_valency2_table(G, m, rng))
    for n in (1, 2, 5, 9, 16, 30):
        for _ in range(6):
            yield random_digraph(n, rng)


def test_refine_matches_signature_rounds():
    rng = random.Random(2024)
    for d in oracle_cases(rng):
        uniform = _refine(d.out_adj, d.in_adj, [0] * d.n, [0])[0]
        assert first_occurrence(uniform) == signature_rounds(d, [0] * d.n)
        for v in range(d.n):
            fresh = list(uniform)
            fresh[v] = -1
            assert first_occurrence(_individualize(d.out_adj, d.in_adj, uniform, v)[0]) == \
                first_occurrence(signature_rounds(d, fresh))
        for _ in range(3):
            labels = [rng.choice((-1, 0, 5)) for _ in range(d.n)]
            assert refine(d, labels) == signature_rounds(d, first_occurrence(labels))


def test_uniform_coloring_is_equitable_on_degree_regular_digraphs():
    # The search takes the uniform partition unrefined when all out-degrees
    # and all in-degrees agree; refinement leaves it as is there.
    digraphs = [d for d in oracle_cases(random.Random(2024))
                if len(set(map(len, d.out_adj))) < 2 and len(set(map(len, d.in_adj))) < 2]
    for family, params, m in (("cyclic", [48], 5), ("cyclic_product", [6, 8], 5),
                              ("alternating", [5], 4)):
        G, pair = catalog_group(family, params)
        digraphs.append(build_mcayley(G, recipe_table(G, pair, m)[0]))
    assert len(digraphs) > 30
    for d in digraphs:
        assert _refine(d.out_adj, d.in_adj, [0] * d.n, [0])[0] == [0] * d.n


def test_refine_follows_or_leaves_reference_trace():
    rng = random.Random(7)
    for d in oracle_cases(rng):
        uniform, top = _refine(d.out_adj, d.in_adj, [0] * d.n, [0])
        assert _refine(d.out_adj, d.in_adj, [0] * d.n, [0], top) == (uniform, top)
        for v in range(d.n):
            colors, trace = _individualize(d.out_adj, d.in_adj, uniform, v)
            assert _individualize(d.out_adj, d.in_adj, uniform, v, trace) == (colors, trace)
            assert _individualize(d.out_adj, d.in_adj, uniform, v, trace + [(0, 1)]) is None
            if trace:
                assert _individualize(d.out_adj, d.in_adj, uniform, v, trace[:-1]) is None
                i = rng.randrange(len(trace))
                bad = list(trace)
                bad[i] = (bad[i][0], bad[i][1] + 1)
                assert _individualize(d.out_adj, d.in_adj, uniform, v, bad) is None


def check_equivariant(d, pi, rng):
    """Colors commute with pi, and the traces are equal, after the top-level
    refinement and after each individualization along one path, as probe's
    leaf matching and trace pruning need."""
    dp = permuted(d, pi)
    colors, trace = _refine(d.out_adj, d.in_adj, [0] * d.n, [0])
    colors_p, trace_p = _refine(dp.out_adj, dp.in_adj, [0] * d.n, [0])
    while True:
        assert all(colors_p[pi[v]] == colors[v] for v in range(d.n))
        assert trace_p == trace
        open_cells = [v for v in range(d.n) if colors.count(colors[v]) > 1]
        if not open_cells:
            return
        v = rng.choice(open_cells)
        colors, trace = _individualize(d.out_adj, d.in_adj, colors, v)
        colors_p, trace_p = _individualize(dp.out_adj, dp.in_adj, colors_p, pi[v])


def test_refine_equivariant_under_relabelling():
    rng = random.Random(31)
    for d in oracle_cases(rng):
        pi = list(range(d.n))
        rng.shuffle(pi)
        check_equivariant(d, pi, rng)


def test_property_refine_equivariant():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    groups = [("cyclic", [1]), ("cyclic", [4]), ("cyclic", [6]),
              ("elementary_abelian_2", [2]), ("dihedral", [4]), ("symmetric", [3])]

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from(groups), st.integers(2, 6), st.booleans(),
                      st.randoms(use_true_random=False))
    def check(group, m, regular, rng):
        G, _ = catalog_group(*group)
        table = random_valency2_table(G, m, rng) if regular else random_table(G, m, rng)
        d = build_mcayley(G, table)
        pi = list(range(d.n))
        rng.shuffle(pi)
        check_equivariant(d, pi, rng)

    check()


# SHA-256 of engine_output_digest(), computed on the kernel before
# refinement split cells in place.  A kernel change that moves a colour, and
# so a generator, changes it.
ENGINE_OUTPUT_SHA256 = "f64f8a4662243c245c36f066e286ae37356d42405268bb039cb19268c42e18e1"


def engine_output_digraphs():
    """Every oriented table's digraph of Z2 at m = 3 and of the Klein
    four-group at m = 2, and the recipe digraphs of Z48 m=5, Z6xZ8 m=5 and
    A5 m=4."""
    digraphs = []
    for family, params, m in (("cyclic", [2], 3), ("elementary_abelian_2", [2], 2)):
        G, _ = catalog_group(family, params)
        table = _RankedMoves(G, m).table
        digraphs += [build_mcayley(G, table(key)) for _, key in enumerate_tables(G, m)]
    for family, params, m in (("cyclic", [48], 5), ("cyclic_product", [6, 8], 5),
                              ("alternating", [5], 4)):
        G, pair = catalog_group(family, params)
        digraphs.append(build_mcayley(G, recipe_table(G, pair, m)[0]))
    return digraphs


def engine_output_digest():
    """Hash of (order, generators, translations_embed) from `automorphisms`
    on `engine_output_digraphs`."""
    digraphs = engine_output_digraphs()
    h = hashlib.sha256()
    for d in digraphs:
        A = automorphisms(d)
        h.update(repr((A.order, A.generators, A.translations_embed)).encode())
    return len(digraphs), h.hexdigest()


def test_engine_output_pinned():
    assert engine_output_digest() == (19, ENGINE_OUTPUT_SHA256)


def test_out_list_order_changes_no_output():
    # A digraph is its arc set: with every out-list reversed, the engine
    # gives the same group and generators, and is_omsr the same report.
    rng = random.Random(34)
    digraphs = engine_output_digraphs()
    for family, params in (("cyclic", [1]), ("cyclic", [3]), ("cyclic", [4]),
                           ("elementary_abelian_2", [2]), ("symmetric", [3])):
        G, _ = catalog_group(family, params)
        digraphs += [build_mcayley(G, random_valency2_table(G, m, rng))
                     for m in (2, 3, 4, 5) for _ in range(4)]
    reordered = 0
    for d in digraphs:
        flipped = MCayleyDigraph(d.group, d.table, [nbrs[::-1] for nbrs in d.out_adj])
        reordered += flipped.out_adj != d.out_adj
        assert flipped.in_adj == d.in_adj
        A, B = automorphisms(d), automorphisms(flipped)
        assert (B.order, B.generators, B.translations_embed) == (
            A.order, A.generators, A.translations_embed)
        want, got = is_omsr(d).to_dict(), is_omsr(flipped).to_dict()
        del want["runtime_ms"], got["runtime_ms"]
        assert got == want
    assert len(digraphs) == 19 + 80 and reordered == len(digraphs)
