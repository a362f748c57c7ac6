"""CLI commands, exit codes, JSON outputs, roster coverage."""

import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import omsr
from omsr.automorphisms import is_omsr
from omsr.cli import (EXIT_CAP, EXIT_FAILED, EXIT_INPUT, EXIT_OK, group_roster,
                      load_group, main, reproduce_theorem, simple_group_check,
                      verify_instance)
from omsr.constructions import (cyclic_connection_table, nonabelian_connection_table,
                                recipe_table)
from omsr.digraphs import ConnectionTable, build_mcayley
from omsr.errors import TooLarge, UnknownFamily
from omsr.groups import catalog_group, normalize_generating_pair
from omsr.sweep import GUARD_PRODUCT


def test_load_group_catalog_syntax():
    G, pair = load_group("catalog:cyclic:5")
    assert G.order == 5 and pair is not None
    G2, _ = load_group("catalog:cyclic_product:3:3")
    assert G2.order == 9


def test_load_group_from_file(tmp_path):
    spec = tmp_path / "g.txt"
    spec.write_text("kind: catalog\nname: symmetric\nparams: 3\n")
    G, _ = load_group(str(spec))
    assert G.order == 6


def test_verify_instance_examples():
    G, pair = catalog_group("cyclic", [5])
    report = verify_instance(G, pair, 2)
    assert report.omsr and report.aut_order == 5

    S3, p3 = catalog_group("symmetric", [3])
    report = verify_instance(S3, p3, 3)
    assert report.omsr and report.aut_order == 6

    Z2, p2 = catalog_group("cyclic", [2])
    report = verify_instance(Z2, p2, 2)
    assert not report.omsr
    assert report.certificate is not None


def test_verify_recipe_override():
    G, pair = catalog_group("cyclic_product", [3, 3])
    report = verify_instance(G, pair, 2, recipe="abelian")
    assert report.omsr and report.construction_kind == "abelian_2gen"


def test_verify_recipe_override_klein_four_is_input_error(capsys):
    code = main(["verify", "--group", "catalog:elementary_abelian_2:2", "--m", "3",
                 "--recipe", "abelian"])
    assert code == EXIT_INPUT
    assert "no generator of order >= 3" in capsys.readouterr().err


def test_verify_recipe_override_cyclic_and_nonabelian():
    # An override verifies exactly the named recipe's table: the same report
    # as building that table by hand, and the same exit codes where it does
    # not apply.
    def same(report, G, table, kind):
        want = is_omsr(build_mcayley(G, table), construction_kind=kind).to_dict()
        got = report.to_dict()
        del want["runtime_ms"], got["runtime_ms"]
        return got == want

    for n in (3, 8):
        G, pair = catalog_group("cyclic", [n])
        for m in (2, 3, 7):
            report = verify_instance(G, pair, m, recipe="cyclic")
            assert report.omsr
            assert same(report, G, cyclic_connection_table(G, pair.a, m), "cyclic")
    for name, params in [("symmetric", [3]), ("dihedral", [4]), ("dicyclic", [3]),
                         ("alternating", [4])]:
        G, pair = catalog_group(name, params)
        a, b = normalize_generating_pair(G, pair.a, pair.b)
        for m in (2, 3, 7):
            report = verify_instance(G, pair, m, recipe="nonabelian")
            assert report.omsr
            assert same(report, G, nonabelian_connection_table(G, a, b, m), "nonabelian_2gen")
    for spec, recipe, code in [
            ("catalog:cyclic_product:2:4", "cyclic", EXIT_INPUT),     # NotGenerating
            ("catalog:symmetric:3", "cyclic", EXIT_INPUT),
            ("catalog:cyclic:2", "cyclic", EXIT_INPUT),               # OrderTooSmall
            ("catalog:cyclic:8", "nonabelian", EXIT_INPUT),           # no second generator
            ("catalog:cyclic_product:3:3", "nonabelian", EXIT_INPUT),  # IsAbelian
            ("catalog:elementary_abelian_2:2", "nonabelian", EXIT_INPUT)]:
        assert main(["verify", "--group", spec, "--m", "2", "--recipe", recipe]) == code, spec


def test_reproduce_24x10_dispatch_gate(monkeypatch, tmp_path):
    # Every cell but the exceptions and the small searched witnesses comes
    # from a recipe.  An empty cache makes every searched cell search, and
    # each search lies inside the sweep's guard.
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    rows = reproduce_theorem(24, 10)
    assert len(rows) == 450
    assert not [r for r in rows if r["verdict"] == "FAILED"]
    certificates = {(r["group"], r["m"]): r["certificate"] for r in rows
                    if r["verdict"] == "NOT_EXISTS"}
    # (enumerated_count, oriented_count, max_aut_order_seen) from exhaustion.
    assert {key: (c["enumerated_count"], c["oriented_count"], c["max_aut_order_seen"])
            for key, c in certificates.items()} == {
        ("Z1", 2): (1, 0, 0), ("Z1", 3): (6, 0, 0), ("Z1", 4): (90, 0, 0),
        ("Z1", 5): (2040, 24, 5), ("Z1", 6): (67950, 570, 24),
        ("Z2", 2): (18, 0, 0), ("Z2", 3): (534, 10, 24), ("Z2xZ2", 2): (328, 6, 64)}
    assert all(c["all_failed"] for c in certificates.values())
    searched = {(r["group"], r["m"]) for r in rows
                if r.get("construction") == "search_witness"}
    assert searched == {("Z2", 4), ("Z2xZ2", 3), ("Z2xZ2", 4)}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "Z2_m4_v2.table", "Z2xZ2_m3_v2.table", "Z2xZ2_m4_v2.table"]
    assert all(r["order"] * r["m"] <= GUARD_PRODUCT for r in rows
               if r["verdict"] == "NOT_EXISTS" or r.get("construction") == "search_witness")
    assert {(r["group"], r["m"]) for r in rows if r.get("construction") == "spanning_tree_lift"} \
        == {(g, m) for g in ("Z2", "Z2xZ2") for m in range(5, 11)}
    assert {r["m"] for r in rows if r.get("construction") == "rigid_trivial"} == \
        set(range(7, 11))
    assert all(r["aut_order"] == r["order"] for r in rows if r["verdict"] == "EXISTS")


CORPUS_24X10 = Path(__file__).parent / "data" / "reproduce_24x10.json"


def corpus_text(rows):
    """The corpus layout: a JSON list with one row per line, keys sorted."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n"


def test_reproduce_24x10_matches_corpus(monkeypatch, tmp_path, capsys):
    # The verdict corpus is `omsr reproduce --max-order 24 --max-m 10 --json`
    # on an empty witness cache, rewritten by `corpus_text`.  A change that
    # moves a row updates the file and names the row and the reason.
    witnesses = tmp_path / "witnesses"
    witnesses.mkdir()
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(witnesses))
    path = tmp_path / "rows.json"
    code = main(["reproduce", "--max-order", "24", "--max-m", "10", "--json", str(path)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert corpus_text(json.loads(path.read_text())) == CORPUS_24X10.read_text()


def test_group_roster_complete_to_12():
    roster = group_roster(12)
    labels = [G.label for G, _ in roster]
    orders = [G.order for G, _ in roster]
    assert orders == sorted(orders)
    for expected in ("Z1", "Z12", "Z2xZ2", "Z2xZ4", "Z3xZ3", "D3", "D4", "D5",
                     "D6", "Q8", "Q12", "A4"):
        assert expected in labels, expected
    # 2-generated groups of order <= 12, one per isomorphism class.
    assert len(labels) == len(set(labels)) == 23


def test_reproduce_small():
    rows = reproduce_theorem(1, 2)
    assert len(rows) == 1
    assert rows[0]["verdict"] == "NOT_EXISTS"


def test_reproduce_order6_m3():
    rows = reproduce_theorem(6, 3)
    by_key = {(r["group"], r["m"]): r["verdict"] for r in rows}
    assert by_key[("D3", 2)] == "EXISTS"
    assert by_key[("D3", 3)] == "EXISTS"
    assert by_key[("Z6", 2)] == "EXISTS"
    assert by_key[("Z6", 3)] == "EXISTS"
    assert not any(v == "FAILED" for v in by_key.values())


def test_simple_group_check():
    report = simple_group_check("Z2", 2)
    assert not report.omsr and report.certificate is not None
    report = simple_group_check("Z5", 3)
    assert report.omsr and report.aut_order == 5
    with pytest.raises(UnknownFamily):
        simple_group_check("M11", 2)
    for m in (4, 8):  # 240 and 480 vertices, under the 512-vertex cap
        report = simple_group_check("A5", m)
        assert report.omsr and report.aut_order == 60
    with pytest.raises(TooLarge):
        simple_group_check("A5", 9)  # 540 vertices


def test_main_verify_exit_ok(capsys):
    assert main(["verify", "--group", "catalog:cyclic:5", "--m", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "OmSR" in out or "omsr" in out.lower()


def test_main_verify_exception_still_ok():
    # A certified exception is a successful verification of non-existence.
    assert main(["verify", "--group", "catalog:cyclic:2", "--m", "2"]) == EXIT_OK


def test_main_verify_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--group", "catalog:symmetric:3", "--m", "2",
                 "--json", str(path)])
    capsys.readouterr()
    assert code == EXIT_OK
    data = json.loads(path.read_text())
    assert data["omsr"] is True
    assert data["aut_order"] == 6
    assert data["group_order"] == 6


def test_main_sweep(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    code = main(["sweep", "--group", "catalog:elementary_abelian_2:2",
                 "--m", "2", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "NOT_EXISTS" in out
    data = json.loads(path.read_text())
    assert data["verdict"] == "NOT_EXISTS"
    assert data["witness_count"] == 0


def test_main_verify_cyclic_product_with_a_trivial_factor(capsys):
    # Z1 x Z4: the catalog pair's element indices wrap at the group order.
    for argv in (["--m", "2"], ["--m", "2", "--recipe", "cyclic"]):
        assert main(["verify", "--group", "catalog:cyclic_product:1:4", *argv]) == EXIT_OK
        assert "[cyclic]: omsr=True" in capsys.readouterr().out


def test_main_sweep_cyclic_product_of_trivial_groups(capsys):
    assert main(["sweep", "--group", "catalog:cyclic_product:1:1", "--m", "3"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "Z1xZ1 m=3 valency=2: NOT_EXISTS (6 tables, 0 oriented, 0 witnesses, max |Aut| 0)\n")


def test_main_reproduce(tmp_path, capsys):
    path = tmp_path / "rows.json"
    code = main(["reproduce", "--max-order", "2", "--max-m", "2",
                 "--json", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "exception rows:" in out
    rows = json.loads(path.read_text())
    assert {(r["group"], r["m"]) for r in rows} == {("Z1", 2), ("Z2", 2)}


def test_main_simple(capsys):
    assert main(["simple", "--name", "Z3", "--m", "2"]) == EXIT_OK
    capsys.readouterr()


def test_readme_cli_examples_exit_ok(tmp_path, monkeypatch, capsys):
    # Every `omsr` line of the README's CLI block runs and exits 0, except
    # those naming a group file that does not exist (`mygroup.txt`).
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("omsr ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path / "witnesses"))
    ran = 0
    for argv in commands:
        group = argv[argv.index("--group") + 1] if "--group" in argv else None
        if group and not group.startswith("catalog:") and not os.path.exists(group):
            continue
        assert main(argv) == EXIT_OK, argv
        ran += 1
    capsys.readouterr()
    assert ran == 4


def test_benchmark_tracer_names_resolve():
    # benchmarks/tracer.py wraps package functions by name, so deleting one
    # it binds breaks the benchmark; read its tables, without running it.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("omsr_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [target[:2] for target in tracer.TARGETS] + tracer.GENERATOR_TARGETS
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"omsr.{module}"), name, None)), name
    for module, cls, method in tracer.METHOD_TARGETS:
        assert method in vars(getattr(importlib.import_module(f"omsr.{module}"), cls))
    namespace = {}
    exec("from omsr import *", namespace)
    assert set(omsr.__all__) <= namespace.keys()


def test_main_input_errors(capsys):
    assert main(["verify", "--group", "catalog:nope:3", "--m", "2"]) == EXIT_INPUT
    assert main(["verify", "--group", "/does/not/exist.txt", "--m", "2"]) == EXIT_INPUT
    capsys.readouterr()


def test_main_catalog_spec_without_parameters_is_input_error(capsys):
    # A family that takes a parameter is refused without one, not read as 1.
    assert main(["verify", "--group", "catalog:cyclic", "--m", "7"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "input error: family 'cyclic' takes 1 parameter(s), got 0\n", err
    assert main(["verify", "--group", "catalog:cyclic:1", "--m", "7"]) == EXIT_OK


def test_main_spec_that_is_not_a_group_is_input_error(tmp_path, capsys):
    spec = tmp_path / "loop.txt"
    spec.write_text("kind: table\nn: 3\n0 1 2\n1 0 2\n2 2 0\n")
    assert main(["verify", "--group", str(spec), "--m", "2"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "input error: row 2 is not a permutation (Latin square violated)\n", err


def test_main_sweep_negative_m_is_input_error(capsys):
    code = main(["sweep", "--group", "catalog:cyclic:3", "--m", "-1"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "m must be" in err, err


def test_main_reproduce_rejects_empty_ranges(capsys):
    for argv, flag in [(["--max-order", "0", "--max-m", "3"], "--max-order"),
                       (["--max-order", "3", "--max-m", "1"], "--max-m")]:
        assert main(["reproduce"] + argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:") and flag in err, err


def test_main_unwritable_json_is_input_error(tmp_path, capsys):
    # The destination is checked before the command runs, so nothing is
    # printed and no sweep or roster is computed.
    path = tmp_path / "missing" / "x.json"
    for argv in (["verify", "--group", "catalog:cyclic:5", "--m", "3"],
                 ["sweep", "--group", "catalog:cyclic:1", "--m", "6"],
                 ["reproduce", "--max-order", "4", "--max-m", "3"]):
        code = main(argv + ["--json", str(path)])
        assert code == EXIT_INPUT, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("input error: cannot write --json"), argv
        assert not path.exists()
    assert main(["sweep", "--group", "catalog:cyclic:1", "--m", "3", "--json",
                 str(tmp_path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: cannot write --json {tmp_path}: "
                                       "Is a directory\n")


def test_main_budget_exit(capsys):
    # Sweep guard violation maps to the cap exit code.
    assert main(["sweep", "--group", "catalog:cyclic:5", "--m", "5"]) == EXIT_CAP
    assert capsys.readouterr().err == "cap exceeded: |G|*m = 25 exceeds guard 16\n"


def test_main_out_of_memory_is_cap_exit(monkeypatch, capsys):
    # A scan that runs out of memory ends with one line, not a traceback.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(omsr.sweep, "exhaustive_sweep", exhausted)
    assert main(["sweep", "--group", "catalog:cyclic:2", "--m", "6",
                 "--all-witnesses"]) == EXIT_CAP
    assert capsys.readouterr() == ("", "cap exceeded: out of memory\n")


def test_main_vertex_cap_refused_before_any_table(monkeypatch, capsys):
    # |G| * m past the vertex cap is refused before a table is built, for
    # the dispatch and for an explicit recipe alike.
    from omsr import digraphs

    def no_table(self, m, sets):
        raise AssertionError("a connection table was built past the vertex cap")

    monkeypatch.setattr(digraphs.ConnectionTable, "__init__", no_table)
    assert main(["verify", "--group", "catalog:cyclic:1", "--m", "2000"]) == EXIT_CAP
    assert capsys.readouterr().err == "cap exceeded: 2000 vertices exceeds cap 512\n"
    assert main(["verify", "--group", "catalog:cyclic:300", "--m", "2",
                 "--recipe", "cyclic"]) == EXIT_CAP
    assert capsys.readouterr().err == "cap exceeded: 600 vertices exceeds cap 512\n"


def test_main_exits_quietly_when_stdout_closes():
    # Like `| head -n 1`: the reader closes the pipe after the first line.
    # The sweep prints 78 KB of witnesses, more than a pipe holds, so it is
    # still writing when the pipe closes.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(omsr.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "omsr.cli", "sweep", "--group",
         "catalog:elementary_abelian_2:2", "--m", "3", "--all-witnesses"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == EXIT_FAILED
    assert first.startswith(b"Z2^2 m=3 valency=2: EXISTS")
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_explicit_recipe_never_substitutes_another_table(tmp_path, monkeypatch, capsys):
    # An explicit recipe verifies its own table.  On Z2 x Z4 at m = 2 "auto"
    # picks the abelian recipe too, so both give the same table and report.
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    G, pair = catalog_group("cyclic_product", [2, 4])
    assert recipe_table(G, pair, 2) == recipe_table(G, pair, 2, "abelian")
    verify = ["verify", "--group", "catalog:cyclic_product:2:4", "--m", "2"]
    for recipe in (["--recipe", "abelian"], []):
        assert main(verify + recipe) == EXIT_OK
        assert capsys.readouterr().out.split(":", 1) == [
            "Z2xZ4 m=2 [abelian_2gen]",
            " omsr=True oriented=True regular2=True connected=True |Aut|=8 |G|=8 stab=1\n"]
    assert not list(tmp_path.iterdir())


def test_verify_perms_pair_whose_product_is_an_involution(tmp_path, monkeypatch, capsys):
    # (0 1 2 3) and (0 1 2 3)(4 5) generate Z4 x Z2 with ab = (4 5).  The
    # abelian recipe takes ab for b, so its diagonal word ab has order 4.
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    spec = tmp_path / "z4xz2.txt"
    spec.write_text("kind: perms\n(0 1 2 3)\n(0 1 2 3)(4 5)\n")
    assert main(["verify", "--group", str(spec), "--m", "3"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "order-8 m=3 [abelian_2gen]: omsr=True oriented=True regular2=True connected=True"
        " |Aut|=8 |G|=8 stab=1\n")
    assert [p.name for p in tmp_path.iterdir()] == ["z4xz2.txt"]


def test_verify_klein_four_past_search_budget(tmp_path, monkeypatch, capsys):
    # The lift of the circulant table answers past the sweep's guard, where
    # the witness search would refuse the cell.
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    code = main(["verify", "--group", "catalog:elementary_abelian_2:2", "--m", "16"])
    assert code == EXIT_OK
    assert "omsr=True" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


def test_recipe_rejected_past_guard_is_a_failed_verdict(tmp_path, monkeypatch, capsys):
    # Past the sweep's guard a recipe digraph that is not an OmSR is the
    # answer: verify exits 1, and reproduce prints a FAILED row and exits 1,
    # instead of falling through to a search that refuses the cell (exit 3).
    from omsr import constructions
    recipe = constructions.recipe_table
    # Oriented, 2-regular and connected over Z7, with |Aut| = 21.
    rejected = ConnectionTable(3, {(0, 1): {0, 1}, (1, 2): {0, 1}, (2, 0): {0, 1}})

    def rejected_for_z7_m3(G, pair, m, kind="auto"):
        if (G.order, m) == (7, 3):
            return rejected, constructions.KIND_CYCLIC
        return recipe(G, pair, m, kind)

    monkeypatch.setattr(constructions, "recipe_table", rejected_for_z7_m3)
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    assert main(["verify", "--group", "catalog:cyclic:7", "--m", "3"]) == EXIT_FAILED
    assert "omsr=False" in capsys.readouterr().out
    assert main(["reproduce", "--max-order", "7", "--max-m", "3"]) == EXIT_FAILED
    out = capsys.readouterr().out
    assert [line.split() for line in out.splitlines() if "FAILED" in line] == [
        ["Z7", "m=3", "FAILED"]]


def test_verify_skips_corrupt_cache_file(tmp_path, monkeypatch, capsys):
    from omsr.constructions import _witness_path
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    G, _ = load_group("catalog:elementary_abelian_2:2")
    with open(_witness_path(G, 3, str(tmp_path)), "wb") as fh:
        fh.write(b"\xff\xfe not a table")
    with pytest.warns(UserWarning, match="unreadable witness cache file"):
        code = main(["verify", "--group", "catalog:elementary_abelian_2:2", "--m", "3"])
    assert code == EXIT_OK
    assert "omsr=True" in capsys.readouterr().out


def test_verify_klein_four_reads_packaged_cache(tmp_path, monkeypatch, capsys):
    # The catalog labels the Klein four-group Z2^2; the packaged witnesses are
    # named Z2xZ2.  Verify must read them, not search and write a new file.
    import shutil
    from omsr import sweep
    from omsr.constructions import default_witness_dir
    wdir = tmp_path / "witnesses"
    shutil.copytree(default_witness_dir(), wdir)
    before = sorted(p.name for p in wdir.iterdir())
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(wdir))

    def no_search(*args, **kwargs):
        raise AssertionError("find_witness called despite a packaged witness")

    monkeypatch.setattr(sweep, "find_witness", no_search)
    code = main(["verify", "--group", "catalog:elementary_abelian_2:2", "--m", "3"])
    assert code == EXIT_OK
    assert "omsr=True" in capsys.readouterr().out
    assert sorted(p.name for p in wdir.iterdir()) == before
    assert not list(wdir.glob("Z2e2_*"))


# SHA-256 of report_fields_digest(): every report field but runtime_ms, so a
# change in stabilizer_order, orbit_count or connected anywhere on the roster
# shows, not only the verdict, construction and |Aut| the corpus keeps.
REPORT_FIELDS_SHA256 = "8c2f30cf991e72e50ea6950a4634acc332c6c17605b18fc62ea7f456e1341ce9"


def report_fields_digest():
    """Hash of `verify_instance(G, pair, m).to_dict()` without runtime_ms
    over group_roster(16) x m = 2..5 and the recipe digraphs of Z48 m=5,
    Z6xZ8 m=5 and A5 m=4."""
    cells = [(G, pair, m) for G, pair in group_roster(16) for m in range(2, 6)]
    for family, params, m in (("cyclic", [48], 5), ("cyclic_product", [6, 8], 5),
                              ("alternating", [5], 4)):
        cells.append((*catalog_group(family, params), m))
    h = hashlib.sha256()
    for G, pair, m in cells:
        fields = verify_instance(G, pair, m).to_dict()
        del fields["runtime_ms"]
        h.update(json.dumps(fields, sort_keys=True).encode())
    return len(cells), h.hexdigest()


def test_report_fields_pinned(monkeypatch, tmp_path):
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path))
    assert report_fields_digest() == (131, REPORT_FIELDS_SHA256)
