"""The four text readers: group specs, `catalog:` strings, connection tables
and cycle strings.  Each malformed input is refused with its exception
class at its own 1-based line and column."""

import re
import time

import pytest

from omsr.cli import load_group, main
from omsr.digraphs import parse_connection_table
from omsr.errors import ParseError, UnknownFamily
from omsr.groups import group_from_permutation_generators, parse_group_spec
from omsr.perms import from_cycle_string

READERS = {
    "spec": parse_group_spec,
    "group": load_group,
    "table": parse_connection_table,
    "cycles": from_cycle_string,
}

# (reader, input, class, line, column, a fragment of the message); line and
# column are None for an error that carries no position.
MALFORMED = {
    "spec-empty": ("spec", "", ParseError, 1, 1, "empty group spec"),
    "spec-only-comments": ("spec", "# a comment\n\n   \n", ParseError, 1, 1, "empty group spec"),
    "spec-no-kind": ("spec", "\nnonsense\n", ParseError, 2, 1,
                     "expected 'kind: catalog|table|perms'"),
    "spec-unknown-kind": ("spec", "kind: graph\n", ParseError, 1, 7, "unknown kind 'graph'"),
    "catalog-field-without-colon": ("spec", "kind: catalog\nname cyclic\n", ParseError, 2, 1,
                                    "expected 'key: value'"),
    "catalog-without-name": ("spec", "kind: catalog\nparams: 3\n", ParseError, 1, 1,
                             "catalog spec needs a 'name:' line"),
    "catalog-bad-parameter": ("spec", "kind: catalog\nname: cyclic\nparams: x\n", ParseError, 3, 9,
                              "bad parameter 'x'"),
    "catalog-second-parameter-bad": ("spec", "kind: catalog\nname: cyclic_product\nparams: 3 3x\n",
                                     ParseError, 3, 11, "bad parameter '3x'"),
    "catalog-unknown-family": ("spec", "kind: catalog\nname: nope\nparams: 3\n", UnknownFamily,
                               None, None, "unknown family 'nope'"),
    "table-without-n": ("spec", "kind: table\n", ParseError, 2, 1, "expected 'n: <int>'"),
    "table-n-not-first": ("spec", "kind: table\n0 1\nn: 2\n", ParseError, 2, 1,
                          "expected 'n: <int>'"),
    "table-bad-n": ("spec", "kind: table\nn: x\n", ParseError, 2, 4, "bad n value 'x'"),
    "table-too-few-rows": ("spec", "kind: table\nn: 2\n0 1\n", ParseError, 2, 1,
                           "expected 2 table rows, got 1"),
    "table-short-row": ("spec", "kind: table\nn: 2\n0 1\n1\n", ParseError, 4, 1,
                        "expected 2 entries, got 1"),
    "table-bad-entry": ("spec", "kind: table\nn: 2\n0 1\n1 x\n", ParseError, 4, 3, "bad entry 'x'"),
    "table-bad-entry-indented": ("spec", "kind: table\nn: 2\n0 1\n  1 x\n", ParseError, 4, 5,
                                 "bad entry 'x'"),
    "table-entry-out-of-range": ("spec", "kind: table\nn: 2\n0 1\n1 2\n", ParseError, 4, 3,
                                 "entry 2 out of range [0,2)"),
    "perms-without-lines": ("spec", "kind: perms\n# none\n", ParseError, 1, 1,
                            "perms spec needs at least one permutation line"),
    "perms-bad-line": ("spec", "kind: perms\n(0 1)\n# a comment\n(1 2 x)\n", ParseError, 4, 6,
                       "bad point 'x'"),
    "catalog-string-empty-name": ("group", "catalog:", UnknownFamily, None, None,
                                  "unknown family ''"),
    "catalog-string-unknown-family": ("group", "catalog:nope:3", UnknownFamily, None, None,
                                      "unknown family 'nope'"),
    "catalog-string-bad-parameter": ("group", "catalog:cyclic:x", ParseError, 1, 16,
                                     "bad parameter 'x'"),
    "catalog-string-underscore-in-parameter": ("group", "catalog:cyclic:1_0", ParseError, 1, 16,
                                               "bad parameter '1_0'"),
    "catalog-string-plus-sign": ("group", "catalog:cyclic:+3", ParseError, 1, 16,
                                 "bad parameter '+3'"),
    "catalog-string-non-ascii-digit": ("group", "catalog:cyclic:\u0663", ParseError, 1, 16,
                                       "bad parameter '\u0663'"),
    "catalog-string-empty-parameter": ("group", "catalog:cyclic_product:3:", ParseError, 1, 26,
                                       "bad parameter ''"),
    "group-file-missing": ("group", "/does/not/exist.txt", ParseError, 1, 1,
                           "cannot read group spec '/does/not/exist.txt'"),
    "connection-table-empty": ("table", "", ParseError, 1, 1, "expected 'm: <int>'"),
    "connection-table-without-m": ("table", "# cache\nT 0 0 : 1\n", ParseError, 2, 1,
                                   "expected 'm: <int>'"),
    "connection-table-bad-m": ("table", "m: x\n", ParseError, 1, 4, "bad m value 'x'"),
    "connection-table-m-zero": ("table", "m: 0\n", ParseError, 1, 4, "m value 0 is not positive"),
    "connection-table-m-negative": ("table", "# cache\nm:  -3\n", ParseError, 2, 5,
                                    "m value -3 is not positive"),
    "table-n-zero": ("spec", "kind: table\nn: 0\n", ParseError, 2, 4, "n value 0 is not positive"),
    "connection-table-bad-row": ("table", "m: 2\nT 0 : 1\n", ParseError, 2, 1,
                                 "expected 'T i j : e1 e2 ...'"),
    "connection-table-row-without-colon": ("table", "m: 2\nT 0 1 1\n", ParseError, 2, 1,
                                           "expected 'T i j : e1 e2 ...'"),
    "connection-table-bad-block-index": ("table", "m: 2\nT 0 x : 1\n", ParseError, 2, 5,
                                         "bad block index 'x'"),
    "connection-table-block-out-of-range": ("table", "m: 2\nT 0 5 : 1\n", ParseError, 2, 5,
                                            "block index 5 out of range [0,2)"),
    "connection-table-bad-element": ("table", "m: 2\nT 0 1 : 1 y\n", ParseError, 2, 11,
                                     "bad element 'y'"),
    "cycles-text-between": ("cycles", "(0 1) x (2 3)", ParseError, 1, 6, "unexpected text 'x'"),
    "cycles-trailing-text": ("cycles", "(0 1) junk", ParseError, 1, 6,
                             "unexpected trailing text 'junk'"),
    "cycles-unclosed": ("cycles", "(0 1", ParseError, 1, 1, "unexpected trailing text '(0 1'"),
    "cycles-bad-point": ("cycles", "(0 1 x)", ParseError, 1, 6, "bad point 'x'"),
    "cycles-negative-point": ("cycles", "(0 -1)", ParseError, 1, 4, "negative point in cycle"),
    "cycles-point-repeated-in-cycle": ("cycles", "(0 1 0)", ParseError, 1, 6,
                                       "point 0 named twice"),
    "cycles-point-in-two-cycles": ("cycles", "(0 1)(1 2)", ParseError, 1, 7, "point 1 named twice"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input(name):
    read, text, error, line, col, message = MALFORMED[name]
    with pytest.raises(error, match=re.escape(message)) as info:
        READERS[read](text)
    assert type(info.value) is error
    assert (getattr(info.value, "line", None), getattr(info.value, "col", None)) == (line, col)


def test_comment_and_blank_lines_are_skipped():
    spec = "# Z2 as a table\n\nkind: table\n  # the rows follow\nn: 2\n0 1\n\n1 0\n"
    G, pair = parse_group_spec(spec)
    assert G.mult == ((0, 1), (1, 0)) and pair is None
    table = parse_connection_table("# a witness\nm: 2\n\n# the cells\nT 0 1 : 1\nT 1 0 : 0 1\n")
    assert table.m == 2 and table.entries == {(0, 1): {1}, (1, 0): {0, 1}}


@pytest.mark.parametrize("spec", [
    "(0 1 2 3)\n(0 1 2 3)(4 5)\n",        # tests/test_cli.py and CI
    "(0 1 2)\n(0 1)\n",                   # tests/test_groups.py
    "(0 1)\n(2 3)\n(4 5)\n(6 7)\n",       # tests/test_groups.py
    "(1 2)\n(5 7)\n",                     # points that are not 0 .. d-1
    "(3 9 4)\n()\n",
])
def test_perms_spec_table_is_that_of_its_points_as_named(spec):
    # A perms spec is read on the points it names, numbered in increasing
    # order.  Its Cayley table and generator indices are those of the
    # permutations through the largest point named.
    G, pair = parse_group_spec("kind: perms\n" + spec)
    H, gens = group_from_permutation_generators([from_cycle_string(ln) for ln in spec.splitlines()])
    assert G.mult == H.mult and G.inv == H.inv
    if len(gens) <= 2:
        assert [pair.a, pair.b][:len(gens)] == gens
    else:
        assert pair is None


def test_perms_spec_with_a_large_point(tmp_path, monkeypatch, capsys):
    # (0 30000000) names Z2: only its two points are built.
    monkeypatch.setenv("OMSR_WITNESS_DIR", str(tmp_path / "witnesses"))
    spec = tmp_path / "sparse.txt"
    spec.write_text("kind: perms\n(0 30000000)\n")
    start = time.perf_counter()
    assert main(["verify", "--group", str(spec), "--m", "2"]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr() == ("order-2 m=2: certified exception (no witness among 18 tables,"
                                   " 0 oriented, max |Aut| seen 0)\n", "")
