#!/usr/bin/env python3
"""Checked-in mutants: small wrong edits of the package that the tests must catch.

    python tests/mutants.py [NAME ...]

Each mutant names a file under src/, an exact old text that occurs there
once, the text that replaces it, and the test ids that must each fail with
it.  For each mutant the script copies src/ to a temporary directory,
applies the edit there and runs pytest on only those ids, with the copy
first on PYTHONPATH, one process at a time.  It exits 1 when a mutant
survives (one of its tests passes) or is stale (its old text is not found
exactly once, or a test id no longer exists); a run that times out or
fails to import counts as a kill.  A change that moves mutated code
re-targets its mutant; a survivor is mended with a test, never by deleting
the mutant.

pytest does not collect this file (it is not named test_*.py).
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Per pytest process: a mutant may turn a bounded search into an unbounded one.
TIMEOUT_S = 60
MEMORY_BYTES = 1_500_000_000


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple


SWEEP = "tests/test_sweep.py::"
DIGRAPHS = "tests/test_digraphs.py::"
CONSTRUCTIONS = "tests/test_constructions.py::"
AUTOMORPHISMS = "tests/test_automorphisms.py::"
CLI = "tests/test_cli.py::"
READERS = "tests/test_readers.py::"

MUTANTS = [
    # The move test of the sweep.
    Mutant("new-moves-on-new-row-only", "omsr/sweep.py",
           "[(k, [*range(a * m, row * m), *range(a * m), *range(row * m, row * m + m)])",
           "[(k, [*range(row * m, row * m + m)])",
           (SWEEP + "test_prefix_test_from_parent_fixers_matches_full_compare",
            SWEEP + "test_prefix_skip_matches_full_walk")),
    Mutant("converse-coded-as-plain", "omsr/sweep.py",
           "srcs = tuple([j * m + i if converse else i * m + j",
           "srcs = tuple([i * m + j if converse else i * m + j",
           (SWEEP + "test_move_codes_match_frozenset_reference",
            SWEEP + "test_table_moves_are_isomorphisms")),
    Mutant("block-memo-keyed-without-converse", "omsr/sweep.py",
           "@functools.cache\ndef _block_code(",
           "@(lambda code: lambda m, sigma, converse, memo={}:\n"
           "  memo.setdefault((m, sigma), code(m, sigma, converse)))\ndef _block_code(",
           (SWEEP + "test_move_codes_match_frozenset_reference",
            SWEEP + "test_table_moves_are_isomorphisms")),
    Mutant("earlier-move-never-found", "omsr/sweep.py",
           "                        return k\n", "                        return None\n",
           (SWEEP + "test_all_witness_sweep_engine_calls_pinned",)),
    Mutant("parent-fixers-not-carried", "omsr/sweep.py",
           "fixers.append(k)", "pass",
           (SWEEP + "test_prefix_test_from_parent_fixers_matches_full_compare",
            SWEEP + "test_prefix_memo_records_every_earlier_prefix")),
    # The walk of `enumerate_tables`.
    Mutant("later-column-counts-not-reduced", "omsr/sweep.py",
           "a2, b1 = a2 - (c == 2), b1 - (c == 1)", "a2, b1 = a2, b1",
           (SWEEP + "test_trivial_group_counts_match_binary_matrix_series",
            SWEEP + "test_enumeration_positions_pinned")),
    Mutant("partner-cell-read-as-own", "omsr/sweep.py",
           "partner = cells[ranks[j * m + i]]", "partner = cells[ranks[i * m + j]]",
           (SWEEP + "test_enumeration_matches_naive_oriented_tables",
            SWEEP + "test_enumeration_positions_pinned")),
    Mutant("partner-cell-read-one-early", "omsr/sweep.py",
           "partner = cells[ranks[j * m + i]]", "partner = cells[ranks[j * m + i - 1]]",
           (SWEEP + "test_enumeration_matches_naive_oriented_tables",
            SWEEP + "test_enumeration_yields_unique_row_column_constrained_tables")),
    Mutant("walk-keeps-its-closure-cycle", "omsr/sweep.py",
           "        del fill_cell", "        pass",
           (CONSTRUCTIONS + "test_certificate_keeps_no_scan_alive",)),
    Mutant("sweep-table-transposed", "omsr/sweep.py",
           "{divmod(k, m): cells[r]", "{divmod(k, m)[::-1]: cells[r]",
           (SWEEP + "test_first_stop_scan_matches_unpruned_oracle",
            SWEEP + "test_prefix_skip_matches_full_walk")),
    # The recipes.
    Mutant("abelian-ab-swap-removed", "omsr/constructions.py",
           "        b = ab\n", "        pass\n",
           (CONSTRUCTIONS + "test_abelian_recipe_on_every_generating_pair",)),
    Mutant("rigid-row-changed", "omsr/constructions.py",
           "3: (2, 5)}", "3: (2, 6)}",
           (CONSTRUCTIONS + "test_rigid_trivial_table_shape",
            CONSTRUCTIONS + "test_new_recipes_are_omsr")),
    # The NOT_EXISTS certificate: the scan's own result, from dispatch to the report.
    Mutant("all-failed-always", "omsr/sweep.py",
           "        return not self.witnesses\n", "        return True\n",
           (CONSTRUCTIONS + "test_certificate_is_the_scan_result",
            SWEEP + "test_sweep_klein_m3_exists",
            SWEEP + "test_sweep_trivial_boundary")),
    Mutant("certificate-count-from-oriented", "omsr/sweep.py",
           '"enumerated_count": self.tables_enumerated,', '"enumerated_count": self.oriented_count,',
           (CONSTRUCTIONS + "test_certificate_is_the_scan_result",
            CLI + "test_reproduce_24x10_dispatch_gate")),
    Mutant("searched-witness-returns-scan-result", "omsr/constructions.py",
           "    if table is None:\n        return result\n", "    return result\n",
           (CONSTRUCTIONS + "test_certificate_is_the_scan_result",
            CONSTRUCTIONS + "test_witness_cache_round_trip")),
    # Connection tables and their digraphs.
    Mutant("table-keeps-empty-cells", "omsr/digraphs.py",
           "            if cell:\n", "            if cell is not None:\n",
           (DIGRAPHS + "test_connection_table_keeps_int_frozensets",
            DIGRAPHS + "test_connection_table_keeps_nonempty_cells_in_row_major_order")),
    Mutant("closure-reads-negative-index", "omsr/groups.py",
           "set(map(_index, gens))", "set(gens)",
           (DIGRAPHS + "test_group_elements_are_ints",)),
    Mutant("cells-read-through-int", "omsr/digraphs.py",
           "frozenset(map(operator.index, cell))", "frozenset(map(int, cell))",
           (DIGRAPHS + "test_group_elements_are_ints",)),
    Mutant("arcs-aimed-at-own-block", "omsr/digraphs.py",
           "out[i * n + g].append(j * n + row[g])", "out[i * n + g].append(i * n + row[g])",
           (DIGRAPHS + "test_arc_rule",
            DIGRAPHS + "test_oriented_agrees_with_table_criterion")),
    Mutant("criterion-reads-own-cell", "omsr/digraphs.py",
           "T.entries.get((j, i), ())", "T.entries.get((i, j), ())",
           (DIGRAPHS + "test_oriented_agrees_with_table_criterion",)),
    Mutant("oriented-tests-forward-arc", "omsr/digraphs.py",
           "u in d.out_adj[w] for", "w in d.out_adj[u] for",
           (DIGRAPHS + "test_is_oriented_examples",
            DIGRAPHS + "test_oriented_agrees_with_table_criterion")),
    Mutant("connected-without-reverse-search", "omsr/digraphs.py",
           "\n            and (balanced or _reachable([(d.in_adj,)] * d.n, 0) == d.n)", "",
           (DIGRAPHS + "test_is_connected_examples",
            AUTOMORPHISMS + "test_is_omsr_checks_match_predicates")),
    # The text readers shared by every input format.
    Mutant("content-lines-keep-comments", "omsr/errors.py",
           '            if ln.strip() and not ln.lstrip().startswith("#")]',
           "            if ln.strip()]",
           (READERS + "test_comment_and_blank_lines_are_skipped",
            READERS + "test_malformed_input[perms-bad-line]")),
    Mutant("token-error-at-first-column", "omsr/errors.py",
           'raise ParseError(f"bad {what} {token!r}", line, col)',
           'raise ParseError(f"bad {what} {token!r}", line)',
           (READERS + "test_malformed_input[connection-table-bad-block-index]",
            READERS + "test_malformed_input[catalog-string-bad-parameter]")),
    Mutant("repeated-point-not-refused", "omsr/perms.py",
           "            if x in seen:\n", "            if False:\n",
           (READERS + "test_malformed_input[cycles-point-repeated-in-cycle]",
            READERS + "test_malformed_input[cycles-point-in-two-cycles]")),
    # The exit-code contract and the report's JSON.
    Mutant("input-error-exit-code-changed", "omsr/errors.py",
           "    exit_code = 2\n", "    exit_code = 1\n",
           (CLI + "test_exit_code_comes_from_the_error_class",)),
    Mutant("main-returns-fixed-code", "omsr/cli.py",
           "        return exc.exit_code", "        return EXIT_INPUT",
           (CLI + "test_exit_code_comes_from_the_error_class",
            CLI + "test_main_budget_exit")),
    Mutant("report-json-drops-certificate", "omsr/reports.py",
           '            out["certificate"] = self.certificate.certificate_dict()\n',
           "            pass\n",
           (CONSTRUCTIONS + "test_report_from_exception",)),
    # The engine.
    Mutant("arc-test-reads-own-row", "omsr/automorphisms.py",
           "        image = out_adj[p[u]]\n", "        image = out_adj[u]\n",
           (AUTOMORPHISMS + "test_is_omsr_positive_cyclic",
            AUTOMORPHISMS + "test_translations_in_aut_for_recipes")),
    Mutant("refine-without-in-count", "omsr/automorphisms.py",
           "            for u in in_adj[w]:\n                counts[u] = counts.get(u, 0) + weight\n",
           "",
           (AUTOMORPHISMS + "test_refine_matches_signature_rounds",
            AUTOMORPHISMS + "test_engine_output_pinned")),
    Mutant("refine-without-out-count", "omsr/automorphisms.py",
           "            for u in out_adj[w]:\n                counts[u] = counts.get(u, 0) + 1\n",
           "",
           (AUTOMORPHISMS + "test_refine_matches_signature_rounds",
            AUTOMORPHISMS + "test_engine_output_pinned")),
    Mutant("refine-keys-on-out-list-order", "omsr/automorphisms.py",
           "            for u in out_adj[w]:\n                counts[u] = counts.get(u, 0) + 1\n",
           "            for k, u in enumerate(out_adj[w]):\n"
           "                counts[u] = counts.get(u, 0) + 1 + k\n",
           (AUTOMORPHISMS + "test_out_list_order_changes_no_output",)),
    Mutant("translations-always-embed", "omsr/automorphisms.py",
           "embed = len(seeds) == len(translations)", "embed = True",
           (AUTOMORPHISMS + "test_translation_seed_check_detects_broken_translation",)),
    Mutant("translations-rechecked-when-none-passed", "omsr/automorphisms.py",
           "        if seeds is None:\n            seeds = [t for t in translations",
           "        if True:\n            seeds = seeds or [t for t in translations",
           (AUTOMORPHISMS + "test_certificate_needs_the_translations",)),
    Mutant("shared-cell-not-copied", "omsr/automorphisms.py",
           "cell = cells[c] = set(cell)", "cell = cells[c]",
           (AUTOMORPHISMS + "test_engine_matches_brute_force_random",
            AUTOMORPHISMS + "test_relabel_conjugation_invariance")),
    # The rigid-block certificate of `is_omsr`.
    Mutant("certificate-skips-translation-check", "omsr/automorphisms.py",
           "    if len(seeds) < len(_translations(d)):\n        return None\n",
           "",
           (AUTOMORPHISMS + "test_certificate_needs_the_translations",)),
    Mutant("certificate-follows-same-colour-out-arcs", "omsr/automorphisms.py",
           "if len({colors[j] for j in q[i]}) == len(q[i])]",
           "if adj is d.out_adj or len({colors[j] for j in q[i]}) == len(q[i])]",
           (AUTOMORPHISMS + "test_certificate_never_closes_where_the_engine_finds_more",)),
    Mutant("certificate-block-0-not-alone", "omsr/automorphisms.py",
           "    if colors.count(colors[0]) > 1:\n        return None\n", "",
           (AUTOMORPHISMS + "test_certificate_never_closes_where_the_engine_finds_more",)),
    Mutant("certificate-accepts-partial-search", "omsr/automorphisms.py",
           "for _ in range(n)], 0) < d.n:", "for _ in range(n)], 0) < d.n // 2:",
           (AUTOMORPHISMS + "test_certificate_never_closes_where_the_engine_finds_more",)),
    # What `is_omsr` reads off a closed certificate.
    Mutant("connected-without-regularity", "omsr/automorphisms.py",
           "bool(closed and regular)", "bool(closed)",
           (AUTOMORPHISMS + "test_closed_certificate_on_a_digraph_that_is_not_strongly_connected",)),
    Mutant("block-orbits-without-closed-certificate", "omsr/automorphisms.py",
           "for i in range(gamma.m)] if closed", "for i in range(gamma.m)] if A",
           (AUTOMORPHISMS + "test_certificate_never_closes_where_the_engine_finds_more",)),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S, preexec_fn=_limit_memory)


def run(mutant: Mutant) -> str:
    """"killed", or why the mutant survived or is stale."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"stale: old text found {text.count(mutant.old)} times in src/{mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        try:
            proc = _pytest(src, mutant.tests)
        except subprocess.TimeoutExpired:
            return "killed (timed out)"
    # A FAILED or ERROR line names a test, or a whole file that did not import.
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    passed = [t for t in mutant.tests if not any(t == f or t.startswith(f + "::") for f in failed)]
    if not passed:
        return "killed"
    if proc.returncode in (4, 5):  # usage error or nothing collected
        return f"stale: {(proc.stdout + proc.stderr).strip().splitlines()[-1]}"
    return f"survived: {', '.join(passed)} passed"


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    # The copy must be what the tests import, ahead of any installed package.
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        where = subprocess.run([sys.executable, "-c", "import omsr; print(omsr.__file__)"],
                               env=dict(os.environ, PYTHONPATH=str(src)),
                               capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            print(f"omsr imports from {where or 'nowhere'}, not from the copy", file=sys.stderr)
            return 2
    bad = 0
    for mutant in chosen:
        start = time.perf_counter()
        outcome = run(mutant)
        bad += outcome.split()[0] != "killed"
        print(f"{mutant.name}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
