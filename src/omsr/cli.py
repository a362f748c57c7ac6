"""Command-line verifier of oriented m-semiregular representations of
valency two: verify instances, run sweeps, reproduce the classification
table for groups generated by at most two elements.  The caps are fixed
in code: 512 vertices per digraph (`automorphisms.VERTEX_CAP`), group
order 2,000 (`groups.ORDER_CAP`) and |G| * m <= 16 for a sweep
(`sweep.GUARD_PRODUCT`).

Exit codes: 0 verified (either direction, certified); 1 verification
failed, or stdout closed early (`| head`), which ends quietly; 3 out of
memory (as an all-witness sweep that prints too many witnesses).  An
error of the package exits with its class's ``exit_code``, defined in
`errors.py` alone: 2 for an `InputError`, including a `--recipe` that
does not apply to the group, since no digraph is verified; 3 for a
`CapExceeded`; 1 for any other.  Each ends with one line on stderr
instead of a traceback.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import List, Optional, Tuple

from . import sweep as sweeplib
from .automorphisms import VALENCY
from .constructions import KIND_EXCEPTION, RECIPES, construct_omsr
from .errors import CapExceeded, InputError, OmsrError, ParseError, UnknownFamily
from .groups import GeneratingPair, Group, catalog_group, parse_group_spec
from .reports import VerificationReport

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = InputError.exit_code
EXIT_CAP = CapExceeded.exit_code
_PREFIXES = {EXIT_FAILED: "error", EXIT_INPUT: "input error", EXIT_CAP: "cap exceeded"}


def load_group(spec: str) -> Tuple[Group, Optional[GeneratingPair]]:
    """Resolve 'catalog:name:params...' or a group-spec file path."""
    if spec.startswith("catalog:"):
        parts = spec.split(":")[1:]
        if not parts or not parts[0]:
            raise UnknownFamily("catalog spec needs a family name")
        try:
            params = [int(p) for p in parts[1:]]
        except ValueError:
            raise UnknownFamily(f"catalog parameters must be integers: {spec!r}")
        return catalog_group(parts[0], params)
    try:
        with open(spec) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read group spec {spec!r}: {exc}", 1)
    return parse_group_spec(text)


def verify_instance(G: Group, pair: Optional[GeneratingPair], m: int,
                    recipe: str = "auto") -> VerificationReport:
    """The report of `construct_omsr` for one (group, m) and recipe, or of
    its certified exception."""
    result = construct_omsr(G, pair, m, kind=recipe)
    if isinstance(result, sweeplib.SweepResult):
        return VerificationReport(group_label=G.label, m=m, group_order=G.order,
                                  construction_kind=KIND_EXCEPTION, omsr=False,
                                  certificate=result)
    return result[1]


def group_roster(max_order: int) -> List[Tuple[Group, GeneratingPair]]:
    """Catalog groups generated by at most two elements.

    Complete up to isomorphism for orders <= 12; larger orders include the
    catalog families only (cyclic, two-factor abelian, dihedral, dicyclic,
    A4/S4/A5).
    """
    out = []
    for k in range(1, max_order + 1):
        out.append(catalog_group("cyclic", [k]))
    for d1 in range(2, max_order + 1):
        t = 1
        while d1 * (d1 * t) <= max_order:
            out.append(catalog_group("cyclic_product", [d1, d1 * t]))
            t += 1
    for k in range(3, max_order // 2 + 1):
        out.append(catalog_group("dihedral", [k]))
    for k in range(2, max_order // 4 + 1):
        out.append(catalog_group("dicyclic", [k]))
    if max_order >= 12:
        out.append(catalog_group("alternating", [4]))
    if max_order >= 24:
        out.append(catalog_group("symmetric", [4]))
    if max_order >= 60:
        out.append(catalog_group("alternating", [5]))
    out.sort(key=lambda item: (item[0].order, item[0].label))
    return out


def reproduce_theorem(max_group_order: int, max_m: int) -> List[dict]:
    """One verdict row per (group, m) over the roster and 2 <= m <= max_m."""
    rows = []
    for G, pair in group_roster(max_group_order):
        for m in range(2, max_m + 1):
            report = verify_instance(G, pair, m)
            row = {"group": G.label, "order": G.order, "m": m}
            if report.certificate is not None:
                row.update(verdict="NOT_EXISTS",
                           certificate=report.certificate.certificate_dict())
            else:
                row.update(verdict="EXISTS" if report.omsr else "FAILED",
                           construction=report.construction_kind,
                           aut_order=report.aut_order)
            rows.append(row)
    return rows


_SIMPLE_NAMES = {
    "Z2": ("cyclic", [2]),
    "Z3": ("cyclic", [3]),
    "Z5": ("cyclic", [5]),
    "Z7": ("cyclic", [7]),
    "A5": ("alternating", [5]),
}


def simple_group_check(name: str, m: int) -> VerificationReport:
    """Check a small simple group; Z2 with m <= 3 is the only certified exception."""
    if name not in _SIMPLE_NAMES:
        raise UnknownFamily(f"unknown simple group {name!r}; known: {sorted(_SIMPLE_NAMES)}")
    family, params = _SIMPLE_NAMES[name]
    G, pair = catalog_group(family, params)
    return verify_instance(G, pair, m)


# --- command implementations -------------------------------------------------

def _check_json_path(path: Optional[str]) -> None:
    """Refuse, before the command runs, a --json path that cannot be
    written: a directory, a file in a missing directory, or one without
    write permission."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise InputError(f"cannot write --json {path}: {os.strerror(code)}")


def _emit_json(path: Optional[str], payload) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write --json {path}: {exc.strerror or exc}") from exc


def _report_exit(report: VerificationReport, json_path: Optional[str]) -> int:
    """Print and emit one report; a certified exception verifies too."""
    print(report.summary())
    _emit_json(json_path, report.to_dict())
    if report.certificate is not None or report.omsr:
        return EXIT_OK
    return EXIT_FAILED


def _cmd_verify(args) -> int:
    G, pair = load_group(args.group)
    return _report_exit(verify_instance(G, pair, args.m, recipe=args.recipe), args.json)


def _cmd_sweep(args) -> int:
    G, _ = load_group(args.group)
    result = sweeplib.exhaustive_sweep(G, args.m, all_witnesses=args.all_witnesses)
    print(f"{result.group_label} m={result.m} valency={VALENCY}: "
          f"{result.verdict} ({result.tables_enumerated} tables, "
          f"{result.oriented_count} oriented, {len(result.witnesses)} witnesses, "
          f"max |Aut| {result.max_aut_order_seen})")
    for w in result.witnesses:
        print(w.to_text().rstrip())
        print("--")
    _emit_json(args.json, result.to_dict())
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    if args.max_order < 1:
        raise InputError(f"--max-order must be >= 1, got {args.max_order}")
    if args.max_m < 2:
        raise InputError(f"--max-m must be >= 2, got {args.max_m}")
    rows = reproduce_theorem(args.max_order, args.max_m)
    width = max(len(r["group"]) for r in rows)
    for r in rows:
        print(f"{r['group']:<{width}}  m={r['m']}  {r['verdict']}")
    exceptions = sorted((r["m"], r["group"]) for r in rows if r["verdict"] == "NOT_EXISTS")
    print(f"exception rows: {exceptions}")
    _emit_json(args.json, rows)
    if any(r["verdict"] == "FAILED" for r in rows):
        return EXIT_FAILED
    return EXIT_OK


def _cmd_simple(args) -> int:
    return _report_exit(simple_group_check(args.name, args.m), args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omsr",
        description="Certify oriented m-semiregular representations of valency two.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify one (group, m) instance")
    p.add_argument("--group", required=True, help="group-spec file or catalog:<family>:<params>")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--recipe", choices=RECIPES, default="auto")
    p.add_argument("--json", help="write the report as JSON to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="exhaustively enumerate connection tables")
    p.add_argument("--group", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--all-witnesses", action="store_true")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("reproduce", help="verdict table over the small-group roster")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("simple", help="spot-check a small simple group")
    p.add_argument("--name", required=True, help="one of Z2, Z3, Z5, Z7, A5")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_simple)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_json_path(args.json)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left.  Point stdout at devnull, so that the flush at
        # interpreter exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILED
    except MemoryError:
        print(f"{_PREFIXES[EXIT_CAP]}: out of memory", file=sys.stderr)
        return EXIT_CAP
    except OmsrError as exc:
        print(f"{_PREFIXES[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
