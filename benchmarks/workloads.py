"""The benchmark's four workloads: seeded inputs, one call per verdict, and
the pinned result each verdict must match.

Every workload is a closed loop with one caller: the next verdict is
requested only after the previous one returned.  Inputs reach the package
only through its public entry points (``catalog_group``,
``group_from_cayley_table``, ``group_roster``, ``construct_omsr``,
``exhaustive_sweep``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

# verify_large: one recipe per kind, each at 240 vertices.  Colour refinement
# dominates; nothing is enumerated and the witness cache is never read.
VERIFY_INSTANCES = [
    # (catalog family, params, m, construction kind)
    ("cyclic", (48,), 5, "cyclic"),
    ("cyclic_product", (6, 8), 5, "abelian_2gen"),
    ("alternating", (5,), 4, "nonabelian_2gen"),
]

# Exhaustive sweeps with their pinned results:
# (family, params, m, all_witnesses) -> (verdict, tables, oriented, witnesses, max |Aut|)
# The exception rows Z1 m=2..4 and Z2 m=2 have no oriented table and take
# under 5 ms; they are left out so that the median verdict is a real sweep.
# reproduce_roster still checks their verdicts.
SWEEP_EXCEPTIONS = {
    ("cyclic", (1,), 5, False): ("NOT_EXISTS", 2040, 24, 0, 5),
    ("cyclic", (1,), 6, False): ("NOT_EXISTS", 67950, 570, 0, 24),
    ("cyclic", (2,), 3, False): ("NOT_EXISTS", 534, 10, 0, 24),
    ("elementary_abelian_2", (2,), 2, False): ("NOT_EXISTS", 328, 6, 0, 64),
}
# Requests per pass of the rows that take under 0.2 s, each on its own
# relabelling.  Their latency is the mean over all requests, so the median
# verdict rests on more than a few 30 ms samples a run.
SWEEP_REPEATS = {
    ("cyclic", (1,), 5, False): 5,
    ("cyclic", (2,), 3, False): 5,
    ("elementary_abelian_2", (2,), 2, False): 5,
}
SWEEP_WITNESSES = {
    ("elementary_abelian_2", (2,), 3, True): ("EXISTS", 39696, 2160, 1152, 1152),
}

# reproduce_roster: group_roster(16) x m = 2..5, 128 cells.  group_roster(24)
# takes 16-20 s a pass, too long to repeat within one run; order 16 keeps every
# packaged-cache hit, the Z2xZ6 and Z2xZ8 misses that search and write, and
# the second enumeration on the (Z2, 3) miss.  Every cell is EXISTS except
# these, which the code certifies by exhaustion.  (Z2, 3) is NOT_EXISTS as
# the code certifies it, although acceptance criterion 4 expects EXISTS.
ROSTER_MAX_ORDER = 16
ROSTER_MS = (2, 3, 4, 5)
ROSTER_NOT_EXISTS = {("Z1", 2), ("Z1", 3), ("Z1", 4), ("Z1", 5),
                     ("Z2", 2), ("Z2", 3), ("Z2xZ2", 2)}
ROSTER_LABELS = sorted([
    "A4", "D3", "D4", "D5", "D6", "D7", "D8", "Q8", "Q12", "Q16",
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z11", "Z12",
    "Z13", "Z14", "Z15", "Z16",
    "Z2xZ2", "Z2xZ4", "Z2xZ6", "Z2xZ8", "Z3xZ3", "Z4xZ4",
])


@dataclass
class Case:
    """One verdict request and the result it must produce."""

    label: str
    group: Any
    pair: Any
    m: int
    expect: Any
    all_witnesses: bool = False


@dataclass
class Workload:
    name: str
    make_inputs: Callable   # (api, rng) -> List[Case]
    call: Callable          # (api, case) -> result
    check: Callable         # (case, result) -> error message or None


def relabelled(api, family: str, params, rng):
    """A catalog group presented as a random relabelling of its Cayley table.

    The identity keeps index 0; the generating pair follows the relabelling.
    """
    G0, pair0 = api.omsr.catalog_group(family, list(params))
    n = G0.order
    rest = list(range(1, n))
    rng.shuffle(rest)
    sigma = [0] + rest
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[sigma[x]][sigma[y]] = sigma[G0.mult[x][y]]
    G = api.omsr.group_from_cayley_table(table, label=G0.label)
    move = lambda e: None if e is None else api.omsr.GroupElement(sigma[e.index])
    return G, api.omsr.GeneratingPair(move(pair0.a), move(pair0.b))


# --- verify_large --------------------------------------------------------------

def _verify_inputs(api, rng) -> List[Case]:
    cases = []
    for family, params, m, kind in VERIFY_INSTANCES:
        G, pair = relabelled(api, family, params, rng)
        cases.append(Case(f"{G.label} m={m}", G, pair, m, kind))
    return cases


def _construct(api, case: Case):
    return api.omsr.construct_omsr(case.group, case.pair, case.m)


def _verify_check(case: Case, result) -> Optional[str]:
    if not isinstance(result, tuple):
        return f"expected a verified digraph, got {type(result).__name__}"
    report = result[1]
    got = (report.construction_kind, report.omsr, report.aut_order,
           report.translations_embed, report.stabilizer_order, report.orbit_count)
    want = (case.expect, True, case.group.order, True, 1, case.m)
    if got != want:
        return ("(kind, omsr, |Aut|, translations_embed, stabilizer, orbits) = "
                f"{got}, expected {want}")
    return None


# --- sweeps --------------------------------------------------------------------

def _sweep_inputs(pins):
    def make(api, rng) -> List[Case]:
        cases = []
        for key, expect in pins.items():
            family, params, m, all_witnesses = key
            for _ in range(SWEEP_REPEATS.get(key, 1)):
                G, _ = relabelled(api, family, params, rng)
                cases.append(Case(f"{G.label} m={m}", G, None, m, expect, all_witnesses))
        rng.shuffle(cases)
        return cases
    return make


def _sweep(api, case: Case):
    return api.omsr.exhaustive_sweep(case.group, case.m, all_witnesses=case.all_witnesses)


def _sweep_check(case: Case, result) -> Optional[str]:
    got = (result.verdict, result.tables_enumerated, result.oriented_count,
           len(result.witnesses), result.max_aut_order_seen)
    if got != case.expect:
        return ("(verdict, tables, oriented, witnesses, max |Aut|) = "
                f"{got}, expected {case.expect}")
    return None


# --- reproduce_roster ----------------------------------------------------------

def _roster_inputs(api, rng) -> List[Case]:
    roster = api.cli.group_roster(ROSTER_MAX_ORDER)
    labels = sorted(G.label for G, _ in roster)
    if labels != ROSTER_LABELS:
        raise RuntimeError(f"group_roster({ROSTER_MAX_ORDER}) changed: {labels}")
    cases = [Case(f"{G.label} m={m}", G, pair, m,
                  "NOT_EXISTS" if (G.label, m) in ROSTER_NOT_EXISTS else "EXISTS")
             for G, pair in roster for m in ROSTER_MS]
    rng.shuffle(cases)
    return cases


def _roster_check(case: Case, result) -> Optional[str]:
    if isinstance(result, tuple):
        report = result[1]
        ok = report.omsr and report.aut_order == case.group.order
        verdict = "EXISTS" if ok else "FAILED"
    else:
        verdict = "NOT_EXISTS" if result.all_failed else "FAILED"
    if verdict != case.expect:
        return f"verdict {verdict}, expected {case.expect}"
    return None


WORKLOADS = {w.name: w for w in [
    Workload("verify_large", _verify_inputs, _construct, _verify_check),
    Workload("sweep_exceptions", _sweep_inputs(SWEEP_EXCEPTIONS), _sweep, _sweep_check),
    Workload("sweep_witnesses", _sweep_inputs(SWEEP_WITNESSES), _sweep, _sweep_check),
    Workload("reproduce_roster", _roster_inputs, _construct, _roster_check),
]}
