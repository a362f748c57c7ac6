"""Outside-in span tracer for the omsr package.

The tracer wraps module-level functions of an already imported omsr package
(and one method, ``ConnectionTable.__init__``), records one span per call and
restores the originals on ``uninstall``.  Nothing inside ``src/`` is edited.

Several modules bind functions by name (``sweep`` imports ``_refine``,
``automorphisms`` and ``aut_order_bounded``; ``constructions`` and ``cli``
import ``is_omsr``; the package ``__init__`` re-exports most public names), so
every alias of a wrapped function in every loaded ``omsr`` module is rebound.

A span is (name, parent span, start, end, value).  ``value`` is a small
integer taken from the call's result where a layer counter needs one (for
example the number of vertices built, or whether a leaf was an automorphism).
Spans are kept in flat lists in memory and written out when the run ends.
A span's self time is its duration minus the durations of its direct
children; calls in one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "omsr"
# (module, function, value of the result); value None records 0.
TARGETS = [
    ("automorphisms", "_refine", None),
    ("automorphisms", "_individualize", None),
    ("automorphisms", "_is_automorphism", lambda ok: 0 if ok else 1),
    ("automorphisms", "_aut_elements", lambda res: len(res[0])),
    ("automorphisms", "_closure_elements", len),
    ("automorphisms", "_generating_subset", None),
    ("automorphisms", "automorphisms", None),
    ("automorphisms", "aut_order_bounded", None),
    ("automorphisms", "is_omsr", None),
    ("automorphisms", "stabilizer", None),
    ("automorphisms", "orbit_count", None),
    ("sweep", "exhaustive_sweep", lambda res: len(res.witnesses)),
    ("sweep", "find_witness", lambda res: 0 if res[0] is None else 1),
    ("digraphs", "oriented_table_criterion", lambda ok: 1 if ok else 0),
    ("digraphs", "build_mcayley", lambda gamma: gamma.n),
    ("digraphs", "is_oriented", None),
    ("digraphs", "is_k_regular", None),
    ("digraphs", "is_connected", None),
    ("constructions", "construct_omsr", None),
    ("constructions", "_searched_witness", None),
    ("constructions", "_load_cached_witness", lambda table: 0 if table is None else 1),
    ("constructions", "_store_witness", None),
    ("constructions", "cyclic_connection_table", None),
    ("constructions", "abelian_connection_table", None),
    ("constructions", "nonabelian_connection_table", None),
    ("groups", "group_from_cayley_table", None),
    ("groups", "group_from_permutation_generators", None),
    ("groups", "catalog_group", None),
    ("groups", "closure", None),
    ("groups", "generates", None),
    ("groups", "element_order", None),
    ("groups", "is_abelian", None),
    ("groups", "is_cyclic", None),
    ("groups", "find_generating_pair", None),
    ("groups", "normalize_generating_pair", None),
]
# Generators: each next() is a span; value 1 when it yielded an item.
GENERATOR_TARGETS = [("sweep", "enumerate_tables")]
METHOD_TARGETS = [("digraphs", "ConnectionTable", "__init__")]


def _package_modules() -> dict:
    return {key: mod for key, mod in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name: list = []
        self.span_parent: list = []
        self.span_start: list = []
        self.span_end: list = []
        self.span_value: list = []
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original)
        self._wrappers: list = []  # kept alive so their ids stay unique

    # --- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_value.append(0)
        self.span_end.append(0)
        stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, value_of):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if value_of is not None:
                self.span_value[idx] = value_of(result)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.span_value[idx] = 1
                yield item

        return traced

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        plans = [(short, fname, value_of, False) for short, fname, value_of in TARGETS]
        plans += [(short, fname, None, True) for short, fname in GENERATOR_TARGETS]
        for short, fname, value_of, is_gen in plans:
            original = getattr(modules[f"{PACKAGE}.{short}"], fname)
            name = f"{short}.{fname}"
            wrapper = (self._wrap_generator(original, name) if is_gen
                       else self._wrap(original, name, value_of))
            self._wrappers.append(wrapper)
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for short, cls_name, meth in METHOD_TARGETS:
            cls = getattr(modules[f"{PACKAGE}.{short}"], cls_name)
            original = cls.__dict__[meth]
            wrapper = self._wrap(original, f"{short}.{cls_name}.{meth}", None)
            self._wrappers.append(wrapper)
            self._patches.append((cls, meth, original))
            setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def leftover_wrappers(self) -> list:
        """Names still bound to a tracer wrapper; empty after a clean uninstall."""
        ids = {id(w) for w in self._wrappers}
        left = []
        for key, mod in _package_modules().items():
            for attr, val in vars(mod).items():
                if id(val) in ids:
                    left.append(f"{key}.{attr}")
                elif isinstance(val, type):
                    left += [f"{key}.{attr}.{m}" for m, v in vars(val).items()
                             if id(v) in ids]
        return left

    # --- results -------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total_ns, self_ns and the sum of values."""
        n = len(self.span_name)
        child_ns = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_ns[p] += self.span_end[i] - self.span_start[i]
        agg = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "value": 0})
        for i in range(n):
            row = agg[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child_ns[i]
            row["value"] += self.span_value[i]
        return dict(agg)

    def write(self, path) -> None:
        """All spans as CSV, times in ns from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,value\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i] - t0},{self.span_end[i] - t0},"
                         f"{self.span_value[i]}\n")


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics from aggregated spans; every ``_s`` value is self time."""

    def calls(*names):
        return sum(agg.get(k, {}).get("calls", 0) for k in names)

    def value(*names):
        return sum(agg.get(k, {}).get("value", 0) for k in names)

    def self_s(*names):
        return sum(agg.get(k, {}).get("self_ns", 0) for k in names) / 1e9

    tables = value("sweep.enumerate_tables")
    oriented = value("digraphs.oriented_table_criterion")
    witnesses = value("sweep.exhaustive_sweep", "sweep.find_witness")
    loads = calls("constructions._load_cached_witness")
    hits = value("constructions._load_cached_witness")
    group_fns = [k for k in agg if k.startswith("groups.")]
    return {
        "automorphisms.refine_s": (self_s("automorphisms._refine"), "s"),
        "automorphisms.refine_calls": (calls("automorphisms._refine"), "count"),
        "automorphisms.search_nodes": (calls("automorphisms._individualize"), "count"),
        "automorphisms.leaves": (calls("automorphisms._is_automorphism"), "count"),
        "automorphisms.bad_leaves": (value("automorphisms._is_automorphism"), "count"),
        "automorphisms.search_s": (self_s("automorphisms._aut_elements",
                                          "automorphisms._individualize",
                                          "automorphisms._is_automorphism"), "s"),
        "automorphisms.closure_s": (self_s("automorphisms._closure_elements",
                                           "automorphisms._generating_subset"), "s"),
        "automorphisms.closure_elements": (value("automorphisms._closure_elements"), "count"),
        "automorphisms.aut_order_sum": (value("automorphisms._aut_elements"), "count"),
        "automorphisms.extras_s": (self_s("automorphisms.is_omsr", "automorphisms.stabilizer",
                                          "automorphisms.orbit_count"), "s"),
        "automorphisms.engine_calls": (calls("automorphisms.automorphisms",
                                             "automorphisms.aut_order_bounded"), "count"),
        "sweep.enumerate_s": (self_s("sweep.enumerate_tables"), "s"),
        "sweep.tables": (tables, "count"),
        "sweep.oriented": (oriented, "count"),
        "sweep.oriented_ratio": (oriented / tables if tables else 0.0, "ratio"),
        "sweep.witness_ratio": (witnesses / oriented if oriented else 0.0, "ratio"),
        "sweep.find_witness_s": (self_s("sweep.find_witness"), "s"),
        "sweep.exhaustive_s": (self_s("sweep.exhaustive_sweep"), "s"),
        "digraphs.table_s": (self_s("digraphs.ConnectionTable.__init__"), "s"),
        "digraphs.tables_built": (calls("digraphs.ConnectionTable.__init__"), "count"),
        "digraphs.orient_filter_s": (self_s("digraphs.oriented_table_criterion"), "s"),
        "digraphs.build_s": (self_s("digraphs.build_mcayley"), "s"),
        "digraphs.builds": (calls("digraphs.build_mcayley"), "count"),
        "digraphs.vertices_built": (value("digraphs.build_mcayley"), "count"),
        "digraphs.checks_s": (self_s("digraphs.is_oriented", "digraphs.is_k_regular",
                                     "digraphs.is_connected"), "s"),
        "constructions.cache_hits": (hits, "count"),
        "constructions.cache_misses": (loads - hits, "count"),
        "constructions.cache_writes": (calls("constructions._store_witness"), "count"),
        "constructions.cache_s": (self_s("constructions._load_cached_witness",
                                         "constructions._store_witness"), "s"),
        "constructions.dispatch_s": (self_s("constructions.construct_omsr",
                                            "constructions._searched_witness"), "s"),
        "constructions.recipe_s": (self_s("constructions.cyclic_connection_table",
                                          "constructions.abelian_connection_table",
                                          "constructions.nonabelian_connection_table"), "s"),
        "groups.time_s": (self_s(*group_fns), "s"),
        "groups.calls": (calls(*group_fns), "count"),
    }


# Counters that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = [
    "automorphisms.refine_calls", "automorphisms.search_nodes", "automorphisms.leaves",
    "automorphisms.bad_leaves", "automorphisms.closure_elements",
    "automorphisms.aut_order_sum", "automorphisms.engine_calls",
    "sweep.tables", "sweep.oriented", "digraphs.tables_built", "digraphs.builds",
    "digraphs.vertices_built", "constructions.cache_hits", "constructions.cache_misses",
    "constructions.cache_writes", "groups.calls",
]
