#!/usr/bin/env python3
"""omsr benchmark: time to a certified verdict, on four workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  Workloads are listed in
``workloads.py`` and explained in ``README.md``.

With ``--trace 0`` the run repeats whole passes over the workload's inputs
until the next pass would end after ``--seconds``, and reports the
end-to-end metrics.  Each pass follows its own set-up (a fresh import of the
package, group construction and input generation, and a fresh temporary copy
of the witness cache); set-up is timed ``SETUP_PER_PASS`` times before every
pass and ``setup_s`` is the median, so its samples spread over the run.
Times are put on one host-speed scale by ``speed.HostSpeed``; the raw
times are kept in the run record.
With ``--trace 1`` it makes one untraced pass, then one traced set-up and
pass, and reports the per-layer metrics and the tracing overhead, with both
pass walls put on the host-speed scale.

Every verdict is checked against the pinned result in ``workloads.py``.
The package directory is never written: ``OMSR_WITNESS_DIR`` always points
at a temporary copy of the packaged cache.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full run record, with metadata, goes to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from speed import HostSpeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PER_PASS = 3
# Never used while the benchmark or a change is being tuned; a claimed gain
# is re-checked on it.
HELD_OUT_SEED = 424242

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "verdict_p50_s": "s", "verdict_p90_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Pass:
    start: float
    end: float
    cpu: float
    labels: list   # the input of each verdict request
    spans: list    # (start, end) of each verdict request
    errors: list   # (case label, message) per wrong or raised verdict

    @property
    def wall(self) -> float:
        return self.end - self.start


def fresh_import() -> SimpleNamespace:
    """Import the package from source again, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "omsr" or k.startswith("omsr.")]:
        del sys.modules[key]
    return SimpleNamespace(omsr=importlib.import_module("omsr"),
                           cli=importlib.import_module("omsr.cli"))


def fresh_cache(work_dir: str) -> None:
    """Point the package at a fresh copy of its bundled witness cache."""
    dst = os.path.join(tempfile.mkdtemp(dir=work_dir), "witnesses")
    shutil.copytree(SRC / "omsr" / "witnesses", dst)
    os.environ["OMSR_WITNESS_DIR"] = dst


def setup(workload, seed: int, work_dir: str, tracer=None):
    """Imports, group construction and input generation, cache copy."""
    gc.collect()
    start = time.perf_counter()
    api = fresh_import()
    if tracer is not None:
        tracer.install()
    cases = workload.make_inputs(api, random.Random(f"{workload.name}:{seed}"))
    fresh_cache(work_dir)
    return api, cases, (start, time.perf_counter())


def run_pass(workload, api, cases) -> Pass:
    gc.collect()
    results, spans = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for case in cases:
        t0 = time.perf_counter()
        try:
            result = workload.call(api, case)
        except Exception as exc:   # a raised verdict is counted as failed
            result = exc
        spans.append((t0, time.perf_counter()))
        results.append(result)
    wall1, cpu = time.perf_counter(), time.process_time() - cpu0
    errors = []
    for case, result in zip(cases, results):
        if isinstance(result, Exception):
            message = f"raised {type(result).__name__}: {result}"
        else:
            message = workload.check(case, result)
        if message is not None:
            errors.append((case.label, message))
    return Pass(wall0, wall1, cpu, [case.label for case in cases], spans, errors)


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(passes, setups, scale) -> dict:
    """The end-to-end metrics, each time passed through ``scale(start, end,
    elapsed)``.  Means over passes, not medians: the mean of a few passes
    moves smoothly where the median jumps between host speed levels.  Each
    input's latency is its mean over all its requests, so every input weighs
    the same."""
    by_input = defaultdict(list)
    for p in passes:
        for label, (a, b) in zip(p.labels, p.spans):
            by_input[label].append(scale(a, b, b - a))
    per_case = sorted(statistics.fmean(latencies) for latencies in by_input.values())
    values = {
        "wall_s": statistics.fmean(scale(p.start, p.end, p.wall) for p in passes),
        "cpu_s": statistics.fmean(scale(p.start, p.end, p.cpu) for p in passes),
        "verdict_p50_s": nearest_rank(per_case, 0.5),
        "verdict_p90_s": nearest_rank(per_case, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(scale(a, b, b - a) for a, b in setups),
    }
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}


def tree_digest(path: Path) -> str:
    """Hash of every file under path except bytecode caches."""
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def commit_id():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "omsr" / "__init__.py").is_file():
        print(f"error: no omsr package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    import numpy   # imported before timing: set-up measures omsr's own imports

    meta = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit_id(), "source_sha256": tree_digest(SRC),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT, prefix="work-")
    problems = []
    record = {"meta": meta}
    host = HostSpeed()
    try:
        setups = []

        def set_up():
            for _ in range(SETUP_PER_PASS):
                api, cases, interval = setup(workload, args.seed, work_dir)
                setups.append(interval)
            return api, cases

        if args.trace == 0:
            host.start()
        api, cases = set_up()
        imported = Path(api.omsr.__file__).resolve()
        if SRC not in imported.parents:
            print(f"error: omsr imported from {imported}, not {SRC}", file=sys.stderr)
            return 2

        if args.trace == 0:
            passes = []
            begin = time.perf_counter()
            while True:
                passes.append(run_pass(workload, api, cases))
                typical = statistics.median(p.wall for p in passes)
                if time.perf_counter() - begin + typical > args.seconds:
                    break
                api, cases = set_up()
            host.stop()
            metrics = end_to_end(passes, setups, host.scale)
            raw = end_to_end(passes, setups, lambda a, b, elapsed: elapsed)
            record["raw_metrics"] = {k: v for k, (v, _) in raw.items()}
            record["host_speed_samples"] = len(host.took)
        else:
            from tracer import DETERMINISTIC, Tracer, layer_metrics
            host.start()
            untraced = run_pass(workload, api, cases)
            tracer = Tracer()
            try:
                api, cases, _ = setup(workload, args.seed, work_dir, tracer=tracer)
                traced = run_pass(workload, api, cases)
            finally:
                tracer.uninstall()
                host.stop()
            leftover = tracer.leftover_wrappers()
            if leftover:
                problems.append(f"tracer left wrappers bound: {leftover}")
            passes = [untraced, traced]
            metrics = layer_metrics(tracer.aggregate())
            # Both walls at one host speed, so the ratio is the tracer's cost
            # and not a switch of speed level between the two passes.
            walls = [host.scale(p.start, p.end, p.wall) for p in passes]
            metrics["trace_overhead_frac"] = (walls[1] / walls[0] - 1.0, "ratio")
            record["untraced_wall_s"], record["traced_wall_s"] = walls
            record["raw_walls_s"] = [p.wall for p in passes]
            record["deterministic"] = {k: metrics[k][0] for k in DETERMINISTIC}
            record["spans"] = len(tracer.span_name)
            tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.csv")
    finally:
        host.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    if tree_digest(SRC) != meta["source_sha256"]:
        problems.append("the run changed files under src/")
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    attempted = sum(len(p.spans) for p in passes)
    errors = [e for p in passes for e in p.errors]
    record.update({
        "passes": len(passes),
        "verdicts_per_pass": len(cases),
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "setup_s_samples": [b - a for a, b in setups],
        "attempted": attempted,
        "failed": len(errors),
        "failed_frac": len(errors) / attempted,
        "errors": errors[:50],
        "problems": problems,
        "metrics": reported,
    })
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# omsr benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"commit={meta['commit']} python={meta['python']} numpy={meta['numpy']} "
          f"nproc={meta['nproc']}")
    print(f"# {len(passes)} pass(es) of {len(cases)} verdicts; {attempted} attempted, "
          f"{len(errors)} failed (failed_frac {len(errors) / attempted:g}); record {path}")
    for label, message in errors[:10]:
        print(f"# FAILED {label}: {message}")
    for message in problems:
        print(f"# PROBLEM {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
