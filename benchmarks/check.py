#!/usr/bin/env python3
"""Run every workload once untraced and twice traced, and check the benchmark.

    python3 benchmarks/check.py [--seed N] [--seconds S] [--workload NAME ...]

Prints every end-to-end metric by name and unit for each workload, and the
per-layer metrics of the first traced run.  Exits non-zero when a verdict is
wrong, when two traced runs of one seed disagree on a deterministic counter,
or when a run changed the source tree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import DETERMINISTIC
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def git_status():
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                          capture_output=True, text=True, timeout=60).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()

    status_before = git_status()
    ok = True
    for name in args.workload:
        plain = run(name, args.seed, args.seconds, 0)
        traced = [run(name, args.seed, args.seconds, 1) for _ in range(2)]
        rec = plain["record"]
        print(f"== {name}  seed={args.seed}  {rec['passes']} pass(es) x "
              f"{rec['verdicts_per_pass']} verdicts  failed_frac={rec['failed_frac']:g}")
        for metric, entry in plain["result"]["metrics"].items():
            print(f"   {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
        for metric, entry in traced[0]["result"]["metrics"].items():
            print(f"   {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
        for run_ in [plain] + traced:
            if not run_["result"]["correct"]:
                ok = False
                print(f"   FAIL: errors {run_['record']['errors'][:5]} "
                      f"problems {run_['record']['problems']}")
        first, second = (t["record"]["deterministic"] for t in traced)
        differ = {k: (first[k], second[k]) for k in DETERMINISTIC if first[k] != second[k]}
        if differ:
            ok = False
            print(f"   FAIL: deterministic counters differ between traced runs: {differ}")
        else:
            print("   deterministic counters repeat exactly across two traced runs")
    if status_before != git_status():
        ok = False
        print("FAIL: git status changed during the benchmark runs")
    print("benchmark check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
