"""Smoke test of the benchmark itself; run from the repository root::

    python3 perfbench/smoke.py

Checks, with a tiny run (``--tiny``: N/10, tf=1) of every workload:

* every metric ``BENCHMARK.json`` names is emitted with its unit —
  end-to-end metrics untraced, per-layer metrics traced — and every
  emitted value is a finite number;
* query generation is a pure function of the seed: the same seed gives
  the same query digests, another seed gives different ones (checked at
  the workloads' real sizes);
* traced and untraced runs return identical plans (``run.py --trace 1``
  compares them call by call; a difference is a ``TraceMismatch``);
* without ``src/`` beside it the benchmark exits non-zero and prints no
  result.

Failures the benchmark reports about the program (an oracle mismatch, a
known-failure probe) are printed, not treated as smoke failures.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".perfbench" / "smoke"


def run_bench(cwd: Path, workload: str, seed: int, trace: int,
              tiny: bool = True) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    if tiny:
        command.append("--tiny")
    return subprocess.run(command, cwd=str(cwd), capture_output=True,
                          text=True, timeout=600)


def check_metrics(spec: dict, workload: str, trace: int,
                  problems: list[str]) -> None:
    done = run_bench(ROOT, workload, 1, trace)
    if done.returncode != 0:
        problems.append(f"{workload} trace={trace}: exit {done.returncode}: "
                        f"{done.stderr.strip()[-300:]}")
        return
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append(f"{workload} trace={trace}: correct is false")
    expected = spec["per_layer" if trace else "end_to_end"]
    for entry in expected:
        got = result["metrics"].get(entry["name"])
        if got is None:
            problems.append(f"{workload} trace={trace}: {entry['name']} missing")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{workload} trace={trace}: {entry['name']} unit "
                            f"{got['unit']!r} != {entry['unit']!r}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(
            got["value"]
        ):
            problems.append(f"{workload} trace={trace}: {entry['name']} = "
                            f"{got['value']!r}")
    extra = set(result["metrics"]) - {entry["name"] for entry in expected}
    if extra:
        problems.append(f"{workload} trace={trace}: unlisted {sorted(extra)}")
    report_path = (ROOT / ".perfbench"
                   / f"result-{workload}-seed1-trace{trace}.json")
    report = json.loads(report_path.read_text())
    for method, by_kind in report["failures"].items():
        if "TraceMismatch" in by_kind:
            problems.append(f"{workload}: traced plans differ for {method}")
        print(f"  {workload} trace={trace}: reported {method} {by_kind}")
    if report["probe_failures"]:
        print(f"  {workload}: known-failure probes {report['probe_failures']}")


def check_seed_purity(problems: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workload_defs import WORKLOADS, plan_pass, query_digest

    for name, workload in WORKLOADS.items():
        def digests(seed: int) -> list[str]:
            return [query_digest(call.query)
                    for call in plan_pass(workload, seed, 0)]

        first, again, other = digests(11), digests(11), digests(12)
        if first != again:
            problems.append(f"{name}: same seed gave different queries")
        if any(a == b for a, b in zip(first, other)):
            problems.append(f"{name}: another seed repeated a query")


def check_bare_directory(problems: list[str]) -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(SCRATCH, "paper", 1, 0, tiny=False)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("bare directory: expected a non-zero exit and "
                            f"no output, got {done.returncode}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for entry in spec["workloads"]:
        for trace in (0, 1):
            print(f"smoke: {entry['name']} trace={trace}", flush=True)
            check_metrics(spec, entry["name"], trace, problems)
    check_seed_purity(problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
