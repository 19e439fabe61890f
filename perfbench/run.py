"""End-to-end and per-layer benchmark of ``repro.optimize()``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 18 --trace 0

One client drives ``optimize()`` in a closed loop: it waits for each
plan before asking for the next.  The loop runs the workload's passes
(see ``workload_defs.py``): pass 0 whole, then call by call until
``--seconds`` of call time have been spent.  Every returned plan is
checked: it must pass
``verify_plan`` and its cost must equal ``model.plan_cost(order, graph)``
bitwise.  After the loop, every call of pass 0 is repeated with
``incremental=False`` and must return the same order and cost.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
call twice, untraced and with layer spans on (``layer_trace.py``),
checks that both return identical plans, and reports the per-layer
metrics.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller report, with the machine manifest, the failure
breakdown and the units-honesty table, is written under ``.perfbench/``
at the repository root, next to the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCH_DIR = Path(__file__).resolve().parent

#: End-to-end metrics steady enough across seeds to carry a bound; the
#: result line reports exactly these (BENCHMARK.json "end_to_end").
BOUNDED = ("setup_s", "queries_per_s", "optimize_s_gmean", "peak_rss_mb")
#: Fresh-interpreter imports timed per run; the median enters setup_s.
IMPORT_REPEATS = 3
#: In-process query generation + model construction repeats.
SETUP_REPEATS = 5
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import repro, repro.core.exact, "
    "repro.parallel.orchestrator, repro.robustness.verify; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every call (N/10, tf=1) for the smoke test",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Calls and checks
# ----------------------------------------------------------------------


class Ledger:
    """Attempts, failures by method and exception, and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, dict[str, int]] = {}
        self.incidents: list[str] = []

    def fail(self, method: str, kind: str, detail: str, wrong: bool) -> None:
        self.failed += 1
        by_kind = self.failures.setdefault(method, {})
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if wrong:
            self.correct = False
        if len(self.incidents) < 20:
            self.incidents.append(f"{method} {kind}: {detail}"[:300])


def invoke(call, **options):
    """One ``optimize()`` call; returns ``(result, exception, seconds)``."""
    from repro import optimize

    kind = call.kind
    start = perf_counter()
    try:
        result = optimize(
            call.query,
            method=kind.method,
            model=call.model,
            time_factor=kind.time_factor,
            seed=call.optimizer_seed,
            workers=kind.workers,
            restarts=kind.restarts,
            **options,
        )
    # boundary: any exception a call raises is a counted failure
    except Exception as exc:  # noqa: BLE001
        return None, exc, perf_counter() - start
    return result, None, perf_counter() - start


def output_violation(call, result) -> str | None:
    """Why ``result`` is wrong for ``call``, or ``None`` when it is right."""
    from repro.robustness.verify import verify_plan

    report = verify_plan(result.order, result.cost, call.graph, call.model)
    if not report.ok:
        return "PlanVerificationError: " + "; ".join(report.violations)
    recomputed = call.model.plan_cost(result.order, call.graph)
    if recomputed.hex() != result.cost.hex():
        return f"CostMismatch: reported {result.cost!r}, plan_cost {recomputed!r}"
    return None


class Record:
    __slots__ = ("call", "seconds", "order", "cost", "units")

    def __init__(self, call, seconds, result) -> None:
        self.call = call
        self.seconds = seconds
        self.order = None if result is None else result.order.positions
        self.cost = None if result is None else result.cost
        self.units = None if result is None else result.units_spent


class Passes:
    """Lazily planned passes of a workload (planning is never timed)."""

    def __init__(self, workload, seed: int, shrink: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.shrink = shrink
        self._planned: dict[int, list] = {}

    def get(self, index: int) -> list:
        from workload_defs import plan_pass

        if index not in self._planned:
            self._planned[index] = plan_pass(
                self.workload, self.seed, index, self.shrink
            )
        return self._planned[index]


def measure(call, ledger, spans=contextlib.nullcontext()) -> Record:
    """One checked ``optimize()`` call, entered in ``ledger``.

    ``spans`` is entered around the call alone, so the checks that
    follow are never traced.
    """
    with spans:
        result, exc, elapsed = invoke(call)
    ledger.attempted += 1
    if exc is not None:
        ledger.fail(call.kind.method, type(exc).__name__,
                    f"{call.kind.label}: {exc}", wrong=False)
    else:
        violation = output_violation(call, result)
        if violation is not None:
            ledger.fail(call.kind.method, violation.split(":")[0],
                        f"{call.kind.label}: {violation}", wrong=True)
    return Record(call, elapsed, result)


def closed_loop(passes, ledger, seconds) -> list[Record]:
    """Calls in pass order until ``seconds`` of call time.

    Pass 0 always runs whole, so every call kind is measured at least
    once; after it the loop may stop between any two calls.
    """
    records: list[Record] = []
    busy = 0.0
    pass_index = 0
    while True:
        for call in passes.get(pass_index):
            if pass_index > 0 and busy >= seconds:
                return records
            records.append(measure(call, ledger))
            busy += records[-1].seconds
        pass_index += 1
        if busy >= seconds:
            return records


def paired_loop(passes, ledger, seconds, tracer):
    """:func:`closed_loop` with every call run twice, untraced and traced.

    The two runs of a call are back to back and alternate which goes
    first, so the machine's slow drift and any warm-up cancel out of
    ``bench.trace_overhead``.  ``seconds`` counts untraced call time.
    Returns ``(reference, traced)`` records, pairwise aligned.
    """
    reference: list[Record] = []
    traced: list[Record] = []
    busy = 0.0
    pass_index = 0
    while True:
        tracer.call_index = -1
        with tracer:  # the workloads layer: planning each pass
            calls = passes.get(pass_index)
        for call in calls:
            if pass_index > 0 and busy >= seconds:
                return reference, traced
            for with_spans in (len(reference) % 2 == 1,
                               len(reference) % 2 == 0):
                if with_spans:
                    tracer.call_index = len(traced)
                    traced.append(measure(call, ledger, tracer))
                else:
                    reference.append(measure(call, ledger))
            busy += reference[-1].seconds
        pass_index += 1
        if busy >= seconds:
            return reference, traced


def oracle_outcome(call) -> tuple:
    """``(order, cost hex, exception)`` of ``call`` with ``incremental=False``."""
    result, exc, _ = invoke(call, incremental=False)
    if exc is not None:
        return None, None, f"{type(exc).__name__}: {exc}"
    return result.order.positions, result.cost.hex(), None


def oracle_check(records, ledger) -> None:
    """Pass 0 again through ``incremental=False``: same order and cost.

    Outside the timed loop, so the calls fan out over two spawned
    processes unless the workload's calls run their own pool.
    """
    checked = [r for r in records
               if r.call.pass_index == 0 and r.cost is not None]
    calls = [record.call for record in checked]
    if any(call.kind.workers for call in calls) or len(calls) < 2:
        outcomes = [oracle_outcome(call) for call in calls]
    else:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            outcomes = list(pool.map(oracle_outcome, calls))
    for record, (order, cost_hex, error) in zip(checked, outcomes):
        ledger.attempted += 1
        kind = record.call.kind
        if error is not None:
            ledger.fail(kind.method, error.split(":")[0],
                        f"oracle {kind.label}: {error}", wrong=False)
        elif order != record.order or cost_hex != record.cost.hex():
            # A valid, correctly priced plan that differs from the
            # reference evaluator's: a failed call, not a wrong output.
            ledger.fail(kind.method, "OracleMismatch",
                        f"{kind.label}: default {record.cost!r} vs oracle "
                        f"{float.fromhex(cost_hex)!r}", wrong=False)


def run_probes(workload, seed) -> dict[str, dict[str, int]]:
    """Known-failure probes; their failures are reported separately."""
    from workload_defs import plan_probes

    found: dict[str, dict[str, int]] = {}
    for call in plan_probes(workload, seed):
        _, exc, _ = invoke(call)
        if exc is not None:
            by_kind = found.setdefault(call.kind.method, {})
            name = type(exc).__name__
            by_kind[name] = by_kind.get(name, 0) + 1
    return found


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def measure_setup(workload, seed: int, shrink: bool) -> tuple[float, dict]:
    """Median set-up time: a fresh-interpreter import plus planning pass 0."""
    from workload_defs import plan_pass

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    imports = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=120, check=True,
        )
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    planning = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        plan_pass(workload, seed, 0, shrink)
        planning.append(perf_counter() - start)
    import_s = statistics.median(imports)
    plan_s = statistics.median(planning)
    return import_s + plan_s, {"import_s": imports, "plan_pass0_s": planning}


def by_kind(records) -> dict[int, list[Record]]:
    """Records grouped by their call's slot in the pass (its call kind)."""
    groups: dict[int, list[Record]] = {}
    for record in records:
        groups.setdefault(record.call.slot, []).append(record)
    return groups


def mix_quantile(records, q: float) -> float:
    """Quantile ``q`` of call seconds with every call kind weighted equally.

    The loop may stop mid-pass, so some kinds have one more sample than
    others; weighting each sample by 1/(its kind's count) keeps the
    workload's stated mix.  Samples sit at the midpoints of their
    cumulative weight and the quantile interpolates between them.
    """
    groups = by_kind(records)
    points = sorted(
        (record.seconds, 1.0 / len(group))
        for group in groups.values() for record in group
    )
    target = q * len(groups)
    below = 0.0
    previous = None
    for seconds, weight in points:
        centre = below + weight / 2
        if centre >= target:
            if previous is None:
                return seconds
            p_centre, p_seconds = previous
            share = (target - p_centre) / (centre - p_centre)
            return p_seconds + share * (seconds - p_seconds)
        previous = (centre, seconds)
        below += weight
    return points[-1][0]


def us_per_unit(records) -> dict[str, float]:
    """Wall microseconds per budget unit charged, per method."""
    wall: dict[str, float] = {}
    units: dict[str, float] = {}
    for record in records:
        if record.units:
            method = record.call.kind.method
            wall[method] = wall.get(method, 0.0) + record.seconds * 1e6
            units[method] = units.get(method, 0.0) + record.units
    return {method: wall[method] / units[method] for method in sorted(wall)}


def quality(records) -> float:
    """Geometric mean of cost / lower bound over pass 0 (repeats exactly)."""
    ratios = [
        r.cost / r.call.lower_bound for r in records
        if r.call.pass_index == 0 and r.cost is not None
        and r.call.lower_bound > 0 and r.cost > 0
    ]
    return statistics.geometric_mean(ratios) if ratios else 1.0


def manifest() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "platform": platform.platform(),
    }


def git_sha() -> str:
    """HEAD's sha read from ``.git`` (no subprocess); "absent" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "absent"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(records, setup_s: float) -> dict:
    """Every end-to-end figure of an untraced run, keyed by metric name.

    Each call kind weighs equally, whatever number of samples the run
    gave it; in the geometric mean each N weighs equally.  Only
    :data:`BOUNDED` enter the result line; the rest are printed for
    reading (see README.md, "End-to-end metrics").
    """
    groups = by_kind(records)
    mean_pass = sum(
        statistics.fmean(r.seconds for r in group) for group in groups.values()
    )
    # Log-mean per call kind, then per N, so each N of the mix weighs the
    # same however many call kinds it has.
    by_n: dict[int, list[float]] = {}
    for group in groups.values():
        by_n.setdefault(group[0].call.kind.n_joins, []).append(
            statistics.fmean(math.log(r.seconds) for r in group)
        )
    log_mean = statistics.fmean(statistics.fmean(v) for v in by_n.values())
    return {
        "setup_s": metric(setup_s, "s"),
        "queries_per_s": metric(len(groups) / mean_pass, "1/s"),
        "optimize_s_gmean": metric(math.exp(log_mean), "s"),
        "optimize_s_p50": metric(mix_quantile(records, 0.5), "s"),
        "optimize_s_p90": metric(mix_quantile(records, 0.9), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(tracer, reference, traced, base_ii, failures, ledger) -> dict:
    from layer_trace import LAYERS
    from workload_defs import METHODS

    metrics: dict[str, dict] = {}
    table = tracer.layer_table()
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = metric(table[layer]["calls"], "count")
        metrics[f"{layer}.busy_s"] = metric(table[layer]["busy_s"], "s")
        metrics[f"{layer}.self_s"] = metric(table[layer]["self_s"], "s")
    c = tracer.counters

    def share(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics["cost.incremental.joins_walked_frac"] = metric(share(
        c["incremental_joins_walked"], c["incremental_joins_possible"]
    ), "ratio")
    metrics["cost.incremental.pruned_share"] = metric(share(
        c["incremental_pruned"], c["incremental_evaluations"]
    ), "ratio")
    metrics["core.moves.proposals_per_move"] = metric(
        share(c["proposals"], c["valid_moves"]), "ratio"
    )
    metrics["plans.validity.join_order.constructed"] = metric(
        c["join_order_constructed"], "count"
    )
    metrics["core.state.evaluations"] = metric(c["state_evaluations"], "count")
    metrics["core.state.units_charged"] = metric(c["units_charged"], "units")
    metrics["parallel.orchestrator.merge_s"] = metric(tracer.merge_s, "s")
    rates = us_per_unit(reference)
    base = rates.get("II", base_ii)
    for method in METHODS:
        metrics[f"budget.us_per_unit.{method}"] = metric(
            rates.get(method, 0.0), "us/unit"
        )
        if method != "II":
            metrics[f"budget.vs_II.{method}"] = metric(
                share(rates.get(method, 0.0), base or 0.0), "ratio"
            )
    metrics["bench.trace_overhead"] = metric(
        sum(r.seconds for r in traced) / sum(r.seconds for r in reference),
        "ratio",
    )
    metrics["failed_share"] = metric(share(ledger.failed, ledger.attempted),
                                     "ratio")
    metrics["plan_cost_vs_bound_gmean"] = metric(quality(reference), "ratio")
    for method, name in (("KBI", "BudgetExhausted"),
                         ("EXACT", "ZeroDivisionError")):
        metrics[f"failures.{method}.{name}"] = metric(
            failures.get(method, {}).get(name, 0), "count"
        )
    return metrics


def merge_failures(*tables: dict) -> dict[str, dict[str, int]]:
    merged: dict[str, dict[str, int]] = {}
    for table in tables:
        for method, by_kind in table.items():
            target = merged.setdefault(method, {})
            for name, count in by_kind.items():
                target[name] = target.get(name, 0) + count
    return merged


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workload_defs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup_s, setup_detail = measure_setup(workload, args.seed, args.tiny)
    ledger = Ledger()
    passes = Passes(workload, args.seed, args.tiny)
    report: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "manifest": manifest(),
        "setup": setup_detail,
    }

    if args.trace == 0:
        records = closed_loop(passes, ledger, args.seconds)
        figures = end_to_end(records, setup_s)
        metrics = {name: figures[name] for name in BOUNDED}
        oracle_check(records, ledger)
        probe_failures = run_probes(workload, args.seed)
        figures["failed_share"] = metric(
            ledger.failed / ledger.attempted, "ratio"
        )
        figures["plan_cost_vs_bound_gmean"] = metric(quality(records), "ratio")
        report["end_to_end"] = figures
        report["calls_beyond_p90"] = sum(
            r.seconds > figures["optimize_s_p90"]["value"] for r in records
        )
        print(readable(workload.name, args.seed, figures, len(records),
                       report["calls_beyond_p90"]))
    else:
        records, metrics, probe_failures = traced_run(
            workload, args, passes, ledger, report
        )
    report["calls"] = len(records)
    report["call_seconds"] = [
        {"pass": r.call.pass_index, "slot": r.call.slot,
         "kind": r.call.kind.label, "seconds": r.seconds, "units": r.units}
        for r in records
    ]
    report["probe_failures"] = probe_failures
    report["failures"] = ledger.failures
    report["incidents"] = ledger.incidents
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def readable(name: str, seed: int, figures: dict, calls: int,
             beyond_p90: int) -> str:
    """One line naming every end-to-end figure with its unit."""
    parts = [f"{key}={value['value']:.6g} {value['unit']}"
             for key, value in figures.items()]
    return (f"# {name} seed={seed} calls={calls} "
            f"calls_beyond_p90={beyond_p90}: " + "  ".join(parts))


def traced_run(workload, args, passes, ledger, report):
    """Paired untraced and traced calls, then the per-layer metrics."""
    from layer_trace import LayerTracer

    tracer = LayerTracer()
    reference, traced = paired_loop(passes, ledger, args.seconds / 2, tracer)
    base_ii = None
    if not any(r.call.kind.method == "II" for r in reference):
        base_ii = ii_base(reference)
    for before, after in zip(reference, traced):
        if (before.order, before.cost) != (after.order, after.cost):
            ledger.fail(before.call.kind.method, "TraceMismatch",
                        before.call.kind.label, wrong=True)
    oracle_check(reference, ledger)
    probe_failures = run_probes(workload, args.seed)
    failures = merge_failures(ledger.failures, probe_failures)
    metrics = per_layer(tracer, reference, traced, base_ii, failures, ledger)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.tsv"
    report["spans"] = {"path": str(spans_path.relative_to(ROOT)),
                       "count": tracer.write_spans(str(spans_path))}
    report["units_honesty"] = units_honesty(reference, base_ii)
    report["layers"] = tracer.layer_table()
    print(f"# {workload.name} seed={args.seed} traced calls={len(traced)} "
          f"spans={report['spans']['count']} trace_overhead="
          f"{metrics['bench.trace_overhead']['value']:.3f}")
    return reference, metrics, probe_failures


def ii_base(reference) -> float | None:
    """II's µs/unit on pass 0's queries, for workloads that run no II."""
    wall = units = 0.0
    for record in reference:
        if record.call.pass_index != 0:
            continue
        kind = dataclasses.replace(record.call.kind, method="II")
        result, exc, seconds = invoke(dataclasses.replace(record.call, kind=kind))
        if exc is None:
            wall += seconds * 1e6
            units += result.units_spent
    return wall / units if units else None


def units_honesty(reference, base_ii) -> dict:
    rates = us_per_unit(reference)
    base = rates.get("II", base_ii)
    return {
        "base": {"method": "II", "us_per_unit": base,
                 "source": "workload" if "II" in rates else "pass-0 II reference"},
        "methods": {
            method: {"us_per_unit": rate,
                     "ratio_to_II": rate / base if base else None}
            for method, rate in rates.items()
        },
    }


def child_pids() -> list[int]:
    """Processes whose parent is this one, read from ``/proc``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError, ValueError, IndexError):
            # Fields after the command's closing parenthesis: state, ppid.
            if int(stat.read_text().rpartition(")")[2].split()[1]) == os.getpid():
                found.append(int(stat.parent.name))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Pools and subprocesses are joined where they are used.  What remains
    is multiprocessing's resource tracker, which a spawn pool starts and
    which would outlive the run: it ignores SIGTERM and ends only when
    its pipe closes, so it is stopped through that pipe and reaped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        with contextlib.suppress(OSError):
            tracker._stop()
    for pid in child_pids():
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
