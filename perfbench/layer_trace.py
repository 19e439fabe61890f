"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:class:`LayerTracer` wraps each layer's public entry points for the
duration of each ``with`` block and keeps what it recorded across blocks.  Class methods are patched on the class
that defines them.  Module functions are rebound in every loaded
``repro`` module that holds them, because callers import them by name.
Everything is restored on exit, so an untraced run in the same process
executes the original code.

A span records its entry point, start, end, parent span and the index
of the ``optimize()`` call it belongs to.  Spans live in flat arrays
while the run is going and are written out by :meth:`write_spans`.
Per-layer ``calls``, ``busy_s`` and ``self_s`` are folded as spans
close.  ``busy_s`` counts only spans with no open span of the same
layer above them, so nested entry points are not counted twice.
``self_s`` is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import weakref
from array import array
from time import perf_counter

#: Layer → ``(module, qualified name)`` of each wrapped entry point.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cost.incremental": (
        ("repro.cost.incremental", "IncrementalEvaluator.evaluate"),
        ("repro.cost.incremental", "IncrementalEvaluator.commit"),
        ("repro.cost.incremental", "IncrementalEvaluator.rebase"),
    ),
    "cost.model": (("repro.cost.base", "CostModel.plan_cost"),),
    "core.moves": (
        ("repro.core.moves", "MoveSet.random_valid_move"),
        ("repro.core.moves", "MoveSet.propose_move"),
    ),
    "plans.validity": (
        ("repro.plans.validity", "first_invalid_position"),
        ("repro.plans.validity", "random_valid_order"),
    ),
    "core.state": (
        ("repro.core.state", "Evaluator.evaluate"),
        ("repro.core.state", "Evaluator.evaluate_candidate"),
        ("repro.core.state", "Evaluator.commit_candidate"),
        ("repro.core.state", "DeltaEvaluator.evaluate"),
        ("repro.core.state", "DeltaEvaluator.evaluate_candidate"),
        ("repro.core.state", "DeltaEvaluator.commit_candidate"),
        ("repro.core.budget", "Budget.charge"),
    ),
    "core.augmentation": (("repro.core.augmentation", "augmentation_orders"),),
    "core.kbz": (("repro.core.kbz", "kbz_orders"),),
    "core.exact": (
        ("repro.core.exact", "hybrid_optimum"),
        ("repro.core.exact", "exact_optimum"),
    ),
    "robustness.verify": (("repro.robustness.verify", "verify_plan"),),
    "parallel.orchestrator": (
        ("repro.parallel.orchestrator", "multi_start_optimize"),
        ("repro.parallel.orchestrator", "map_jobs"),
    ),
    "workloads": (("repro.workloads.generator", "generate_query"),),
}

#: Modules ``optimize()`` may import lazily; loaded before patching so
#: every by-name import of a wrapped function can be rebound.
PRELOAD = (
    "repro",
    "repro.core.exact",
    "repro.core.combinations",
    "repro.parallel.orchestrator",
    "repro.robustness.resilience",
    "repro.robustness.verify",
    "repro.workloads.benchmarks",
)

#: Counters folded at the boundaries, beside the span fold.
COUNTERS = (
    "incremental_evaluations",
    "incremental_joins_walked",
    "incremental_joins_possible",
    "incremental_pruned",
    "state_evaluations",
    "units_charged",
    "join_order_constructed",
    "proposals",
    "valid_moves",
)

_EVALUATION_ENTRIES = frozenset(
    {"Evaluator.evaluate", "DeltaEvaluator.evaluate",
     "DeltaEvaluator.evaluate_candidate"}
)


_LIVE: "weakref.WeakSet[LayerTracer]" = weakref.WeakSet()
_FORK_HOOK: list[bool] = []


def _stop_in_forked_children(tracer: "LayerTracer") -> None:
    """Pool workers forked mid-run inherit the patches; keep them silent.

    Spans are recorded parent-side only.
    """
    _LIVE.add(tracer)
    if not _FORK_HOOK:
        os.register_at_fork(after_in_child=_silence_live_tracers)
        _FORK_HOOK.append(True)


def _silence_live_tracers() -> None:
    for tracer in list(_LIVE):
        tracer.active = False


class LayerTracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.layer_names = tuple(LAYERS)
        self.entry_names: list[str] = []
        self.entry_layer: list[int] = []
        self.active = False
        self.call_index = -1
        # Flat span storage: one slot per span in each array.
        self.span_entry = array("i")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = [-1]
        self._child_time = array("d")
        self._layer_depth = [0] * len(self.layer_names)
        self.calls = [0] * len(self.layer_names)
        self.busy_s = [0.0] * len(self.layer_names)
        self.self_s = [0.0] * len(self.layer_names)
        self.merge_s = 0.0
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._restore: list[tuple[object, str, object]] = []
        for layer_index, layer in enumerate(self.layer_names):
            for _, qualname in LAYERS[layer]:
                self.entry_names.append(qualname)
                self.entry_layer.append(layer_index)

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def _open(self, entry: int, counted: bool = True) -> int:
        index = len(self.span_entry)
        self.span_entry.append(entry)
        self.span_parent.append(self._stack[-1])
        self.span_call.append(self.call_index)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._child_time.append(0.0)
        self._stack.append(index)
        layer = self.entry_layer[entry]
        if counted:
            self.calls[layer] += 1
        self._layer_depth[layer] += 1
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.span_start[index] = start
        self.span_end[index] = end
        duration = end - start
        layer = self.entry_layer[self.span_entry[index]]
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.busy_s[layer] += duration
        own = duration - self._child_time[index]
        self.self_s[layer] += own
        if self.entry_names[self.span_entry[index]] == "multi_start_optimize":
            self.merge_s += own
        parent = self.span_parent[index]
        if parent >= 0:
            self._child_time[parent] += duration

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _wrap(self, fn, entry: int, observe=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: a generator's work happens in
            # next(), not in the call that creates it.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if tracer.active:
                    tracer.calls[tracer.entry_layer[entry]] += 1
                try:
                    while True:
                        if not tracer.active:
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                        else:
                            index = tracer._open(entry, counted=False)
                            start = perf_counter()
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                            finally:
                                tracer._close(index, start, perf_counter())
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(entry)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, start, perf_counter())
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observer(self, qualname: str):
        counters = self.counters

        if qualname in ("IncrementalEvaluator.evaluate",
                        "IncrementalEvaluator.rebase"):
            def observe(args, result):
                cost, joins = result
                counters["incremental_evaluations"] += 1
                counters["incremental_joins_walked"] += joins
                counters["incremental_joins_possible"] += (
                    args[0].context.n_relations - 1
                )
                if cost is None:
                    counters["incremental_pruned"] += 1
            return observe
        if qualname == "Budget.charge":
            def observe(args, result):
                counters["units_charged"] += args[1]
            return observe
        if qualname in _EVALUATION_ENTRIES:
            def observe(args, result):
                counters["state_evaluations"] += 1
            return observe
        if qualname == "MoveSet.propose_move":
            def observe(args, result):
                counters["proposals"] += 1
            return observe
        if qualname == "MoveSet.random_valid_move":
            def observe(args, result):
                counters["valid_moves"] += 1
            return observe
        return None

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _set(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "LayerTracer":
        """Install the wrappers and record until ``__exit__``."""
        for module_name in PRELOAD:
            __import__(module_name)
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        entry = 0
        for layer in self.layer_names:
            for module_name, qualname in LAYERS[layer]:
                module = sys.modules[module_name]
                observe = self._observer(qualname)
                if "." in qualname:
                    class_name, method = qualname.split(".")
                    cls = getattr(module, class_name)
                    original = cls.__dict__[method]
                    self._set(cls, method, self._wrap(original, entry, observe))
                else:
                    original = getattr(module, qualname)
                    wrapper = self._wrap(original, entry, observe)
                    for holder in modules:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._set(holder, attr, wrapper)
                entry += 1
        self._count_join_orders()
        _stop_in_forked_children(self)
        self.active = True
        return self

    def _count_join_orders(self) -> None:
        from repro.plans.join_order import JoinOrder

        original = JoinOrder.__dict__["__init__"]
        counters = self.counters
        tracer = self

        @functools.wraps(original)
        def __init__(order, positions):
            if tracer.active:
                counters["join_order_constructed"] += 1
            original(order, positions)

        self._set(JoinOrder, "__init__", __init__)

    def __exit__(self, *exc_info: object) -> None:
        """Stop recording and restore every patched name."""
        self.active = False
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per-layer ``calls``/``busy_s``/``self_s``, keyed by layer name."""
        return {
            layer: {
                "calls": self.calls[i],
                "busy_s": self.busy_s[i],
                "self_s": self.self_s[i],
            }
            for i, layer in enumerate(self.layer_names)
        }

    def write_spans(self, path: str) -> int:
        """Write every span as one tab-separated line; returns the count."""
        with open(path, "w", encoding="utf-8") as sink:
            sink.write("span\tentry\tlayer\tparent\tcall\tstart\tend\n")
            for index in range(len(self.span_entry)):
                entry = self.span_entry[index]
                sink.write(
                    f"{index}\t{self.entry_names[entry]}\t"
                    f"{self.layer_names[self.entry_layer[entry]]}\t"
                    f"{self.span_parent[index]}\t{self.span_call[index]}\t"
                    f"{self.span_start[index]!r}\t{self.span_end[index]!r}\n"
                )
        return len(self.span_entry)
