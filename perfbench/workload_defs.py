"""The benchmark's workloads: which ``optimize()`` calls make up one pass.

A workload is a fixed list of call kinds (method, spec, N, cost model,
time factor, and for ``restarts`` the worker and restart counts).  Pass
``k`` of a run gives each call kind its own query and optimizer seed,
both derived from the benchmark seed, the workload name, ``k`` and the
call's slot.  So the same seed always yields the same inputs, every pass
holds the workload's whole N mix, and later passes add new queries.

Why each workload exists, and which layers it stresses, is recorded in
``README.md`` beside this file and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.catalog.serialization import query_to_dict
from repro.cost import DiskCostModel, MainMemoryCostModel
from repro.cost.bounds import lower_bound
from repro.workloads import benchmark_spec
from repro.workloads import generator

METHODS = ("II", "SA", "IAI", "AGI", "KBI", "EXACT")


@dataclass(frozen=True)
class CallKind:
    """One kind of ``optimize()`` call in a workload's pass."""

    method: str
    spec: int
    n_joins: int
    model: str  # "memory" or "disk"
    time_factor: float
    workers: int | None = None
    restarts: int | None = None

    @property
    def label(self) -> str:
        parallel = (
            f"/w{self.workers}r{self.restarts}" if self.restarts else ""
        )
        return (
            f"{self.method}/spec{self.spec}/N{self.n_joins}/{self.model}"
            f"/tf{self.time_factor:g}{parallel}"
        )


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[CallKind, ...]
    #: Configurations known to fail on the seed commit, run once outside
    #: the timed loop so their failures are reported, not hidden.
    probes: tuple[tuple[CallKind, int | None], ...] = ()


def _paper() -> tuple[CallKind, ...]:
    """Every method at N=20 on all three specs, then at N=50 and N=100.

    N=20 calls are cheap and vary most from query to query, so they get
    three specs per method; spec and model rotate over the rest.
    """
    methods = ("II", "SA", "IAI", "AGI", "KBI")
    specs = (0, 8, 9)
    models = ("memory", "disk")
    kinds = [
        CallKind(method, spec, 20, models[(m + s) % 2], 1.0)
        for m, method in enumerate(methods)
        for s, spec in enumerate(specs)
    ]
    for n, n_joins in enumerate((50, 100), start=1):
        for m, method in enumerate(methods):
            kinds.append(CallKind(method, specs[(n + m) % 3], n_joins,
                                  models[(n + m) % 2], 1.0))
    return tuple(kinds)


WORKLOADS: dict[str, Workload] = {
    "paper": Workload(
        "paper",
        _paper(),
    ),
    "large-walk": Workload(
        "large-walk",
        tuple(
            CallKind("II", 0, n_joins, "memory", 0.05)
            for n_joins in (200, 400, 200, 400)
        ),
    ),
    "large-heuristic": Workload(
        "large-heuristic",
        tuple(
            CallKind(method, 0, n_joins, "memory", tf)
            for n_joins in (200, 300)
            for method, tf in (
                ("AGI", 0.01), ("KBI", 0.05), ("IAI", 0.01), ("EXACT", 0.01),
            )
        ),
        probes=(
            # KBI raises BudgetExhausted at N>=200 with tf=0.01.
            (CallKind("KBI", 0, 200, "memory", 0.01), None),
            # EXACT's hybrid divides by zero on this pinned query.
            (CallKind("EXACT", 1, 400, "memory", 0.01), 7),
        ),
    ),
    "restarts": Workload(
        "restarts",
        (
            CallKind("II", 0, 100, "memory", 2.0, workers=2, restarts=4),
            CallKind("IAI", 8, 50, "disk", 9.0, workers=2, restarts=4),
        ),
    ),
}


def tiny(kind: CallKind) -> CallKind:
    """The same call shrunk for the smoke test (N/10, a workable budget)."""
    return CallKind(
        kind.method, kind.spec, max(6, kind.n_joins // 10), kind.model, 1.0,
        kind.workers, kind.restarts,
    )


def derive(*parts: object) -> int:
    """A 63-bit seed from the given parts (stable across processes)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


MODELS = {"memory": MainMemoryCostModel, "disk": DiskCostModel}


@dataclass(frozen=True)
class PlannedCall:
    """A call kind bound to its generated query, model and seeds."""

    kind: CallKind
    pass_index: int
    slot: int
    query: object
    model: object
    optimizer_seed: int
    lower_bound: float

    @property
    def graph(self):
        return self.query.graph


def make_call(
    kind: CallKind, query_seed: int, optimizer_seed: int,
    pass_index: int = 0, slot: int = 0,
) -> PlannedCall:
    # Looked up on the module at call time, so a traced run sees the
    # wrapped generator.
    query = generator.generate_query(
        benchmark_spec(kind.spec), kind.n_joins, seed=query_seed
    )
    model = MODELS[kind.model]()
    return PlannedCall(
        kind, pass_index, slot, query, model, optimizer_seed,
        lower_bound(query.graph, model),
    )


def plan_pass(
    workload: Workload, seed: int, pass_index: int, shrink: bool = False
) -> list[PlannedCall]:
    """Pass ``pass_index`` of ``workload`` under benchmark seed ``seed``."""
    calls = []
    for slot, kind in enumerate(workload.kinds):
        if shrink:
            kind = tiny(kind)
        calls.append(make_call(
            kind,
            derive(seed, workload.name, "query", pass_index, slot),
            derive(seed, workload.name, "optimizer", pass_index, slot),
            pass_index, slot,
        ))
    return calls


def plan_probes(workload: Workload, seed: int) -> list[PlannedCall]:
    """The workload's known-failure probes (pinned query seed, if any)."""
    return [
        make_call(
            kind,
            derive(seed, workload.name, "probe", slot)
            if query_seed is None else query_seed,
            derive(seed, workload.name, "probe-optimizer", slot),
            slot=slot,
        )
        for slot, (kind, query_seed) in enumerate(workload.probes)
    ]


def query_digest(query) -> str:
    """SHA-256 of a query's catalog and predicates (name and seed left out)."""
    data = query_to_dict(query)
    payload = {"relations": data["relations"], "predicates": data["predicates"]}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()

