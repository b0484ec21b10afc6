"""Serving layer: one process, many terrains, batched queries — and a wire.

:class:`OracleService` registers packed oracle stores by terrain id —
every registration is a declarative :class:`TerrainSpec` — keeps an
LRU-bounded set of compiled tables resident, routes batched distance
and proximity queries per terrain, and exposes per-terrain
hit/load/latency counters.  ``TerrainSpec.max_resident_bytes`` pages
a store's pair/hash columns — every tile of a tiled store through one
shared pool — and reports the pool's ledger under ``paging``.

:mod:`~repro.serving.protocol` defines the newline-delimited-JSON wire
protocol, :mod:`~repro.serving.server` the asyncio TCP front-end with
per-terrain query coalescing and the ``SO_REUSEPORT`` multi-worker
fleet, and :mod:`~repro.serving.loadgen` the client plus open-/closed-
loop load generators used by tests and ``benchmarks/bench_serve.py``.
"""

from .server import (
    MutableSpec,
    OracleServer,
    ServerConfig,
    ThreadedServer,
    WorkerFleet,
    build_service,
    run_workers,
)
from .service import (
    MutableRegistration,
    OracleService,
    TerrainCounters,
    TerrainSpec,
)
from .workloads import (
    SCENARIOS,
    Workload,
    WorkloadError,
    generate_workload,
    read_workload,
    write_workload,
)

__all__ = [
    "MutableRegistration",
    "MutableSpec",
    "OracleServer",
    "OracleService",
    "ServerConfig",
    "TerrainCounters",
    "TerrainSpec",
    "ThreadedServer",
    "WorkerFleet",
    "build_service",
    "run_workers",
    "SCENARIOS",
    "Workload",
    "WorkloadError",
    "generate_workload",
    "read_workload",
    "write_workload",
]
