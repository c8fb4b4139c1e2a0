"""repro.orchestrator — the parallel sweep execution subsystem.

Everything that turns a declarative experiment grid into records:

* :mod:`~repro.orchestrator.spec` — :class:`SweepSpec` → hashable
  :class:`RunConfig` lists,
* :mod:`~repro.orchestrator.cache` — content-addressed on-disk result cache,
* :mod:`~repro.orchestrator.pool` — :func:`run_sweep`, the cache-aware
  execution engine,
* :mod:`~repro.orchestrator.transport` — pluggable executors: in-process,
  local ``multiprocessing`` pool, a distributed filesystem queue, or a
  TCP coordinator for machines without any shared filesystem,
* :mod:`~repro.orchestrator.queue` — the filesystem task queue behind
  ``--transport queue`` and the ``python -m repro worker`` daemon,
* :mod:`~repro.orchestrator.net` — the TCP coordinator/worker layer behind
  ``--transport tcp``, ``python -m repro serve`` and
  ``python -m repro worker --connect``,
* :mod:`~repro.orchestrator.lease` — the lease, retry-budget and
  settlement rules both distributed backends apply,
* :mod:`~repro.orchestrator.store` — the append-only JSONL
  :class:`RunLedger` that makes interrupted sweeps resumable (and safe for
  concurrent writers on a shared filesystem),
* :mod:`~repro.orchestrator.report` — aggregation back into
  :mod:`repro.analysis.tables` / :mod:`repro.analysis.fitting`.

Typical use (what ``python -m repro sweep`` does)::

    from repro.orchestrator import SweepSpec, run_sweep

    spec = SweepSpec(algorithms=["dle", "erosion"],
                     families=["hexagon", "holey"],
                     sizes=[2, 4, 6], seeds=[0, 1, 2])
    result = run_sweep(spec, jobs=4, cache="results/cache",
                       ledger="results/ledger.jsonl", resume=True)
    records = result.records
"""

from .cache import ResultCache, config_digest, default_code_version
from .pool import (
    DEFAULT_JOBS,
    DEFAULT_MAX_ATTEMPTS,
    RunResult,
    SweepResult,
    run_sweep,
)
from .net import (
    CoordinatorClient,
    CoordinatorServer,
    TcpTransport,
    fetch_status,
    run_server,
    run_tcp_worker,
)
from .queue import FileTaskQueue, QueueTransport, WorkerSummary, run_worker
from .report import (
    format_sweep_scaling,
    format_sweep_summary,
    group_records,
    scaling_summaries,
)
from .spec import (
    ENGINES,
    SCHEDULER_ORDERS,
    RunConfig,
    SweepSpec,
    scaling_spec,
    table1_spec,
)
from .store import LedgerReader, RunLedger
from .transport import (
    TRANSPORT_HELP,
    TRANSPORTS,
    InlineTransport,
    ProcessTransport,
    resolve_transport,
)

__all__ = [
    "DEFAULT_JOBS",
    "DEFAULT_MAX_ATTEMPTS",
    "ENGINES",
    "SCHEDULER_ORDERS",
    "TRANSPORTS",
    "TRANSPORT_HELP",
    "CoordinatorClient",
    "CoordinatorServer",
    "FileTaskQueue",
    "InlineTransport",
    "ProcessTransport",
    "QueueTransport",
    "ResultCache",
    "RunConfig",
    "LedgerReader",
    "RunLedger",
    "RunResult",
    "SweepResult",
    "SweepSpec",
    "TcpTransport",
    "WorkerSummary",
    "config_digest",
    "default_code_version",
    "fetch_status",
    "format_sweep_scaling",
    "format_sweep_summary",
    "group_records",
    "resolve_transport",
    "run_server",
    "run_sweep",
    "run_tcp_worker",
    "run_worker",
    "scaling_spec",
    "scaling_summaries",
    "table1_spec",
]
