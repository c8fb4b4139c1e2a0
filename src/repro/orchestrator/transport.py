"""Pluggable sweep executors: where a config actually runs.

:func:`~repro.orchestrator.pool.run_sweep` resolves every config it can
from the ledger and the result cache first; whatever remains is handed to a
*transport*, an object with one method::

    run(items, options) -> iterator of (index, payload)

``items`` is a sequence of ``(index, config, digest)`` triples in spec
order; ``options`` is ``None`` or the execution options
(``checkpoint_every`` / ``checkpoint_dir``) that every shipped transport
hands to each run.  The transport may yield results in any completion
order — the pool reassembles spec order from the indices.  A payload is
the JSON-safe outcome dictionary produced by :func:`execute_payload`
(either a ``"record"`` or an ``"error"`` key, plus ``"elapsed"``), which
is exactly what queue workers write to result files and what pool workers
return over the process boundary.  Inline payloads, which never leave the
process, also carry live objects: the ``"live_record"`` the ``"record"``
dictionary was made from, or the ``"exception"`` behind an ``"error"``,
so the sweep neither parses the record back nor loses the exception type.

Four backends ship with the orchestrator:

* :class:`InlineTransport` — in the calling process, zero overhead, keeps
  the live record and the original exception object (the historical
  ``jobs=1`` path),
* :class:`ProcessTransport` — a ``multiprocessing`` pool on this machine
  (the historical ``jobs>1`` path),
* :class:`~repro.orchestrator.queue.QueueTransport` — a filesystem task
  queue served by ``python -m repro worker`` daemons on any machines that
  share the filesystem,
* :class:`~repro.orchestrator.net.TcpTransport` — a TCP coordinator
  (``python -m repro serve``) serving ``python -m repro worker --connect``
  daemons on machines that share nothing but a network.

:data:`TRANSPORTS` is the single registry behind all of this: its keys are
the names ``run_sweep(transport=...)`` and the CLI's ``--transport`` accept,
its values build the backend.  Registering a new transport here is all it
takes for the CLI choices, the error messages and :func:`resolve_transport`
to pick it up.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from ..io import records_to_dicts
from ..session import Session

__all__ = [
    "TRANSPORTS",
    "TRANSPORT_HELP",
    "InlineTransport",
    "ProcessTransport",
    "TransportItem",
    "execute_payload",
    "resolve_transport",
]

#: ``(spec index, config, digest)`` — the unit of work a transport executes.
TransportItem = Tuple[int, Any, str]


def execute_payload(config_dict: Dict[str, Any],
                    options: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """Run one serialised config; never raises.

    The shared worker body: process-pool workers call it across a pickle
    boundary, queue workers call it and write the returned payload to a
    result file.  Both sides therefore speak the same dialect.

    ``options`` carries execution options that are not part of the run's
    identity — ``checkpoint_every`` / ``checkpoint_dir`` — so a worker
    killed mid-run leaves a checkpoint the next lease holder resumes.  A
    resumed run reports the round it continued from as ``"resumed_round"``
    in the payload (ledger records ignore the extra key).
    """
    options = options or {}
    started = time.perf_counter()
    try:
        session = Session(
            config_dict,
            checkpoint_every=options.get("checkpoint_every"),
            checkpoint_dir=options.get("checkpoint_dir"))
        record = session.execute()
        payload: Dict[str, Any] = {
            "config": config_dict,
            "record": records_to_dicts([record])[0],
            "elapsed": time.perf_counter() - started,
        }
        if session.resumed_round is not None:
            payload["resumed_round"] = session.resumed_round
        return payload
    except Exception:
        return {
            "config": config_dict,
            "error": traceback.format_exc(),
            "elapsed": time.perf_counter() - started,
        }


def _indexed_payload(
        item: Tuple[int, Dict[str, Any], Optional[Dict[str, Any]]],
) -> Tuple[int, Dict[str, Any]]:
    """Pool worker: pairs each payload with the caller's index so results
    can be matched up regardless of completion order (top-level so it is
    picklable)."""
    index, config_dict, options = item
    return index, execute_payload(config_dict, options)


class InlineTransport:
    """Execute configs in the calling process, one at a time.

    The payloads additionally carry live objects that process boundaries
    cannot: the ``"exception"`` object, so ``SweepResult.raise_failures``
    can re-raise the original type (behaviour the serial front-ends rely
    on), and the ``"live_record"``, so the sweep uses the record itself
    instead of parsing its dictionary back.
    """

    name = "inline"

    def run(self, items: Sequence[TransportItem],
            options: Optional[Dict[str, Any]] = None
            ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        options = options or {}
        for index, config, _digest in items:
            started = time.perf_counter()
            try:
                session = Session(
                    config,
                    checkpoint_every=options.get("checkpoint_every"),
                    checkpoint_dir=options.get("checkpoint_dir"))
                record = session.execute()
                payload: Dict[str, Any] = {
                    "record": records_to_dicts([record])[0],
                    "live_record": record,
                    "elapsed": time.perf_counter() - started,
                }
                if session.resumed_round is not None:
                    payload["resumed_round"] = session.resumed_round
            except Exception as exc:
                payload = {
                    "error": traceback.format_exc(),
                    "exception": exc,
                    "elapsed": time.perf_counter() - started,
                }
            yield index, payload


class ProcessTransport:
    """Execute configs on a ``multiprocessing`` pool on this machine."""

    name = "process"

    def __init__(self, jobs: int = 2) -> None:
        self.jobs = max(1, int(jobs))

    def run(self, items: Sequence[TransportItem],
            options: Optional[Dict[str, Any]] = None
            ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        payloads = [(index, config.to_dict(), options)
                    for index, config, _ in items]
        with multiprocessing.Pool(
                processes=min(self.jobs, len(payloads))) as pool:
            results = pool.imap_unordered(_indexed_payload, payloads,
                                          chunksize=1)
            try:
                for index, payload in results:
                    yield index, payload
            except KeyboardInterrupt:
                pool.terminate()
                raise


# ---------------------------------------------------------------------------
# The transport registry
# ---------------------------------------------------------------------------

def _make_inline(jobs: int, **_options: Any) -> InlineTransport:
    return InlineTransport()


def _make_process(jobs: int, **_options: Any) -> ProcessTransport:
    return ProcessTransport(jobs=jobs)


def _make_queue(jobs: int, queue_dir: Any = None,
                **queue_options: Any) -> Any:
    if queue_dir is None:
        raise ValueError(
            "transport='queue' needs a queue directory: pass queue_dir= "
            "or construct repro.orchestrator.queue.QueueTransport directly")
    from .queue import QueueTransport

    return QueueTransport(queue_dir, **queue_options)


def _make_tcp(jobs: int, coordinator: Any = None,
              **tcp_options: Any) -> Any:
    if coordinator is None:
        raise ValueError(
            "transport='tcp' needs a coordinator address: pass "
            "coordinator='HOST:PORT' or construct "
            "repro.orchestrator.net.TcpTransport directly")
    from .net import TcpTransport

    return TcpTransport(coordinator, **tcp_options)


#: Name -> factory: the single source of truth for every transport the
#: orchestrator knows.  ``list(TRANSPORTS)`` (iteration yields the names)
#: is what the CLI exposes as ``--transport`` choices.
TRANSPORTS: Dict[str, Callable[..., Any]] = {
    "inline": _make_inline,
    "process": _make_process,
    "queue": _make_queue,
    "tcp": _make_tcp,
}

#: One-line description per transport, used to build the CLI help text.
TRANSPORT_HELP: Dict[str, str] = {
    "inline": "this process (the --jobs 1 default)",
    "process": "local multiprocessing pool (the --jobs N default)",
    "queue": "worker daemons watching a shared --queue-dir",
    "tcp": "worker daemons connected to a --coordinator HOST:PORT",
}


def resolve_transport(transport: Any = None, jobs: int = 1,
                      **options: Any) -> Any:
    """Turn a transport name (or ``None``) into a transport object.

    ``None`` preserves the historical behaviour: in-process for
    ``jobs <= 1``, a local worker pool otherwise.  Objects that already
    look like transports (anything with a ``run`` method) pass through, so
    callers can hand :func:`~repro.orchestrator.pool.run_sweep` a
    pre-configured :class:`~repro.orchestrator.queue.QueueTransport` or
    :class:`~repro.orchestrator.net.TcpTransport`.

    Unknown names raise ``ValueError`` up front, before any backend is
    constructed — a typo can never leave a half-built pool or an opened
    socket behind.  Backend-specific keywords (``queue_dir=``,
    ``coordinator=``, ``lease_ttl=`` …) are forwarded to the factory.
    """
    if transport is not None and not isinstance(transport, str):
        if hasattr(transport, "run"):
            return transport
        raise TypeError(f"not a transport: {transport!r}")
    name = transport or ("inline" if jobs <= 1 else "process")
    if name not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {name!r}; known: {list(TRANSPORTS)}")
    return TRANSPORTS[name](jobs=jobs, **options)
