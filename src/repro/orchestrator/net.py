"""TCP coordinator/worker transport: distribute a sweep with no shared state.

The :mod:`~repro.orchestrator.queue` transport needs a shared filesystem;
this module needs only a network.  A **coordinator** process
(``python -m repro serve``) owns the task set in memory — pending tasks,
leases with heartbeat deadlines, stale-lease reclamation and per-task retry
budgets, under the lease rules of :mod:`~repro.orchestrator.lease` that
the queue applies too — and speaks a JSON-lines protocol over TCP to two
kinds of clients:

* **workers** (``python -m repro worker --connect HOST:PORT``) claim tasks,
  heartbeat their leases while the simulation runs, stream back the
  :func:`~repro.orchestrator.transport.execute_payload` outcome, and
  reconnect with exponential backoff after coordinator or link failures;
* **submitters** (:class:`TcpTransport`, behind ``repro sweep --transport
  tcp --coordinator HOST:PORT``) enqueue the sweep's pending configs and
  poll for their results.  The transport survives a coordinator restart:
  on reconnect it re-submits every still-pending task (submission is
  idempotent — a result the restarted coordinator already holds is served
  immediately, anything lost is simply re-run).

Both backends build task and result payloads with
:mod:`~repro.orchestrator.lease`, so :func:`~repro.orchestrator.pool.
run_sweep` treats them identically: results are re-ordered into spec
order, cache and ledger writes are unchanged, and a TCP sweep's ledger is
byte-comparable with a ``--jobs 1`` run of the same spec.

Wire protocol (one JSON object per line, UTF-8):

* the server greets each connection with ``{"server": ..., "proto": 1,
  "nonce": ...}``;
* the client answers ``{"op": "hello", "role": "worker"|"submitter", ...}``
  carrying ``auth = HMAC-SHA256(secret, nonce)`` when the coordinator was
  started with a shared secret (the secret itself never crosses the wire);
* every subsequent line is one request → one ``{"ok": ...}`` response:
  ``submit`` / ``collect`` / ``workers`` for submitters, ``claim`` /
  ``heartbeat`` / ``result`` for workers, ``ping`` for everyone.
"""

from __future__ import annotations

import hmac
import json
import os
import socket
import socketserver
import threading
import time
import uuid
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from . import lease
from .lease import DEFAULT_LEASE_TTL, DEFAULT_POLL, DEFAULT_TASK_ATTEMPTS
from .queue import WorkerSummary, await_results, await_workers, worker_loop
from .transport import TransportItem

__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "CoordinatorClient",
    "CoordinatorServer",
    "HandshakeError",
    "TaskBoard",
    "TcpTransport",
    "fetch_status",
    "parse_address",
    "run_server",
    "run_tcp_worker",
]

#: Default port ``python -m repro serve`` listens on.
DEFAULT_PORT = 7643
#: Bumped when the wire protocol changes incompatibly.
PROTOCOL_VERSION = 1
#: How many tasks/result-ids travel in one protocol line (bounds line size).
_BATCH = 256
#: Reconnect backoff: first delay and cap, seconds.
_BACKOFF_FIRST = 0.2
_BACKOFF_MAX = 5.0

#: Seconds an uncollected result stays on the board before it is pruned —
#: the in-memory analog of ``repro queue-gc --ttl``.  Must be comfortably
#: larger than any sweep's duration: a submitter whose result is pruned
#: under it simply re-enqueues the task (wasteful, never incorrect).
DEFAULT_RESULT_TTL = 24 * 3600.0

SERVER_NAME = "repro-coordinator"


class HandshakeError(ConnectionError):
    """The coordinator rejected the handshake (bad secret, bad protocol).

    Deliberately **not** retried by workers or transports: reconnecting
    with the same credentials can never succeed, so surfacing the
    rejection immediately beats a silent backoff loop.
    """


def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``:PORT`` / ``PORT``) into a pair."""
    text = str(address).strip()
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = "", text
    host = host or "127.0.0.1"
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"invalid coordinator address {address!r}; expected HOST:PORT"
        ) from None


def _auth_token(secret: str, nonce: str) -> str:
    return hmac.new(secret.encode("utf-8"), nonce.encode("utf-8"),
                    "sha256").hexdigest()


# ---------------------------------------------------------------------------
# The coordinator-side task set
# ---------------------------------------------------------------------------

class TaskBoard:
    """In-memory task store applying the :mod:`~repro.orchestrator.lease`
    rules.

    Thread-safe: every protocol handler thread goes through one lock.  A
    task is *pending* (claimable), *leased* (owned by a worker, with a
    heartbeat deadline), or *done* (a result payload exists).
    """

    def __init__(self, lease_ttl: float = DEFAULT_LEASE_TTL,
                 result_ttl: float = DEFAULT_RESULT_TTL) -> None:
        self.lease_ttl = float(lease_ttl)
        self.result_ttl = float(result_ttl)
        self._lock = threading.Lock()
        #: task id -> task payload (kind/id/digest/config/attempt/...).
        self._tasks: Dict[str, Dict[str, Any]] = {}
        #: claimable task ids (subset of ``_tasks``).
        self._pending: set = set()
        #: task id -> (worker id, heartbeat deadline, leased-at stamp) —
        #: the last entry feeds the lease-age percentiles in ``stats()``.
        self._leases: Dict[str, Tuple[str, float, float]] = {}
        #: task id -> finished result payload (record or terminal error).
        self._results: Dict[str, Dict[str, Any]] = {}
        #: task id -> when its result was published / last collected, on
        #: the same monotonic clock as the lease deadlines.  Results older
        #: than ``result_ttl`` are pruned so a long-lived coordinator's
        #: memory is bounded by its active campaigns, not its history.
        self._result_times: Dict[str, float] = {}
        #: Lifetime op counters for ``stats()`` / the ``status`` op.
        self._counters: Dict[str, int] = {}
        self._counter_lock = threading.Lock()
        #: Monotonic stamps of recent completions (rolling throughput).
        self._completions: deque = deque(maxlen=4096)

    def note(self, name: str, amount: int = 1) -> None:
        """Bump a lifetime counter (safe with or without the board lock)."""
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    # -- submitter side -----------------------------------------------------

    def enqueue(self, task_id: str, config_dict: Dict[str, Any], digest: str,
                max_attempts: Optional[int] = DEFAULT_TASK_ATTEMPTS,
                options: Optional[Dict[str, Any]] = None) -> str:
        """Make ``task_id`` runnable; same contract as the queue's enqueue:
        ``"result-exists"`` / ``"pending"`` / ``"enqueued"``.  A lingering
        failed result is discarded and retried from a zeroed attempt count.
        """
        with self._lock:
            result = self._results.get(task_id)
            if result is not None and "record" in result:
                return "result-exists"
            if result is not None:
                del self._results[task_id]
                self._result_times.pop(task_id, None)
            if task_id in self._tasks:
                return "pending"
            self._tasks[task_id] = lease.new_task(
                task_id, config_dict, digest, max_attempts, options,
                time.time())
            self._pending.add(task_id)
        self.note("enqueued")
        return "enqueued"

    def collect(self, task_ids: Sequence[str]) -> List[Dict[str, Any]]:
        """Finished result payloads among ``task_ids`` (stateless: results
        stay on the board, so a reconnecting submitter can ask again)."""
        now = time.monotonic()
        with self._lock:
            found = [task_id for task_id in task_ids
                     if task_id in self._results]
            for task_id in found:
                self._result_times[task_id] = now
            return [dict(self._results[task_id]) for task_id in found]

    # -- worker side --------------------------------------------------------

    def claim(self, worker_id: str,
              now: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Lease the lowest-id pending task to ``worker_id``, or ``None``."""
        now = time.monotonic() if now is None else now
        with self._lock:
            if not self._pending:
                return None
            task_id = min(self._pending)
            self._pending.discard(task_id)
            self._leases[task_id] = (worker_id, now + self.lease_ttl, now)
            task = dict(self._tasks[task_id])
        self.note("claims")
        return task

    def heartbeat(self, worker_id: str, task_id: str,
                  now: Optional[float] = None) -> bool:
        """Extend the lease deadline; ``False`` if the lease is no longer
        this worker's (reclaimed, completed, or never claimed)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            held = self._leases.get(task_id)
            if held is None or held[0] != worker_id:
                return False
            # The leased-at stamp survives heartbeats: a lease's age is
            # measured from its claim, not its last proof of life.
            self._leases[task_id] = (worker_id, now + self.lease_ttl,
                                     held[2])
        self.note("heartbeats")
        return True

    def complete(self, worker_id: str, task_id: str,
                 outcome: Dict[str, Any]) -> str:
        """Consume a worker's ``execute_payload`` outcome.

        Returns the fate of the task, as decided by
        :func:`~repro.orchestrator.lease.settle`: ``"done"`` (result
        published), ``"retry"`` (re-enqueued with the attempt counter
        bumped) or ``"ignored"``.
        """
        with self._lock:
            held = self._leases.get(task_id)
            status, result, retry = lease.settle(
                task_id, self._tasks.get(task_id), worker_id,
                held is not None and held[0] == worker_id, outcome,
                self._results.get(task_id))
            if retry is not None:
                self._tasks[task_id] = retry
                del self._leases[task_id]
                self._pending.add(task_id)
                self.note("retries")
            elif result is not None:
                self._publish(task_id, result)
                self._tasks.pop(task_id, None)
                self._pending.discard(task_id)
                self._leases.pop(task_id, None)
                self.note("completed")
                if "error" in result:
                    self.note("exhausted")
            return status

    # -- shared: stale-lease recovery ---------------------------------------

    def reclaim_stale(self, now: Optional[float] = None) -> List[str]:
        """Recover leases whose heartbeat deadline passed, applying
        :func:`~repro.orchestrator.lease.expire` to each."""
        now = time.monotonic() if now is None else now
        reclaimed: List[str] = []
        with self._lock:
            for task_id, (_worker, deadline, _leased_at) in \
                    list(self._leases.items()):
                if deadline > now:
                    continue
                del self._leases[task_id]
                task, failure = lease.expire(task_id, self._tasks[task_id])
                if failure is None:
                    self._tasks[task_id] = task
                    self._pending.add(task_id)
                else:
                    self._publish(task_id, failure, now=now)
                    self._tasks.pop(task_id, None)
                    self.note("exhausted")
                reclaimed.append(task_id)
                self.note("reclaims")
            # Bounded memory for long-lived coordinators: results nobody
            # published or collected within result_ttl are dropped (the
            # in-memory analog of ``repro queue-gc``).
            for task_id, stamp in list(self._result_times.items()):
                if now - stamp > self.result_ttl:
                    self._results.pop(task_id, None)
                    del self._result_times[task_id]
        return reclaimed

    # -- introspection ------------------------------------------------------

    def stats(self, now: Optional[float] = None,
              window: float = 60.0) -> Dict[str, Any]:
        """The :func:`~repro.orchestrator.lease.board` block plus lifetime
        counters.  ``now`` is on the monotonic clock and injectable for
        tests."""
        now = time.monotonic() if now is None else now
        with self._lock:
            depth = lease.board(
                now, len(self._pending), len(self._results),
                [(task_id, worker, leased_at) for task_id,
                 (worker, _deadline, leased_at) in self._leases.items()],
                list(self._completions), window)
        with self._counter_lock:
            depth["counters"] = dict(self._counters)
        return depth

    # -- internals (call with the lock held) --------------------------------

    def _publish(self, task_id: str, payload: Dict[str, Any],
                 now: Optional[float] = None) -> None:
        now = time.monotonic() if now is None else now
        self._results[task_id] = payload
        self._result_times[task_id] = now
        self._completions.append(now)


# ---------------------------------------------------------------------------
# The coordinator server
# ---------------------------------------------------------------------------

class _Handler(socketserver.StreamRequestHandler):
    """One connection: greeting, handshake, then request/response lines."""

    server: "_TcpServer"

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        board = self.server.board
        nonce = uuid.uuid4().hex
        self._send({"server": SERVER_NAME, "proto": PROTOCOL_VERSION,
                    "nonce": nonce, "lease_ttl": board.lease_ttl})
        hello = self._recv()
        if hello is None or hello.get("op") != "hello":
            self._send({"ok": False, "error": "expected a hello"})
            return
        if int(hello.get("proto", 0)) != PROTOCOL_VERSION:
            self._send({"ok": False,
                        "error": f"protocol mismatch: coordinator speaks "
                                 f"{PROTOCOL_VERSION}"})
            return
        secret = self.server.secret
        if secret is not None:
            auth = str(hello.get("auth", ""))
            if not hmac.compare_digest(auth, _auth_token(secret, nonce)):
                self._send({"ok": False, "error": "handshake rejected: "
                                                  "bad shared secret"})
                return
        role = hello.get("role", "worker")
        worker_id = str(hello.get("worker") or f"tcp-{nonce[:8]}")
        self._send({"ok": True, "server": SERVER_NAME,
                    "proto": PROTOCOL_VERSION, "lease_ttl": board.lease_ttl})
        if role == "worker":
            self.server.worker_connected(worker_id)
        try:
            while True:
                request = self._recv()
                if request is None:
                    return
                try:
                    response = self._dispatch(role, worker_id, request)
                except Exception as exc:  # defensive: never kill the server
                    response = {"ok": False, "error": repr(exc)}
                self._send(response)
        finally:
            if role == "worker":
                self.server.worker_gone(worker_id)

    # -- framing ------------------------------------------------------------

    def _send(self, payload: Dict[str, Any]) -> None:
        self.wfile.write(json.dumps(payload).encode("utf-8") + b"\n")

    def _recv(self) -> Optional[Dict[str, Any]]:
        try:
            line = self.rfile.readline()
        except OSError:
            return None
        if not line:
            return None
        try:
            data = json.loads(line)
        except ValueError:
            return None
        return data if isinstance(data, dict) else None

    # -- request dispatch ---------------------------------------------------

    def _dispatch(self, role: str, worker_id: str,
                  request: Dict[str, Any]) -> Dict[str, Any]:
        board = self.server.board
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "stats": board.stats()}
        if op == "workers":
            return {"ok": True, "workers": self.server.live_workers()}
        if op == "status":
            # One self-describing snapshot for ``repro status``: board
            # depth + lease ages + counters + throughput, plus the
            # connection-level worker view the board cannot see.
            board.reclaim_stale()
            return {"ok": True, "status": {
                "server": SERVER_NAME,
                "proto": PROTOCOL_VERSION,
                "lease_ttl": board.lease_ttl,
                "board": board.stats(),
                "workers": self.server.live_workers(),
                "stop": self.server.stop_workers_flag.is_set(),
            }}
        if op == "submit":
            board.reclaim_stale()
            statuses = {}
            for task in request.get("tasks", []):
                task_id = str(task["id"])
                statuses[task_id] = board.enqueue(
                    task_id, task.get("config", {}),
                    str(task.get("digest", "")),
                    max_attempts=task.get("max_attempts",
                                          DEFAULT_TASK_ATTEMPTS),
                    options=task.get("options"))
            return {"ok": True, "statuses": statuses}
        if op == "collect":
            board.reclaim_stale()
            results = board.collect([str(i) for i in request.get("ids", [])])
            return {"ok": True, "results": results}
        if op == "claim":
            if self.server.stop_workers_flag.is_set():
                # The TCP analog of the queue directory's STOP file:
                # workers exit at their next claim instead of idling out.
                board.note("stops_served")
                return {"ok": True, "task": None, "stop": True}
            board.reclaim_stale()
            task = board.claim(worker_id)
            return {"ok": True, "task": task}
        if op == "heartbeat":
            known = board.heartbeat(worker_id, str(request.get("id", "")))
            return {"ok": True, "known": known}
        if op == "result":
            status = board.complete(worker_id, str(request.get("id", "")),
                                    request.get("outcome", {}))
            return {"ok": True, "status": status}
        return {"ok": False, "error": f"unknown op {op!r}"}


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], board: TaskBoard,
                 secret: Optional[str]) -> None:
        super().__init__(address, _Handler)
        self.board = board
        self.secret = secret
        self.stop_workers_flag = threading.Event()
        self._workers_lock = threading.Lock()
        #: worker id -> number of open connections (connection liveness).
        self._worker_connections: Dict[str, int] = {}
        #: every open connection socket, so a stopping server can sever
        #: them — ``shutdown()`` alone only stops *accepting*; established
        #: connections would keep talking to a ghost coordinator.
        self._connections: set = set()

    def process_request(self, request, client_address) -> None:
        with self._workers_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._workers_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        with self._workers_lock:
            # Socket teardown order is immaterial: nothing downstream
            # observes it, and sockets are not sortable anyway.
            connections = list(self._connections)  # repro: lint-ok[D102]
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def worker_connected(self, worker_id: str) -> None:
        with self._workers_lock:
            self._worker_connections[worker_id] = (
                self._worker_connections.get(worker_id, 0) + 1)

    def worker_gone(self, worker_id: str) -> None:
        with self._workers_lock:
            count = self._worker_connections.get(worker_id, 0) - 1
            if count <= 0:
                self._worker_connections.pop(worker_id, None)
            else:
                self._worker_connections[worker_id] = count

    def live_workers(self) -> List[str]:
        with self._workers_lock:
            return sorted(self._worker_connections)


class CoordinatorServer:
    """The coordinator behind ``python -m repro serve``.

    Owns a :class:`TaskBoard` and serves it over TCP from a background
    thread; ``start()`` binds (``port=0`` picks a free port — read the
    actual one back from :attr:`address`), ``stop()`` shuts down.  Usable
    as a context manager, which is how the tests drive restart scenarios.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 secret: Optional[str] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 result_ttl: float = DEFAULT_RESULT_TTL) -> None:
        self.host = host
        self.port = int(port)
        self.secret = secret
        self.board = TaskBoard(lease_ttl=lease_ttl, result_ttl=result_ttl)
        self._server: Optional[_TcpServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            return (self.host, self.port)
        return self._server.server_address[:2]

    @property
    def endpoint(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "CoordinatorServer":
        if self._server is not None:
            raise RuntimeError("coordinator already started")
        self._server = _TcpServer((self.host, self.port), self.board,
                                  self.secret)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        # Sever live worker/submitter connections too: their reconnect
        # logic must kick in, exactly as after a coordinator crash.
        self._server.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._server = None
        self._thread = None

    def live_workers(self) -> List[str]:
        return self._server.live_workers() if self._server else []

    def stop_workers(self) -> None:
        """Tell every connected worker to exit at its next claim (the TCP
        analog of touching ``STOP`` in a queue directory)."""
        if self._server is not None:
            self._server.stop_workers_flag.set()

    def __enter__(self) -> "CoordinatorServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def run_server(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
               secret: Optional[str] = None,
               lease_ttl: float = DEFAULT_LEASE_TTL,
               result_ttl: float = DEFAULT_RESULT_TTL,
               ready: Optional[Callable[[str], None]] = None) -> int:
    """Blocking entry point for ``python -m repro serve``.

    Serves until interrupted (Ctrl-C / SIGTERM); ``ready`` is called once
    with the bound ``host:port`` endpoint.
    """
    server = CoordinatorServer(host=host, port=port, secret=secret,
                               lease_ttl=lease_ttl, result_ttl=result_ttl)
    server.start()
    if ready is not None:
        ready(server.endpoint)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 130
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# The protocol client
# ---------------------------------------------------------------------------

class CoordinatorClient:
    """One authenticated JSON-lines connection to a coordinator.

    ``request()`` is serialised by a lock, so a heartbeat thread can share
    the connection with the main loop — requests never interleave on the
    wire.  Connection-level failures surface as ``OSError`` for callers to
    retry; a rejected handshake raises :class:`HandshakeError` (terminal).
    """

    def __init__(self, address: Any, secret: Optional[str] = None,
                 role: str = "submitter", worker_id: Optional[str] = None,
                 timeout: float = 30.0) -> None:
        self.address = (parse_address(address)
                        if isinstance(address, str) else tuple(address))
        self.secret = secret
        self.role = role
        self.worker_id = worker_id
        self.timeout = float(timeout)
        self.lease_ttl = DEFAULT_LEASE_TTL
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._file: Any = None

    def connect(self) -> "CoordinatorClient":
        sock = socket.create_connection(self.address, timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handle = sock.makefile("rwb")
            greeting = json.loads(handle.readline() or b"null")
            if (not isinstance(greeting, dict)
                    or greeting.get("server") != SERVER_NAME):
                raise HandshakeError(
                    f"{self.address[0]}:{self.address[1]} is not a repro "
                    f"coordinator")
            hello: Dict[str, Any] = {"op": "hello", "proto": PROTOCOL_VERSION,
                                     "role": self.role}
            if self.worker_id:
                hello["worker"] = self.worker_id
            if self.secret is not None:
                hello["auth"] = _auth_token(self.secret,
                                            str(greeting.get("nonce", "")))
            handle.write(json.dumps(hello).encode("utf-8") + b"\n")
            handle.flush()
            reply = json.loads(handle.readline() or b"null")
            if not isinstance(reply, dict) or not reply.get("ok"):
                error = (reply or {}).get("error", "connection closed")
                raise HandshakeError(f"coordinator refused the handshake: "
                                     f"{error}")
            self.lease_ttl = float(reply.get("lease_ttl", DEFAULT_LEASE_TTL))
        except Exception:
            sock.close()
            raise
        self._sock, self._file = sock, handle
        return self

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request → one response; raises ``OSError`` on link failure."""
        with self._lock:
            if self._file is None:
                raise OSError("not connected")
            self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
            self._file.flush()
            line = self._file.readline()
            if not line:
                raise OSError("coordinator closed the connection")
            response = json.loads(line)
        if not isinstance(response, dict):
            raise OSError("malformed coordinator response")
        if not response.get("ok"):
            raise RuntimeError(f"coordinator error: "
                               f"{response.get('error', 'unknown')}")
        return response

    def close(self) -> None:
        with self._lock:
            for closer in (self._file, self._sock):
                try:
                    if closer is not None:
                        closer.close()
                except OSError:
                    pass
            self._file = self._sock = None

    def __enter__(self) -> "CoordinatorClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def fetch_status(address: Any, secret: Optional[str] = None,
                 timeout: float = 10.0) -> Dict[str, Any]:
    """One-shot ``status`` query against a live coordinator.

    Returns the coordinator's status document (board depth, lease ages,
    counters, throughput, connected workers); raises ``OSError`` /
    :class:`HandshakeError` like any other client operation.
    """
    client = CoordinatorClient(address, secret=secret, role="status",
                               timeout=timeout)
    client.connect()
    try:
        return client.request({"op": "status"})["status"]
    finally:
        client.close()


# ---------------------------------------------------------------------------
# The network worker — ``python -m repro worker --connect HOST:PORT``
# ---------------------------------------------------------------------------

class _TcpWorker:
    """The TCP side of :func:`~repro.orchestrator.queue.worker_loop`:
    connecting with exponential backoff, counting reconnects, replaying a
    result the link dropped, and the coordinator's stop broadcast."""

    def __init__(self, address: Any, secret: Optional[str],
                 summary: WorkerSummary, poll: float) -> None:
        self.address = address
        self.secret = secret
        self.summary = summary
        self.poll = poll
        self.stopped = False
        self.client: Optional[CoordinatorClient] = None
        #: (task_id, outcome) that could not be delivered before a disconnect.
        self.unsent: Optional[Tuple[str, Dict[str, Any]]] = None
        self.backoff = _BACKOFF_FIRST
        self.connected_before = False
        self.heartbeat_every = lease.heartbeat_interval(DEFAULT_LEASE_TTL)

    def claim(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        if self.client is None:
            try:
                self.client = CoordinatorClient(
                    self.address, secret=self.secret, role="worker",
                    worker_id=self.summary.worker_id).connect()
            except HandshakeError:
                raise  # terminal: the same credentials can never succeed
            except OSError:
                time.sleep(self.backoff)
                self.backoff = min(self.backoff * 2, _BACKOFF_MAX)
                return None
            self.backoff = _BACKOFF_FIRST
            self.heartbeat_every = lease.heartbeat_interval(
                self.client.lease_ttl)
            if self.connected_before:
                self.summary.reconnects += 1
            self.connected_before = True
        if self.unsent is not None:
            if self.complete(*self.unsent) != "undelivered":
                self.summary.replayed += 1
            return None
        try:
            response = self.client.request({"op": "claim"})
        except OSError:
            self.close()
            return None
        self.stopped = bool(response.get("stop"))
        task = response.get("task")
        if task is None:
            if not self.stopped:
                time.sleep(self.poll)
            return None
        return str(task["id"]), task

    def heartbeat(self, task_id: str) -> None:
        self.client.request({"op": "heartbeat", "id": task_id})

    def complete(self, task_id: str, outcome: Dict[str, Any]) -> str:
        self.unsent = (task_id, outcome)
        try:
            reply = self.client.request({"op": "result", "id": task_id,
                                         "outcome": outcome})
        except OSError:
            self.close()
            return "undelivered"
        self.unsent = None
        return str(reply.get("status", "done"))

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


def run_tcp_worker(address: Any,
                   secret: Optional[str] = None,
                   worker_id: Optional[str] = None,
                   poll: float = DEFAULT_POLL,
                   max_idle: Optional[float] = None,
                   max_tasks: Optional[int] = None,
                   progress: Optional[Callable[[str, Dict[str, Any]], None]]
                   = None,
                   checkpoint_dir: Optional[str] = None,
                   checkpoint_every: Optional[int] = None) -> WorkerSummary:
    """The ``python -m repro worker --connect HOST:PORT`` daemon: runs
    :func:`~repro.orchestrator.queue.worker_loop` against a coordinator
    and returns its summary.

    Any link failure — coordinator restart included — is answered by
    reconnecting with exponential backoff, re-sending an undelivered
    result first; a rejected handshake (:class:`HandshakeError`) is
    terminal.  TCP workers share nothing with the coordinator, so a
    sweep's checkpoint directory usually means something only when
    ``checkpoint_dir`` re-points it at storage the *workers* share.  The
    worker exits on the coordinator's stop broadcast
    (:meth:`CoordinatorServer.stop_workers`), after ``max_idle`` seconds
    without work (time spent disconnected counts as idle), or after
    ``max_tasks`` tasks.
    """
    summary = WorkerSummary(worker_id)
    return worker_loop(_TcpWorker(address, secret, summary, poll), summary,
                       max_idle, max_tasks, progress, checkpoint_dir,
                       checkpoint_every)


# ---------------------------------------------------------------------------
# The coordinator-side transport
# ---------------------------------------------------------------------------

class TcpTransport:
    """Execute pending configs through a TCP coordinator.

    Construct with the coordinator's ``HOST:PORT`` and pass to
    :func:`~repro.orchestrator.pool.run_sweep` (or use ``repro sweep
    --transport tcp --coordinator HOST:PORT``).  ``workers_expected`` makes
    the sweep wait until that many workers hold live connections before
    enqueueing, so a sweep against an idle coordinator fails fast instead
    of hanging; ``timeout`` bounds the whole wait for results.  A dropped
    connection — a coordinator restart included — is retried with backoff,
    and every still-pending task is re-submitted after the reconnect.
    """

    name = "tcp"

    def __init__(self, coordinator: Any,
                 secret: Optional[str] = None,
                 poll: float = DEFAULT_POLL,
                 max_attempts: Optional[int] = DEFAULT_TASK_ATTEMPTS,
                 workers_expected: int = 0,
                 worker_timeout: float = 60.0,
                 timeout: Optional[float] = None) -> None:
        self.coordinator = coordinator
        self.secret = secret
        self.poll = float(poll)
        self.max_attempts = max_attempts
        self.workers_expected = int(workers_expected)
        self.worker_timeout = float(worker_timeout)
        self.timeout = timeout

    def run(self, items: Sequence[TransportItem],
            options: Optional[Dict[str, Any]] = None
            ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        client = self._connect(deadline, first=True)
        try:
            if self.workers_expected > 0:
                await_workers(self, lambda: self._workers(client),
                              "connected to the coordinator",
                              "python -m repro worker --connect HOST:PORT")
            pending: Dict[str, int] = {
                lease.task_id(index, digest): index
                for index, _config, digest in items}
            tasks = [{
                "id": lease.task_id(index, digest),
                "digest": digest,
                "config": config.to_dict(),
                "max_attempts": self.max_attempts,
                **({"options": dict(options)} if options else {}),
            } for index, config, digest in items]
            self._submit(client, tasks)

            def ready() -> List[Tuple[str, Dict[str, Any]]]:
                nonlocal client
                try:
                    return self._collect(client, sorted(pending))
                except OSError:
                    client.close()
                    client = self._connect(deadline)
                    # The coordinator may have restarted and lost the
                    # board: re-submitting is idempotent and revives
                    # anything that was pending or in flight.
                    self._submit(client, [t for t in tasks
                                          if t["id"] in pending])
                    return []

            yield from await_results(self, pending, ready,
                                     lambda: self._workers(client), deadline)
        finally:
            client.close()

    # -- protocol helpers ---------------------------------------------------

    def _connect(self, deadline: Optional[float],
                 first: bool = False) -> CoordinatorClient:
        backoff = _BACKOFF_FIRST
        while True:
            try:
                return CoordinatorClient(self.coordinator, secret=self.secret,
                                         role="submitter").connect()
            except HandshakeError:
                raise
            except OSError as exc:
                if first:
                    host, port = (parse_address(self.coordinator)
                                  if isinstance(self.coordinator, str)
                                  else self.coordinator)
                    raise ConnectionError(
                        f"cannot reach the coordinator at {host}:{port} "
                        f"({exc}); start it with 'python -m repro serve "
                        f"--port {port}'") from exc
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"tcp sweep timed out after {self.timeout}s while "
                        f"reconnecting to the coordinator") from exc
                time.sleep(backoff)
                backoff = min(backoff * 2, _BACKOFF_MAX)

    def _submit(self, client: CoordinatorClient,
                tasks: Sequence[Dict[str, Any]]) -> None:
        for start in range(0, len(tasks), _BATCH):
            client.request({"op": "submit",
                            "tasks": list(tasks[start:start + _BATCH])})

    def _collect(self, client: CoordinatorClient, task_ids: Sequence[str]
                 ) -> List[Tuple[str, Dict[str, Any]]]:
        """``(task id, result payload)`` for the finished ``task_ids``."""
        results: List[Tuple[str, Dict[str, Any]]] = []
        for start in range(0, len(task_ids), _BATCH):
            response = client.request(
                {"op": "collect", "ids": list(task_ids[start:start + _BATCH])})
            results.extend((str(payload["id"]), payload)
                           for payload in response.get("results", []))
        return results

    def _workers(self, client: CoordinatorClient) -> List[str]:
        try:
            return list(client.request({"op": "workers"}).get("workers", []))
        except (OSError, RuntimeError):
            return []
