"""Append-only JSONL run ledger: the durable record of a sweep.

Every finished run — executed, cache-served or failed — is appended to the
ledger as one self-contained JSON line, so the file is valid after a crash
at any byte boundary except possibly its final line (which the reader
tolerantly skips).  Resuming an interrupted sweep is then just "skip every
config whose digest already has a ``done`` line".

The ledger is safe for **concurrent writers on a shared filesystem**: each
entry is encoded once and emitted by :func:`~repro.orchestrator.fsutil.
append_line`, the append helper the result cache shares — a single
``os.write`` on an ``O_APPEND`` descriptor (atomic with respect to the file
offset), under an advisory ``fcntl`` lock where the platform provides one
so that appends from different machines cannot interleave even on
filesystems with weaker append semantics.  This is what lets the queue
transport's coordinator and any number of concurrent sweeps share one
ledger file.  The torn-tail rule: an append after a torn final line (a
writer killed mid-append) starts a new line, so the crash costs the torn
entry alone and every later entry reads back whole.

Where the result cache is a memo that may lose entries, the ledger is the
record of what ran: resume, reports and the dashboard read it.  Like the
cache, it is not ``fsync``'d per line; a machine crash can lose the tail
the operating system had not yet written, and a resumed sweep re-runs
those configs.

The ledger stores full :class:`ExperimentRecord` payloads (via the
:mod:`repro.io` dictionary form), so a finished ledger doubles as the raw
data file behind a table or figure: ``RunLedger(path).records()`` feeds
straight into :mod:`repro.analysis.tables`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Union

from ..telemetry import counter as _metric
from .fsutil import append_line
from .spec import RunConfig

__all__ = ["LEDGER_KIND", "LedgerReader", "RunLedger"]

PathLike = Union[str, Path]

LEDGER_KIND = "sweep-run"


class LedgerReader:
    """Single-pass, torn-tail-tolerant stream over one ledger file.

    Iterating yields parsed ledger entries one line at a time — O(1)
    memory regardless of ledger size, which is what lets the streaming
    analysis layer (:mod:`repro.analysis.stream`) fold million-line
    ledgers without materialising them.

    Only lines terminated by a newline are consumed: a torn final line
    (a writer crashed mid-append — or is still appending right now) is
    left unread and :attr:`offset` stops just before it.  Iterating the
    same reader again resumes from :attr:`offset`, so the reader doubles
    as the follow-tail primitive: poll, drain, sleep, repeat, and the
    once-torn line is picked up whole on a later pass.

    Complete-but-unparseable lines and entries of a foreign ``kind`` are
    skipped (they belong to other tooling), but do advance the offset.
    """

    def __init__(self, path: PathLike, start: int = 0) -> None:
        self.path = Path(path)
        #: Byte position after the last *complete* line consumed.
        self.offset = int(start)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        try:
            handle = open(self.path, "rb")
        except OSError:
            return  # no ledger yet: a follow-tail simply polls again
        try:
            handle.seek(self.offset)
            while True:
                line = handle.readline()
                if not line or not line.endswith(b"\n"):
                    return  # EOF, or a torn tail: do not advance offset
                self.offset += len(line)
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    entry = json.loads(stripped)
                except ValueError:
                    continue  # complete but corrupt: skip, keep streaming
                if isinstance(entry, dict) and entry.get("kind") == LEDGER_KIND:
                    yield entry
        finally:
            handle.close()


class RunLedger:
    """Durable, append-only record of every run a sweep has finished."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)

    # -- writing ------------------------------------------------------------

    def append(self, digest: str, config: RunConfig, status: str,
               record_dict: Optional[Dict[str, Any]] = None,
               error: Optional[str] = None,
               elapsed: float = 0.0,
               attempts: Optional[int] = None) -> None:
        """Append one finished run; ``status`` is ``"done"`` or ``"failed"``.

        ``attempts`` records how many times this config has failed so far
        (cumulative across resumed sweeps); :func:`~repro.orchestrator.pool.
        run_sweep` uses it to cap retries on ``--resume``.
        """
        if status not in ("done", "failed"):
            raise ValueError(f"status must be 'done' or 'failed', got {status!r}")
        entry: Dict[str, Any] = {
            "kind": LEDGER_KIND,
            "digest": digest,
            "config": config.to_dict(),
            "status": status,
            "elapsed": round(float(elapsed), 6),
        }
        if record_dict is not None:
            entry["record"] = record_dict
        if error is not None:
            entry["error"] = error
        if attempts is not None:
            entry["attempts"] = int(attempts)
        line = (json.dumps(entry) + "\n").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_line(self.path, line)
        _metric("ledger.appends").inc()

    # -- reading ------------------------------------------------------------

    def iter_entries(self, start: int = 0) -> LedgerReader:
        """A streaming, torn-tail-tolerant :class:`LedgerReader` over the
        ledger, beginning at byte offset ``start``.

        Every reading method of this class goes through it, so no
        analysis path materialises the whole file; re-iterating the
        returned reader resumes where the previous pass stopped (the
        follow-tail idiom behind :func:`repro.analysis.stream.
        follow_entries`).
        """
        return LedgerReader(self.path, start=start)

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Parsed ledger lines, skipping blank or truncated ones."""
        return iter(self.iter_entries())

    def completed_digests(self) -> Set[str]:
        """Digests of configs that finished successfully (``done`` lines).

        Failed runs are deliberately excluded so a resumed sweep retries
        them.
        """
        return {entry["digest"] for entry in self.entries()
                if entry.get("status") == "done" and "digest" in entry}

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Map digest → latest ``done`` entry (with its record payload)."""
        done: Dict[str, Dict[str, Any]] = {}
        for entry in self.entries():
            if entry.get("status") == "done" and "digest" in entry:
                done[entry["digest"]] = entry
        return done

    def failures(self) -> Dict[str, Dict[str, Any]]:
        """Map digest → latest ``failed`` entry, with an ``attempts`` count.

        ``attempts`` is the larger of the count recorded on the entry and
        the number of failed lines seen for the digest, so ledgers written
        before attempts were recorded still count correctly.
        """
        failed: Dict[str, Dict[str, Any]] = {}
        seen: Dict[str, int] = {}
        for entry in self.entries():
            if entry.get("status") == "failed" and entry.get("digest"):
                digest = entry["digest"]
                seen[digest] = seen.get(digest, 0) + 1
                latest = dict(entry)
                latest["attempts"] = max(int(entry.get("attempts", 0)),
                                         seen[digest])
                failed[digest] = latest
        return failed

    def records(self) -> List:
        """All successfully-recorded :class:`ExperimentRecord` values, in
        first-completion order.

        Deduplicated by digest: a config that was completed in one sweep and
        served from the result cache in a later one appears in the ledger
        twice but counts as one measurement.  Entries with no digest (e.g.
        written by external tooling) cannot be identified as duplicates of
        anything, so each one is kept as its own measurement rather than
        silently collapsed.
        """
        from ..io import records_from_dicts

        dicts: Dict[str, Dict[str, Any]] = {}
        for position, entry in enumerate(self.entries()):
            if entry.get("status") == "done" and "record" in entry:
                key = entry.get("digest") or f"__undigested-{position}"
                dicts.setdefault(key, entry["record"])
        return records_from_dicts(dicts.values())

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
