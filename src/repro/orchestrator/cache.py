"""Content-addressed cache of experiment results, kept as one append-only log.

Every run is a pure function of its :class:`~repro.orchestrator.spec.RunConfig`
and the code that executes it, so results can be cached under a digest of
exactly those two inputs: ``sha256(canonical-json(config) + code version)``.
A warm cache turns a repeated sweep into index lookups — re-generating a
table after editing only its formatting costs no simulation time — while a
version bump (or an explicit ``code_version`` override) invalidates every
entry at once without deleting anything.

**Layout.**  ``<root>/cache.jsonl``, one JSON envelope per line with the
digest first, so every entry line starts ``{"digest":"<64 hex digits>",``
and then carries ``kind``, ``code``, ``config`` and ``record``.  Entries
are appended by :func:`~repro.orchestrator.fsutil.append_line`, the helper
the run ledger shares, so sweeps sharing a root append safely, as ledgers
do.  A digest can appear more than once (two sweeps raced to the same
config, or a corrupt entry was recomputed); its latest line wins.

**Index.**  One scan at the first :meth:`ResultCache.get` maps each digest
to the byte offset of its line.  The scan reads the digest at its fixed
offset and parses no JSON, so a small sweep against a large shared cache
pays one read of the file, not one parse per entry.  The index holds
offsets, never records.  A miss re-scans only the bytes appended since the
last scan, which finds entries another sweep has appended meanwhile.  Only
lines that end in ``\\n`` are indexed.  A lookup parses its one line and
checks ``kind`` and ``digest``; anything that fails the check is a miss.

**Durability.**  Entries are not ``fsync``'d.  The cache memoises a pure
function, so an entry lost or torn by a crash costs one recompute; the run
ledger (:mod:`~repro.orchestrator.store`) stays the durable record.  By
the torn-tail rule of ``append_line``, a torn final line costs exactly
that one entry: the next append starts a new line.

Entries of the earlier file-per-entry layout (``<root>/ab/<digest>.json``)
are not read; a root that holds only those serves no hits.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from .. import __version__
from ..telemetry import counter as _metric
from .fsutil import append_line
from .spec import RunConfig

if TYPE_CHECKING:
    from ..analysis.experiments import ExperimentRecord

__all__ = ["config_digest", "default_code_version", "ResultCache"]

PathLike = Union[str, Path]

#: The log's file name under the cache root.
LOG_NAME = "cache.jsonl"
#: The ``kind`` of every cache envelope.
ENTRY_KIND = "sweep-cache-entry"

#: Every entry line starts with these bytes, then its 64 hex digits.
_PREFIX = b'{"digest":"'
_DIGEST_END = len(_PREFIX) + 64


def default_code_version() -> str:
    """The package version, the default cache-invalidation token."""
    return __version__


def config_digest(config: RunConfig, code_version: str) -> str:
    """Stable hex digest identifying one (config, code version) result."""
    payload = {"config": config.to_dict(), "code": code_version}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of :class:`ExperimentRecord` results."""

    def __init__(self, root: PathLike, code_version: Optional[str] = None) -> None:
        self.root = Path(root)
        #: The append-only log every entry lives in.
        self.path = self.root / LOG_NAME
        self.code_version = code_version or default_code_version()
        self.hits = 0
        self.misses = 0
        #: digest -> byte offset of its latest complete line in the log.
        self._index: Dict[str, int] = {}
        #: How many bytes of the log the index covers.
        self._scanned = 0

    # -- addressing ---------------------------------------------------------

    def digest(self, config: RunConfig) -> str:
        """The digest this cache files ``config`` under."""
        return config_digest(config, self.code_version)

    def _scan(self) -> None:
        """Index the complete lines appended since the last scan."""
        offset = self._scanned
        try:
            if os.stat(self.path).st_size <= offset:
                return
            with open(self.path, "rb") as handle:
                handle.seek(offset)
                for line in handle:
                    if not line.endswith(b"\n"):
                        break  # torn or still being written: not yet whole
                    if (line.startswith(_PREFIX)
                            and line[_DIGEST_END:_DIGEST_END + 1] == b'"'):
                        digest = line[len(_PREFIX):_DIGEST_END]
                        self._index[digest.decode("latin-1")] = offset
                    offset += len(line)
        except OSError:
            pass  # no log yet, or it went away mid-scan
        self._scanned = offset

    def _entry(self, digest: str) -> Dict[str, Any]:
        """The envelope stored under ``digest``.

        Raises ``KeyError`` when no line is indexed for it, and
        ``OSError``, ``ValueError`` or ``KeyError`` when the line cannot be
        read, does not parse, or is not a cache entry for ``digest``.
        """
        offset = self._index.get(digest)
        if offset is None:
            self._scan()
            offset = self._index[digest]
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            envelope = json.loads(handle.readline())
        if (not isinstance(envelope, dict)
                or envelope.get("kind") != ENTRY_KIND
                or envelope.get("digest") != digest):
            raise ValueError("not a cache entry for this digest")
        return envelope

    # -- lookup -------------------------------------------------------------

    def __contains__(self, config: RunConfig) -> bool:
        try:
            self._entry(self.digest(config))
        except (OSError, ValueError, KeyError):
            return False
        return True

    def get(self, config: RunConfig) -> Optional["ExperimentRecord"]:
        """The cached record for ``config``, or ``None`` on a miss.

        Corrupt or mismatched entries count as misses: the sweep simply
        re-runs the config and appends a fresh entry, which supersedes them.
        """
        from ..io import records_from_dicts

        try:
            envelope = self._entry(self.digest(config))
            record = records_from_dicts([envelope["record"]])[0]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            _metric("cache.misses").inc()
            return None
        self.hits += 1
        _metric("cache.hits").inc()
        return record

    def put(self, config: RunConfig,
            record: Union["ExperimentRecord", Dict[str, Any]],
            digest: Optional[str] = None) -> None:
        """Append ``record`` under ``config``'s digest.

        ``record`` is an :class:`ExperimentRecord` or its :mod:`repro.io`
        dictionary form.  Callers that already hold the dictionary and
        ``digest`` (as :func:`~repro.orchestrator.pool.run_sweep` does)
        spare the cache re-encoding the record and re-hashing the config.
        """
        if digest is None:
            digest = self.digest(config)
        if not isinstance(record, dict):
            from ..io import records_to_dicts

            record = records_to_dicts([record])[0]
        envelope = {"digest": digest, "kind": ENTRY_KIND,
                    "code": self.code_version, "config": config.to_dict(),
                    "record": record}
        line = (json.dumps(envelope, separators=(",", ":")) + "\n").encode(
            "utf-8")
        if digest in self._index:
            # Another sweep (or this one) already stored this pure-function
            # result; the later line supersedes it with the same record.
            _metric("cache.races").inc()
        _metric("cache.puts").inc()
        try:
            offset = append_line(self.path, line)
        except FileNotFoundError:
            self.root.mkdir(parents=True, exist_ok=True)
            offset = append_line(self.path, line)
        self._index[digest] = offset

    # -- bookkeeping --------------------------------------------------------

    def __len__(self) -> int:
        """Distinct digests with an entry line in the log."""
        self._scan()
        return len(self._index)

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters for this cache object's lifetime."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}
