"""On-disk content-addressed cache of experiment results.

Every run is a pure function of its :class:`~repro.orchestrator.spec.RunConfig`
and the code that executes it, so results can be cached under a digest of
exactly those two inputs: ``sha256(canonical-json(config) + code version)``.
A warm cache turns a repeated sweep into a directory scan — re-generating a
table after editing only its formatting costs no simulation time — while a
version bump (or an explicit ``code_version`` override) invalidates every
entry at once without deleting anything.

Layout: ``<root>/<digest[:2]>/<digest>.json``, one JSON envelope per entry
(the two-character shard keeps directories small for multi-thousand-config
sweeps).  Entries are written atomically (temp file + ``os.replace``) so a
killed sweep never leaves a truncated entry behind; unreadable entries are
treated as misses.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .. import __version__
from ..telemetry import counter as _metric
from .fsutil import write_json_atomic
from .spec import RunConfig

__all__ = ["config_digest", "default_code_version", "ResultCache"]

PathLike = Union[str, Path]


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
        self.code_version = code_version or default_code_version()
        self.hits = 0
        self.misses = 0

    # -- addressing ---------------------------------------------------------

    def digest(self, config: RunConfig) -> str:
        """The digest this cache files ``config`` under."""
        return config_digest(config, self.code_version)

    def path_for(self, config: RunConfig) -> Path:
        """Where ``config``'s result lives (whether or not it exists yet)."""
        digest = self.digest(config)
        return self.root / digest[:2] / f"{digest}.json"

    # -- lookup -------------------------------------------------------------

    def __contains__(self, config: RunConfig) -> bool:
        return self.path_for(config).is_file()

    def get(self, config: RunConfig):
        """The cached record for ``config``, or ``None`` on a miss.

        Corrupt or mismatched entries count as misses: the sweep simply
        re-runs the config and overwrites them.
        """
        from ..io import records_from_dicts

        path = self.path_for(config)
        try:
            envelope = json.loads(path.read_text())
            if envelope.get("kind") != "sweep-cache-entry":
                raise ValueError("not a cache entry")
            record = records_from_dicts([envelope["record"]])[0]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            _metric("cache.misses").inc()
            return None
        self.hits += 1
        _metric("cache.hits").inc()
        return record

    def put(self, config: RunConfig, record) -> Path:
        """Store ``record`` under ``config``'s digest; returns the path."""
        from ..io import records_to_dicts

        path = self.path_for(config)
        envelope: Dict[str, Any] = {
            "kind": "sweep-cache-entry",
            "digest": self.digest(config),
            "code": self.code_version,
            "config": config.to_dict(),
            "record": records_to_dicts([record])[0],
        }
        # Atomic and durable (temp file + fsync + os.replace): on a shared
        # filesystem another machine may read the entry the moment it
        # appears.
        if path.is_file():
            # A concurrent writer beat us to this digest; the replace below
            # is still safe (both wrote the same pure-function result).
            _metric("cache.races").inc()
        _metric("cache.puts").inc()
        write_json_atomic(path, envelope)
        return path

    # -- bookkeeping --------------------------------------------------------

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters for this cache object's lifetime."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}
