"""Shared filesystem primitives for the orchestrator's on-disk state.

The result cache, the task queue and the ledger all coordinate concurrent
processes — possibly on different machines — through plain files, using
one of two publication idioms.

**Atomic replace** (:func:`write_json_atomic`, :func:`write_text_atomic`):
write to a hidden temp file in the target directory, ``fsync``, then
``os.replace``.  Readers see either nothing or the complete payload, never
a torn write, and the data is on stable storage before the name becomes
visible (a bare rename can survive a crash that the unsynced data behind
it does not).  The task queue, checkpoints and the dashboard publish this
way.

**Append-only lines** (:func:`append_line`): one ``write()`` of one
newline-terminated line on an ``O_APPEND`` descriptor, under an advisory
``flock`` where the platform provides one.  The run ledger and the result
cache are logs of such lines.  Readers consume only lines that end in
``\\n``, so a line still being written (or torn by a crash) is invisible
until it is whole.  The torn-tail rule: under the lock, an append to a
file whose last byte is not ``\\n`` first starts a new line, so a crash
mid-append costs exactly the one torn entry and never the next one glued
onto it.  Appends are not ``fsync``'d; durability is each log's own
contract (see :mod:`~repro.orchestrator.store` and
:mod:`~repro.orchestrator.cache`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

try:  # advisory locking is POSIX-only; the O_APPEND write stands alone
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = ["append_line", "read_json", "write_json_atomic",
           "write_text_atomic"]


def write_text_atomic(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` atomically and durably.

    The dashboard's ``--watch`` loop republishes through this, so a
    browser (or a tailing script) always reads a complete page, never a
    half-rendered one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_atomic(path: Path, payload: Dict[str, Any]) -> None:
    """Publish ``payload`` at ``path`` atomically and durably."""
    write_text_atomic(path, json.dumps(payload))


def read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Parse ``path`` as a JSON object; ``None`` if missing or unreadable."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def append_line(path: Path, line: bytes) -> int:
    """Append ``line`` (ending in ``\\n``) to ``path``; return the byte
    offset the line starts at.

    The parent directory must exist.  One ``write()`` on an ``O_APPEND``
    descriptor: the kernel advances the offset and writes atomically, so
    two processes appending at once never tear each other's lines on a
    local filesystem, and the ``flock`` keeps appends from different
    machines apart on filesystems with weaker append semantics.  Under the
    lock, a file whose last byte is not ``\\n`` (a writer crashed
    mid-append) gets a new line first.  Where locking is unsupported (some
    network mounts) the line is written as it is.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        data = line
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                pass  # locking unsupported: no safe look at the tail
            else:
                end = os.fstat(fd).st_size
                if end and os.pread(fd, 1, end - 1) != b"\n":
                    data = b"\n" + line
        os.write(fd, data)
        # After an O_APPEND write the descriptor sits at the end of it.
        return os.lseek(fd, 0, os.SEEK_CUR) - len(line)
    finally:
        os.close(fd)  # closing the descriptor releases the lock
