"""Pluggable cache backends: a local directory or one sqlite file.

The campaign result store is split into a small *backend* protocol
(:class:`CacheBackend`) so one campaign API serves every deployment shape:

* :class:`DirectoryBackend` -- one JSON file per entry under a local
  directory (the original ``results/cache/`` layout, unchanged on disk);
* :class:`SqliteBackend` -- one sqlite file in WAL mode, safe for many
  concurrent reader and writer *processes* sharing a filesystem.

Keys are content hashes (see :func:`~repro.campaign.cache.cache_key`), so
entries are immutable once written: backends never need versioned
overwrites, and concurrent writers racing on the same key write identical
bytes.

Backends double as the coordination substrate for distributed draining:
:meth:`CacheBackend.try_claim` installs an atomic *lease record* for a
key (a worker's declaration "I am simulating this cell"), which expires
after a TTL so a crashed worker's cells are re-issued to its peers.
Completing a cell (:meth:`CacheBackend.put`) clears its lease.

Backends are addressed by URL (:func:`backend_from_url`)::

    dir://results/cache             local directory (the default)
    sqlite://results/cache.sqlite   one sqlite file

A bare path with no scheme is a directory backend.  URLs take no query
parameters.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..engine.results import RunResult
from ..errors import ConfigurationError


def _retry_locked(fn, attempts: int = 6, delay: float = 0.05):
    """Call ``fn``, retrying briefly on transient SQLITE_BUSY errors.

    sqlite's busy handler (the connect ``timeout``) covers most lock
    waits, but a few paths return "database is locked" immediately --
    notably the journal-mode switch while peers race to create the same
    fresh database, and write-upgrade deadlock avoidance.  Those resolve
    in milliseconds, so a bounded linear backoff is enough; anything
    else (or persistent contention) still raises.
    """
    for attempt in range(attempts):
        try:
            return fn()
        except sqlite3.OperationalError as exc:
            message = str(exc)
            if "locked" not in message and "busy" not in message:
                raise
            if attempt == attempts - 1:
                raise
            time.sleep(delay * (attempt + 1))


class CacheBackend:
    """The storage protocol behind :class:`~repro.campaign.cache.ResultCache`.

    Implementations store serialized :class:`RunResult` entries under
    content-addressed keys; the hit/miss/store tallies live in the
    :class:`~repro.campaign.cache.ResultCache` front-end.  The lease
    methods implement distributed work claiming; a backend that cannot
    coordinate writers may simply leave them unsupported, but both
    shipped backends implement them.
    """

    #: short human label, e.g. ``dir:results/cache`` (set by subclasses).
    label: str = "backend"

    # -- entries -------------------------------------------------------------

    def get(self, key: str) -> Optional[RunResult]:
        """Load the entry for ``key``, or ``None`` if absent or unreadable."""
        raise NotImplementedError

    def put(self, key: str, result: RunResult) -> None:
        """Atomically persist ``result`` and clear any lease on ``key``."""
        raise NotImplementedError

    def contains(self, key: str) -> bool:
        """Whether an entry exists, without loading it or tallying."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of entries currently stored."""
        raise NotImplementedError

    def clear(self) -> int:
        """Delete every entry (leases included); returns entries removed."""
        raise NotImplementedError

    # -- leases --------------------------------------------------------------

    def try_claim(self, key: str, owner: str,
                  ttl: float) -> Optional[str]:
        """Atomically install a lease on ``key`` for ``owner``.

        Returns ``"new"`` when the key was unclaimed, ``"expired"`` when
        an expired lease (a crashed or stalled worker) was taken over,
        ``"done"`` when the key is already stored (no lease is left
        behind), and ``None`` when a live lease is held by someone else.
        The stored check is part of the claim, so a cell finished between
        a worker's scans is never simulated twice.  Claims are idempotent
        for the same owner (refreshing the expiry).
        """
        raise NotImplementedError

    def release(self, key: str, owner: str) -> None:
        """Drop ``owner``'s lease on ``key`` (no-op if not held)."""
        raise NotImplementedError

    def lease_owner(self, key: str) -> Optional[str]:
        """The owner of a live lease on ``key``, or ``None``."""
        raise NotImplementedError


def _decode(text: str) -> Optional[RunResult]:
    try:
        return RunResult.from_json(text)
    except (ValueError, KeyError, TypeError):
        return None


class DirectoryBackend(CacheBackend):
    """One JSON file per entry under a local directory.

    This is the original ``ResultCache`` on-disk layout -- existing cache
    directories are readable unchanged.  Entries and ``<key>.lease`` JSON
    records are written to a temporary file and renamed into place, so a
    reader never sees half a file.  Every lease decision and lease write
    runs under an exclusive ``flock`` on the directory's ``.lock`` file:
    two claimants can never both win a key, and the kernel drops the lock
    when its holder dies, so a killed worker cannot wedge its peers.
    Sharing a directory between hosts needs a filesystem with working
    file locks.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.label = f"dir:{self.root}"

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.root / f"{key}.lease"

    def _write(self, path: Path, text: str) -> None:
        """Publish ``text`` at ``path`` atomically (tempfile + rename)."""
        tmp = path.with_name(
            f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the directory's claim lock for the ``with`` block."""
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".lock", "a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield  # closing the handle releases the lock

    def get(self, key: str) -> Optional[RunResult]:
        try:
            text = self.path_for(key).read_text(encoding="utf-8")
        except OSError:
            return None
        return _decode(text)

    def put(self, key: str, result: RunResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self._write(self.path_for(key), result.to_json())
        self.release(key, owner="*")

    def contains(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
            for pattern in ("*.lease", "*.tmp*"):
                for path in self.root.glob(pattern):
                    path.unlink()
        return removed

    # -- leases --------------------------------------------------------------

    def _read_lease(self, key: str) -> Optional[Dict[str, object]]:
        try:
            return json.loads(self._lease_path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def try_claim(self, key: str, owner: str, ttl: float) -> Optional[str]:
        with self._locked():
            if self.contains(key):
                # a lease left by a put that died before dropping it.
                self._lease_path(key).unlink(missing_ok=True)
                return "done"
            lease = self._read_lease(key)
            if lease is None or lease.get("owner") == owner:
                verdict = "new"  # unclaimed, or a refresh of our own lease
            elif lease.get("expires", 0) > time.time():
                return None
            else:
                verdict = "expired"
            self._write(self._lease_path(key), json.dumps(
                {"owner": owner, "expires": time.time() + ttl}))
            return verdict

    def release(self, key: str, owner: str) -> None:
        with self._locked():
            lease = self._read_lease(key)
            if lease is not None and owner in ("*", lease.get("owner")):
                self._lease_path(key).unlink(missing_ok=True)

    def lease_owner(self, key: str) -> Optional[str]:
        lease = self._read_lease(key)
        if lease is None or lease.get("expires", 0) <= time.time():
            return None
        return lease.get("owner")  # type: ignore[return-value]


class SqliteBackend(CacheBackend):
    """One sqlite file, safe for concurrent writer processes.

    WAL journaling lets readers proceed under a writer; every mutation is
    a single transaction, and lease claiming runs under ``BEGIN
    IMMEDIATE`` so the stored-entry check and the test-and-take-over of
    an expired lease are atomic across processes.  The connection is opened lazily and re-opened
    after a fork, so backends can be constructed in a parent and used in
    ``multiprocessing`` workers.
    """

    def __init__(self, path: Union[str, Path], timeout: float = 30.0) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.label = f"sqlite:{self.path}"
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None

    def _connect(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = _retry_locked(self._open)
            self._conn_pid = pid
        return self._conn

    def _open(self) -> sqlite3.Connection:
        # Retried by _connect: when several processes race to create the
        # same fresh database, the journal-mode switch and the schema
        # writes can return SQLITE_BUSY on paths that bypass the busy
        # handler, despite the connect timeout.
        conn = sqlite3.connect(self.path, timeout=self.timeout,
                               isolation_level=None)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("CREATE TABLE IF NOT EXISTS entries ("
                         "key TEXT PRIMARY KEY, body TEXT NOT NULL)")
            conn.execute("CREATE TABLE IF NOT EXISTS leases ("
                         "key TEXT PRIMARY KEY, owner TEXT NOT NULL, "
                         "expires REAL NOT NULL)")
        except BaseException:
            conn.close()
            raise
        return conn

    def get(self, key: str) -> Optional[RunResult]:
        row = self._connect().execute(
            "SELECT body FROM entries WHERE key = ?", (key,)).fetchone()
        return _decode(row[0]) if row is not None else None

    def put(self, key: str, result: RunResult) -> None:
        conn = self._connect()
        body = result.to_json()
        _retry_locked(lambda: conn.execute("BEGIN IMMEDIATE"))
        try:
            conn.execute("INSERT OR REPLACE INTO entries (key, body) "
                         "VALUES (?, ?)", (key, body))
            conn.execute("DELETE FROM leases WHERE key = ?", (key,))
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def contains(self, key: str) -> bool:
        row = self._connect().execute(
            "SELECT 1 FROM entries WHERE key = ?", (key,)).fetchone()
        return row is not None

    def __len__(self) -> int:
        if not self.path.is_file():
            return 0
        return self._connect().execute(
            "SELECT COUNT(*) FROM entries").fetchone()[0]

    def clear(self) -> int:
        if not self.path.is_file():
            return 0
        conn = self._connect()
        removed = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        _retry_locked(lambda: conn.execute("BEGIN IMMEDIATE"))
        try:
            conn.execute("DELETE FROM entries")
            conn.execute("DELETE FROM leases")
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return removed

    def close(self) -> None:
        """Close the underlying connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self._conn_pid = None

    # -- leases --------------------------------------------------------------

    def try_claim(self, key: str, owner: str, ttl: float) -> Optional[str]:
        conn = self._connect()
        now = time.time()
        _retry_locked(lambda: conn.execute("BEGIN IMMEDIATE"))
        try:
            stored = conn.execute("SELECT 1 FROM entries WHERE key = ?",
                                  (key,)).fetchone()
            row = conn.execute("SELECT owner, expires FROM leases "
                               "WHERE key = ?", (key,)).fetchone()
            if stored is not None:
                verdict: Optional[str] = "done"
            elif row is None:
                verdict = "new"
            elif row[0] == owner:
                verdict = "new"  # refresh own lease
            elif row[1] <= now:
                verdict = "expired"
            else:
                verdict = None
            if verdict in ("new", "expired"):
                conn.execute("INSERT OR REPLACE INTO leases "
                             "(key, owner, expires) VALUES (?, ?, ?)",
                             (key, owner, now + ttl))
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return verdict

    def release(self, key: str, owner: str) -> None:
        self._connect().execute(
            "DELETE FROM leases WHERE key = ? AND owner = ?", (key, owner))

    def lease_owner(self, key: str) -> Optional[str]:
        row = self._connect().execute(
            "SELECT owner, expires FROM leases WHERE key = ?",
            (key,)).fetchone()
        if row is None or row[1] <= time.time():
            return None
        return row[0]


def _parse_url(url: str) -> Tuple[str, str, List[str]]:
    """Split ``scheme://path?query`` into (scheme, path, parameter names).

    Done by hand, without urllib's path mangling.
    """
    if "://" in url:
        scheme, rest = url.split("://", 1)
    else:
        scheme, rest = "dir", url
    rest, _, query = rest.partition("?")
    if not rest:
        raise ConfigurationError(f"cache URL {url!r} has an empty path")
    names = sorted({item.partition("=")[0]
                    for item in query.split("&") if item})
    return scheme, rest, names


def backend_from_url(url: Union[str, Path]) -> CacheBackend:
    """Open the backend a cache URL names (see the module docstring).

    A bare path (no ``scheme://``) opens a :class:`DirectoryBackend`.
    """
    scheme, path, params = _parse_url(str(url))
    if params:
        raise ConfigurationError(
            f"cache URL {url!r}: unknown parameter {', '.join(params)} "
            f"(cache URLs take no parameters)")
    if scheme == "dir":
        return DirectoryBackend(path)
    if scheme == "sqlite":
        return SqliteBackend(path)
    raise ConfigurationError(
        f"unknown cache URL scheme {scheme!r} in {url!r} "
        f"(known: dir://, sqlite://)")
