"""Content-addressed on-disk cache for sweep results.

Every cache entry is keyed by a stable hash of the job's runner name, its
canonicalised parameters and a *code version* string, so that re-running a
sweep only executes the jobs whose results are not on disk yet, while any
bump of the package (or runner) version transparently invalidates stale
entries.  Entries are small JSON files laid out in two-level fan-out
directories (``ab/abcdef....json``) to keep directories shallow.

The cache is bounded: give :class:`ResultCache` a ``max_bytes`` budget (or
set ``REPRO_CACHE_MAX_MB`` in the environment) and the least-recently-used
entries are evicted whenever a ``put()`` pushes the store over budget.
Recency is tracked through entry mtimes, which ``get()`` refreshes on the
first hit per process (repeat hits skip the metadata write), so hot sweep
results survive while abandoned design points age out.
``prune()`` applies the same policy explicitly (also by entry count), and
the ``repro cache`` CLI sub-command exposes stats/clear/prune.  The replay
:class:`SidecarStore` under ``<directory>/replay/`` is the same kind of
store (one base class: budget, LRU, size, clear, lifetime counters) with
its own budget and counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import tempfile
import time
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.engine.spec import Job, params_key

PathLike = Union[str, pathlib.Path]

#: Shape of a valid content key (sha256 hex digest).  Key-addressed access
#: (the ``repro serve`` HTTP tier) validates against this before touching
#: the filesystem, so a malformed key can never escape the fan-out dirs.
KEY_PATTERN = re.compile(r"^[0-9a-f]{64}$")


def is_valid_key(key: object) -> bool:
    """Whether ``key`` is a well-formed content key (sha256 hex digest)."""
    return isinstance(key, str) and KEY_PATTERN.match(key) is not None


def _fanout_path(directory: pathlib.Path, key: str) -> pathlib.Path:
    if not is_valid_key(key):
        raise ValueError(f"malformed content key {key!r}")
    return directory / key[:2] / f"{key}.json"


def _read_fanout_entry(directory: pathlib.Path, key: str) -> Optional[dict]:
    """Raw JSON payload stored under ``key``, or ``None`` (best effort).

    Refreshes the entry's mtime on a hit so hot entries survive LRU
    eviction; corrupt entries are dropped so the next write can replace
    them.
    """
    path = _fanout_path(directory, key)
    try:
        with path.open("r") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise TypeError("entry payload must be a dict")
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, TypeError):
        try:
            path.unlink()
        except OSError:
            pass
        return None
    try:
        os.utime(path, None)
    except OSError:
        pass
    return payload


def _write_fanout_entry(directory: pathlib.Path, key: str,
                        payload: Mapping) -> Optional[pathlib.Path]:
    """Atomically store a raw payload under ``key`` (``None`` if unwritable)."""
    path = _fanout_path(directory, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    except OSError:
        return None
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(dict(payload), handle)
        os.replace(tmp_name, path)
    except (OSError, TypeError, ValueError):
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        return None
    return path


#: Environment variable holding the default cache size budget in megabytes.
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: Environment variable holding the default replay-sidecar size budget in
#: megabytes (schedule recordings are pure optimisations, so bounding them
#: costs only re-simulation, never correctness).
REPLAY_MAX_MB_ENV = "REPRO_REPLAY_MAX_MB"

#: Enforce the size budget only every this many writes, so large sweeps do
#: not pay a directory scan per job once the running estimate is warm.
_ENFORCE_EVERY_PUTS = 32

#: Per-process cap on the remembered set of mtime-refreshed entries; a sweep
#: touching more distinct entries than this simply refreshes them again.
_REFRESHED_KEYS_MAX = 65536

#: Automatic enforcement evicts down to this fraction of ``max_bytes`` (a
#: low-water mark), so a cache sitting at its budget does not re-trigger a
#: full prune scan on every subsequent write.
_LOW_WATER_FRACTION = 0.9

#: File (in a store's root, outside the ``??/`` entry fan-out)
#: accumulating its counters across instances, so ``repro cache stats`` can
#: report lifetime hit-rates and evictions after the sweeps that produced
#: them have exited.
_STATS_FILENAME = "_stats.json"

#: Lock file taken while merging ``_stats.json`` so concurrent writers (many
#: streaming sweeps sharing one cache directory) never interleave their
#: read-modify-write cycles and lose counter deltas.
_STATS_LOCK_FILENAME = "_stats.lock"

#: How often / how long to retry for the stats lock before giving up (the
#: stats merge is best-effort; a contended miss only defers the fold to the
#: next ``persist_stats()`` call).
_STATS_LOCK_ATTEMPTS = 50
_STATS_LOCK_SLEEP_S = 0.004

#: A lock file older than this is treated as leaked by a dead process and
#: broken (the merge itself takes well under a millisecond).
_STATS_LOCK_STALE_S = 10.0

#: Torn-read retries: a reader that finds ``_stats.json`` half-written
#: (non-POSIX filesystems without atomic replace) re-reads before zeroing.
_STATS_READ_ATTEMPTS = 3

#: Subdirectory of the cache root holding the content-addressed replay
#: sidecar (see :class:`SidecarStore`).  The name is deliberately longer
#: than the two-character entry fan-out dirs so the ``??/*.json`` entry
#: glob -- and therefore LRU eviction and ``clear()`` -- never touches it.
_SIDECAR_DIRNAME = "replay"


class _FanoutStore:
    """An LRU-bounded fan-out of JSON entries with lifetime counters.

    The shared mechanics of :class:`ResultCache` and :class:`SidecarStore`:
    entries live in two-level fan-out dirs under ``directory`` (the
    ``??/*.json`` glob below), ``max_bytes`` bounds them by least-recent
    mtime, and the counters named in ``_COUNTER_KEYS`` fold into a locked
    ``_stats.json`` in the store root so they outlive the instance.
    """

    #: Instance counters persisted by :meth:`persist_stats`.
    _COUNTER_KEYS: Tuple[str, ...] = ("evictions",)

    def __init__(self, directory: PathLike, code_version: str,
                 max_bytes: Optional[int]) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None for unlimited)")
        self.directory = pathlib.Path(directory).expanduser()
        self.code_version = code_version
        self.max_bytes = max_bytes
        self.evictions = 0
        self._approx_bytes: Optional[int] = None
        self._puts_since_enforce = 0
        #: Counter values already folded into the on-disk lifetime stats
        #: (so repeated ``persist_stats()`` calls never double-count).
        self._persisted = {key: 0 for key in self._COUNTER_KEYS}

    # ---------------------------------------------------------- management
    def _entry_paths(self) -> Iterator[pathlib.Path]:
        return self.directory.glob("??/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def size_bytes(self) -> int:
        """Total on-disk size of all entries (all code versions)."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Remove every entry (all code versions); returns the count removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._approx_bytes = 0
        return removed

    def _account_put(self, path: pathlib.Path) -> None:
        """Track the approximate store size and enforce the LRU budget."""
        if self.max_bytes is None:
            return
        try:
            entry_bytes = path.stat().st_size
        except OSError:
            entry_bytes = 0
        if self._approx_bytes is None:
            self._approx_bytes = self.size_bytes()
        else:
            self._approx_bytes += entry_bytes
        self._puts_since_enforce += 1
        if self._puts_since_enforce >= _ENFORCE_EVERY_PUTS:
            # Resync periodically: concurrent writers / external deletions
            # drift the running estimate.
            self._puts_since_enforce = 0
            self._approx_bytes = self.size_bytes()
        if self._approx_bytes > self.max_bytes:
            # Evict to the low-water mark, not to the exact budget: a store
            # hovering at max_bytes would otherwise pay a full prune scan on
            # every subsequent put.
            self.prune(max_bytes=max(1, int(self.max_bytes * _LOW_WATER_FRACTION)))

    def prune(self, max_bytes: Optional[int] = None,
              max_entries: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the store fits the limits.

        ``max_bytes`` defaults to the instance budget (``self.max_bytes``);
        ``max_entries`` additionally caps the entry count.  Entries of every
        code version compete in one LRU order -- a stale-version entry is
        never refreshed by ``get()``, so stale entries age out first.
        Returns the number of entries removed and folds it into the
        lifetime counters, so short-lived instances still report their
        prunes.
        """
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        if max_bytes is None and max_entries is None:
            return 0
        entries: List[Tuple[float, int, pathlib.Path]] = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda item: (item[0], str(item[2])))
        total_bytes = sum(size for _, size, _ in entries)
        total_entries = len(entries)
        removed = 0
        for _, size, path in entries:
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            over_count = max_entries is not None and total_entries > max_entries
            if not over_bytes and not over_count:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total_bytes -= size
            total_entries -= 1
            removed += 1
        self.evictions += removed
        self._approx_bytes = total_bytes
        if removed:
            self.persist_stats()
        return removed

    # ----------------------------------------------------------- telemetry
    def _stats_path(self) -> pathlib.Path:
        return self.directory / _STATS_FILENAME

    def _read_lifetime(self) -> Dict[str, int]:
        """The persisted lifetime counters (zeros when absent/corrupt).

        Retries a few times on a torn read (decode error) before zeroing:
        writers replace the file atomically on POSIX, but filesystems
        without atomic rename can expose a half-written file briefly, and
        zeroing on the first garbled read would silently discard the
        lifetime history.
        """
        for attempt in range(_STATS_READ_ATTEMPTS):
            try:
                with self._stats_path().open("r") as handle:
                    payload = json.load(handle)
                return {key: int(payload.get(key, 0))
                        for key in self._COUNTER_KEYS}
            except FileNotFoundError:
                break
            except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                    TypeError, ValueError):
                if attempt + 1 < _STATS_READ_ATTEMPTS:
                    time.sleep(_STATS_LOCK_SLEEP_S)
        return {key: 0 for key in self._COUNTER_KEYS}

    def _stats_lock_path(self) -> pathlib.Path:
        return self.directory / _STATS_LOCK_FILENAME

    def _acquire_stats_lock(self) -> bool:
        """Take the cross-process stats lock (O_EXCL create), best effort.

        Returns ``False`` when the lock stayed contended through every
        retry or the directory is unwritable -- callers then skip the merge
        and leave the deltas for the next ``persist_stats()`` call.  A lock
        file older than ``_STATS_LOCK_STALE_S`` is treated as leaked by a
        crashed process and broken.
        """
        lock = self._stats_lock_path()
        for attempt in range(_STATS_LOCK_ATTEMPTS):
            try:
                fd = os.open(str(lock), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                return True
            except FileExistsError:
                try:
                    if time.time() - lock.stat().st_mtime > _STATS_LOCK_STALE_S:
                        lock.unlink()
                        continue
                except OSError:
                    pass
                time.sleep(_STATS_LOCK_SLEEP_S)
            except OSError:
                return False
        return False

    def _release_stats_lock(self) -> None:
        try:
            self._stats_lock_path().unlink()
        except OSError:
            pass

    def persist_stats(self) -> None:
        """Fold this instance's unpersisted counters into the lifetime stats.

        Best effort (a read-only directory is not an error) and idempotent
        -- already-persisted counts are never folded in twice.  The
        read-modify-write cycle runs under a cross-process lock file so
        concurrent writers (streaming sweeps persisting from many workers
        at once) merge instead of overwriting each other; when the lock
        cannot be taken the deltas simply stay pending for the next call.
        """
        deltas = {key: getattr(self, key) - self._persisted[key]
                  for key in self._COUNTER_KEYS}
        if not any(deltas.values()):
            return
        if not self._acquire_stats_lock():
            return
        try:
            lifetime = self._read_lifetime()
            for key, delta in deltas.items():
                lifetime[key] += delta
            try:
                fd, tmp_name = tempfile.mkstemp(dir=str(self.directory),
                                                suffix=".tmp")
                with os.fdopen(fd, "w") as handle:
                    json.dump(lifetime, handle)
                os.replace(tmp_name, self._stats_path())
            except OSError:
                return
            self._persisted = {key: getattr(self, key)
                               for key in self._COUNTER_KEYS}
        finally:
            self._release_stats_lock()

    def lifetime_stats(self) -> Dict[str, object]:
        """Cross-process counters: persisted totals plus unpersisted deltas."""
        lifetime = self._read_lifetime()
        for key in self._COUNTER_KEYS:
            lifetime[key] += getattr(self, key) - self._persisted[key]
        return lifetime


class SidecarStore(_FanoutStore):
    """Content-addressed JSON store for derived artifacts next to a cache.

    Where :class:`ResultCache` stores final result *rows*, the sidecar
    stores reusable *intermediates* -- today the
    :class:`~repro.lap.fastpath.ScheduleTrace` replay headers that let a
    warm sweep point skip the scheduler loop entirely.  Keys hash a caller
    ``kind`` tag, an opaque ``material`` string (e.g. the canonicalised
    structural key of a schedule) and the cache's ``code_version``, so a
    version bump invalidates every sidecar record exactly like it
    invalidates result rows.

    All operations are best-effort: a read-only or corrupt sidecar degrades
    to misses, never to exceptions, because the artifacts it holds can
    always be recomputed.  The store is picklable via :meth:`config` /
    :meth:`from_config` so executors can ship it to worker processes.

    ``max_bytes`` bounds the store like the result cache's budget.
    ``None`` (the default) reads ``REPRO_REPLAY_MAX_MB`` from the
    environment; when that is also unset the store grows without bound.
    Evicting a record only costs a re-simulation on the next matching sweep
    point, so the budget trades disk for scheduler time.  Lifetime
    evictions persist in the sidecar root's own ``_stats.json``.
    """

    def __init__(self, directory: PathLike, code_version: str = "",
                 max_bytes: Optional[int] = None) -> None:
        super().__init__(directory, code_version,
                         max_bytes if max_bytes is not None
                         else env_replay_max_bytes())

    @classmethod
    def from_config(cls, config: Mapping) -> "SidecarStore":
        return cls(directory=config["directory"],
                   code_version=config.get("code_version", ""),
                   max_bytes=config.get("max_bytes"))

    def config(self) -> Dict[str, object]:
        """Picklable description, for shipping to worker processes."""
        return {"directory": str(self.directory),
                "code_version": self.code_version,
                "max_bytes": self.max_bytes}

    def key_for(self, kind: str, material: str) -> str:
        blob = f"{kind}\n{material}\n{self.code_version}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path_for(self, kind: str, material: str) -> pathlib.Path:
        return _fanout_path(self.directory, self.key_for(kind, material))

    def get(self, kind: str, material: str) -> Optional[dict]:
        """The stored payload, or ``None`` on miss/corruption (best effort)."""
        return _read_fanout_entry(self.directory, self.key_for(kind, material))

    def put(self, kind: str, material: str,
            payload: Mapping) -> Optional[pathlib.Path]:
        """Atomically store a payload; returns ``None`` when unwritable."""
        path = _write_fanout_entry(self.directory,
                                   self.key_for(kind, material), payload)
        if path is not None:
            self._account_put(path)
        return path


def _env_budget_bytes(env_name: str, label: str) -> Optional[int]:
    """A size budget in bytes from a ``<ENV>`` megabyte knob, or ``None``.

    An unparsable or non-positive value degrades to "no limit" with a
    warning, mirroring how the other engine environment knobs behave.
    """
    raw = os.environ.get(env_name)
    if raw is None or not raw.strip():
        return None
    import sys

    try:
        mbytes = float(raw)
    except ValueError:
        print(f"warning: {env_name}='{raw}' is not a number; "
              f"{label} size is unlimited", file=sys.stderr)
        return None
    if mbytes <= 0:
        print(f"warning: {env_name}={mbytes} is not positive; "
              f"{label} size is unlimited", file=sys.stderr)
        return None
    return int(mbytes * 1024 * 1024)


def env_max_bytes() -> Optional[int]:
    """Cache size budget from ``REPRO_CACHE_MAX_MB``, or ``None`` if unset."""
    return _env_budget_bytes(CACHE_MAX_MB_ENV, "cache")


def env_replay_max_bytes() -> Optional[int]:
    """Replay-sidecar budget from ``REPRO_REPLAY_MAX_MB``, or ``None``."""
    return _env_budget_bytes(REPLAY_MAX_MB_ENV, "replay sidecar")


def usable_cache_dir(cache_dir: Optional[PathLike],
                     label: str = "cache directory") -> Optional[str]:
    """Validate a cache directory, degrading to ``None`` with a warning.

    Creates the directory if needed; when that fails (path is a file,
    read-only filesystem, ...), prints a warning to stderr and returns
    ``None`` so callers can run uncached instead of crashing.
    """
    if cache_dir is None:
        return None
    import sys

    path = pathlib.Path(cache_dir).expanduser()
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"warning: {label} unusable ({exc}); running without cache",
              file=sys.stderr)
        return None
    return str(path)


def default_code_version() -> str:
    """Default cache namespace: the package plus runner versions.

    Bumping ``repro.__version__`` or any entry of
    :data:`repro.engine.runners.RUNNER_VERSIONS` invalidates every cache
    entry produced under the old version, so stale rows are never returned
    after runner code changes — including for callers that construct
    :class:`ResultCache` directly without passing ``code_version``.
    """
    from repro.engine.runners import code_fingerprint

    return code_fingerprint()


class ResultCache(_FanoutStore):
    """Content-addressed store of one JSON row per executed job.

    Parameters
    ----------
    directory:
        Root of the two-level fan-out store (created if missing).
    code_version:
        Cache namespace; defaults to the package + runner fingerprint.
    max_bytes:
        Size budget for LRU eviction.  ``None`` (the default) reads
        ``REPRO_CACHE_MAX_MB`` from the environment; when that is also
        unset the cache grows without bound and only explicit ``prune()``
        or ``clear()`` calls remove entries.
    """

    _COUNTER_KEYS = ("hits", "misses", "evictions")

    def __init__(self, directory: PathLike, code_version: Optional[str] = None,
                 max_bytes: Optional[int] = None) -> None:
        super().__init__(directory,
                         code_version if code_version is not None
                         else default_code_version(),
                         max_bytes if max_bytes is not None else env_max_bytes())
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Entry filenames whose mtime this process has already refreshed
        #: (bounded; cleared wholesale when full).
        self._refreshed: set = set()

    # ---------------------------------------------------------------- keys
    def key_for(self, job: Job) -> str:
        """Stable cache key of a job under the current code version."""
        return params_key(job.runner, job.params_dict, salt=self.code_version)

    def path_for(self, job: Job) -> pathlib.Path:
        key = self.key_for(job)
        return self.directory / key[:2] / f"{key}.json"

    # -------------------------------------------------------------- sidecar
    def sidecar(self) -> SidecarStore:
        """The cache's replay sidecar (``<directory>/replay/``).

        Shares the cache's ``code_version`` namespace, so bumping a runner
        version invalidates stored schedules together with result rows.
        The sidecar lives outside the ``??/`` entry fan-out and is exempt
        from LRU eviction, ``clear()`` and ``prune()``.
        """
        return SidecarStore(self.directory / _SIDECAR_DIRNAME,
                            code_version=self.code_version)

    def sidecar_config(self) -> Dict[str, str]:
        """Picklable sidecar description for worker processes."""
        return self.sidecar().config()

    # ------------------------------------------------------------- storage
    def get(self, job: Job) -> Optional[dict]:
        """The cached result row for ``job``, or ``None`` on a miss."""
        path = self.path_for(job)
        try:
            with path.open("r") as handle:
                payload = json.load(handle)
            row = payload["row"]
            if not isinstance(row, dict):
                raise TypeError("cache row must be a dict")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError):
            # A truncated, corrupt or foreign-format entry counts as a miss
            # and is dropped so the next put() can rewrite it.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        key = path.name
        if key not in self._refreshed:
            # Refresh the entry's mtime so LRU eviction keeps hot results --
            # but at most once per entry per process: the first hit already
            # marks the entry recently-used for any later eviction scan, and
            # skipping the rest spares one metadata write per hit (measured
            # ~10% of the warm hit path, and all of its disk churn, on
            # sweep re-runs that hit thousands of entries).
            try:
                os.utime(path, None)
            except OSError:
                pass
            if len(self._refreshed) >= _REFRESHED_KEYS_MAX:
                self._refreshed.clear()
            self._refreshed.add(key)
        return row

    def put(self, job: Job, row: Mapping) -> pathlib.Path:
        """Store the result row of an executed job (atomic write)."""
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "runner": job.runner,
            "params": job.params_dict,
            "code_version": self.code_version,
            "row": dict(row),
        }
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, default=str)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._account_put(path)
        return path

    def __contains__(self, job: Job) -> bool:
        return self.path_for(job).is_file()

    # ------------------------------------------------------- key-addressed
    def get_by_key(self, key: str) -> Optional[dict]:
        """The raw entry payload stored under a content key, or ``None``.

        Key-addressed access for tiers that receive pre-hashed keys (the
        ``repro serve`` HTTP daemon); the payload is the full stored
        document (``runner`` / ``params`` / ``code_version`` / ``row``),
        not just the row.  Counts as a hit/miss like :meth:`get`.
        """
        payload = _read_fanout_entry(self.directory, key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put_by_key(self, key: str, payload: Mapping) -> Optional[pathlib.Path]:
        """Store a raw entry payload under a content key (atomic write).

        Returns ``None`` when the directory is unwritable (key-addressed
        writes are best-effort: the writer computed the row anyway).  The
        entry participates in the LRU budget exactly like job-keyed writes.
        """
        path = _write_fanout_entry(self.directory, key, payload)
        if path is not None:
            self._account_put(path)
        return path

    # ----------------------------------------------------------- telemetry
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups this instance served from disk (0.0 if none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> Dict[str, object]:
        """This instance's live hit/miss counters (no directory scan).

        The cheap snapshot the executor attaches to every
        :class:`~repro.engine.executor.SweepResult`; use :meth:`stats` for
        the full picture including on-disk sizes.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def lifetime_stats(self) -> Dict[str, object]:
        """Cross-process counters (see :meth:`persist_stats`) plus hit rate.

        The executor persists after every run, so ``repro cache stats`` can
        report hit-rates across processes.
        """
        lifetime = super().lifetime_stats()
        total = lifetime["hits"] + lifetime["misses"]
        return {**lifetime,
                "hit_rate": lifetime["hits"] / total if total else 0.0}

    def stats(self) -> Dict[str, object]:
        """Hit/miss counters of this cache instance plus the on-disk size.

        ``hits`` / ``misses`` / ``hit_rate`` are this instance's live
        counters; the ``lifetime`` block aggregates them across every
        process that has used the directory (see :meth:`persist_stats`).
        """
        sidecar = self.sidecar()
        return {
            "directory": str(self.directory),
            "code_version": self.code_version,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "lifetime": self.lifetime_stats(),
            "entries": len(self),
            "size_bytes": self.size_bytes(),
            "max_bytes": self.max_bytes,
            "sidecar": {"entries": len(sidecar),
                        "size_bytes": sidecar.size_bytes(),
                        "max_bytes": sidecar.max_bytes,
                        "evictions": sidecar.lifetime_stats()["evictions"]},
        }
