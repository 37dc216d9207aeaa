"""Persistent tuning database.

Autotuning a (app, graph) pair costs real trial runs, so results are
persisted in a small JSON file keyed by a *fingerprint* of everything
that determines which configuration wins:

- the application name,
- the graph's identity — name, vertex/edge counts, and a content hash
  of its CSR arrays (a renamed copy of the same graph hits the same
  entry; a graph that changed under the same name does not),
- the set of kernel backends importable on this host (a database tuned
  where ``cnative`` compiles must not hand ``backend=cnative`` to a
  host without a C compiler).

Lookups are deterministic: the same app/graph/host always maps to the
same fingerprint and therefore the same stored config — a property the
``tune`` verification suite asserts.  Writes are atomic
(temp file + ``os.replace``) with sorted keys so concurrent readers
never see a torn file and diffs stay stable.

Writes are also **merge-safe across processes**: ``save()`` takes an
advisory ``flock`` on a ``<db>.lock`` sidecar, re-reads the file under
the lock, and overlays only the entries *this* process recorded before
writing.  Two concurrent ``repro tune`` runs sharing one database
therefore interleave instead of clobbering: last-writer-wins applies
per entry, never to the whole file.  On platforms without ``fcntl``
the lock degrades to the previous atomic-replace behaviour.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from typing import Any, Dict, Optional, Set

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

from repro.tune.config import TuneConfig

__all__ = ["TuneDB", "DB_ENV", "DEFAULT_DB_PATH", "graph_fingerprint"]

#: Environment variable naming the database file; the CLI's ``--db``
#: flag wins over it.
DB_ENV = "REPRO_TUNE_DB"

#: Database file used when neither ``--db`` nor ``$REPRO_TUNE_DB`` is
#: set (relative to the working directory, like a lockfile).
DEFAULT_DB_PATH = "tune.json"

#: Schema version of the on-disk format.
DB_VERSION = 1

#: ``TuneConfig`` fields earlier builds stored and this one dropped.
_RETIRED_FIELDS = frozenset({"relabel", "subwarp_limit", "block_limit"})


def _graph_content_hash(graph) -> str:
    """SHA-256 over the CSR arrays."""
    h = hashlib.sha256()
    h.update(graph.indptr.tobytes())
    h.update(graph.indices.tobytes())
    if graph.weights is not None:
        h.update(graph.weights.tobytes())
    return h.hexdigest()[:16]


def graph_fingerprint(app_name: str, graph,
                      backends: Optional[tuple] = None) -> str:
    """Deterministic database key for one (app, graph, host) triple."""
    if backends is None:
        from repro.native.backend import available_backends
        backends = available_backends()
    return "|".join([
        app_name, graph.name, str(graph.num_vertices), str(graph.num_edges),
        _graph_content_hash(graph), "+".join(sorted(backends)),
    ])


def resolve_db_path(path: Optional[str] = None) -> str:
    """``path`` if given, else ``$REPRO_TUNE_DB``, else the default."""
    if path is not None:
        return path
    return os.environ.get(DB_ENV) or DEFAULT_DB_PATH


def _drop_unreadable_entries(data: Any, path: str) -> None:
    """Remove entries an earlier build wrote that this one cannot read
    — a config naming a retired kernel backend or carrying a retired
    field — so an old entry is a plain miss instead of an "invalid
    tuning database".  Every other schema problem is left for
    ``validate_data`` to reject.
    """
    from repro.native.backend import BACKEND_NAMES
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, dict):
        return
    stale = [key for key, entry in entries.items()
             if isinstance(entry, dict)
             and isinstance(entry.get("config"), dict)
             and (entry["config"].get("backend")
                  not in (None, *BACKEND_NAMES)
                  or _RETIRED_FIELDS & entry["config"].keys())]
    for key in stale:
        del entries[key]
    if stale:
        print(f"note: {path}: ignoring {len(stale)} tuning entries "
              f"written by an earlier build (a kernel backend or "
              f"config field this build does not have); re-run "
              f"`repro tune`", file=sys.stderr)


class TuneDB:
    """The JSON tuning database: fingerprint -> best-known config."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = resolve_db_path(path)
        self.data: Dict[str, Any] = {"version": DB_VERSION, "entries": {}}
        #: Keys recorded by this instance and not yet saved — the only
        #: entries :meth:`save` is entitled to overwrite on disk.
        self._dirty: Set[str] = set()
        if os.path.exists(self.path):
            self.data = self._load(self.path)

    @staticmethod
    def _load(path: str) -> Dict[str, Any]:
        with open(path) as f:
            data = json.load(f)
        _drop_unreadable_entries(data, path)
        problems = TuneDB.validate_data(data)
        if problems:
            raise ValueError(
                f"invalid tuning database {path}: {problems[0]}")
        return data

    # -- queries -------------------------------------------------------

    @property
    def entries(self) -> Dict[str, Any]:
        return self.data["entries"]

    def lookup(self, app_name: str, graph) -> Optional[TuneConfig]:
        """Best-known config for this (app, graph, host), or None."""
        entry = self.entries.get(graph_fingerprint(app_name, graph))
        if entry is None:
            return None
        return TuneConfig.from_dict(entry["config"])

    def get_entry(self, app_name: str, graph) -> Optional[Dict[str, Any]]:
        """The full stored record (config + scores), or None."""
        return self.entries.get(graph_fingerprint(app_name, graph))

    # -- updates -------------------------------------------------------

    def record(self, app_name: str, graph, config: TuneConfig, *,
               score: float, baseline: float, trials: int) -> str:
        """Store the winning config for one pair; returns the key.

        ``score`` and ``baseline`` are the measured wall seconds of the
        tuned and default configurations; their ratio is the speedup
        the database claims.
        """
        key = graph_fingerprint(app_name, graph)
        self.entries[key] = {
            "app": app_name,
            "graph": graph.name,
            "config": config.to_dict(),
            "score": float(score),
            "baseline": float(baseline),
            "speedup": float(baseline / score) if score > 0 else 0.0,
            "trials": int(trials),
        }
        self._dirty.add(key)
        return key

    @contextlib.contextmanager
    def _write_lock(self):
        """Advisory exclusive lock on the ``<db>.lock`` sidecar (the
        DB file itself is replaced atomically, so it cannot carry the
        lock).  No-op where ``fcntl`` is unavailable."""
        if fcntl is None:  # pragma: no cover - non-POSIX hosts
            yield
            return
        fd = os.open(self.path + ".lock",
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def save(self) -> str:
        """Write the database: merge-safe under the advisory lock,
        atomic via temp file + ``os.replace``; returns the path.

        Under the lock the on-disk file is re-read and only the keys
        this instance :meth:`record`-ed are overlaid onto it, so a
        concurrent writer's fresh entries survive.
        """
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        with self._write_lock():
            if os.path.exists(self.path):
                try:
                    on_disk = self._load(self.path)
                except ValueError:
                    # A corrupt file must not brick the save; our
                    # in-memory view wins wholesale.
                    on_disk = None
                if on_disk is not None:
                    merged = dict(on_disk["entries"])
                    merged.update({k: self.entries[k]
                                   for k in self._dirty
                                   if k in self.entries})
                    self.data = {"version": DB_VERSION,
                                 "entries": merged}
            fd, tmp = tempfile.mkstemp(prefix=".tune-", suffix=".json",
                                       dir=directory)
            try:
                with os.fdopen(fd, "w") as f:
                    json.dump(self.data, f, indent=2, sort_keys=True)
                    f.write("\n")
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self._dirty.clear()
        return self.path

    # -- validation ----------------------------------------------------

    @staticmethod
    def validate_data(data: Any) -> list:
        """Schema problems of a parsed database (empty list = valid)."""
        problems = []
        if not isinstance(data, dict):
            return ["top level is not an object"]
        if data.get("version") != DB_VERSION:
            problems.append(
                f"version {data.get('version')!r} != {DB_VERSION}")
        entries = data.get("entries")
        if not isinstance(entries, dict):
            return problems + ["'entries' is not an object"]
        required = ("app", "graph", "config", "score", "baseline",
                    "speedup", "trials")
        for key, entry in entries.items():
            if not isinstance(entry, dict):
                problems.append(f"entry {key!r} is not an object")
                continue
            missing = [k for k in required if k not in entry]
            if missing:
                problems.append(
                    f"entry {key!r} missing {', '.join(missing)}")
                continue
            try:
                TuneConfig.from_dict(entry["config"])
            except (TypeError, ValueError) as exc:
                problems.append(f"entry {key!r} config invalid: {exc}")
        return problems

    def validate(self) -> list:
        return self.validate_data(self.data)
