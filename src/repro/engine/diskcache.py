"""Persistent on-disk verdict cache: one file per fingerprint.

The in-memory :class:`~repro.engine.cache.SolutionCache` dies with the
process, which wastes every verdict a daemon computed once it restarts
and makes the cache invisible to sibling processes.  :class:`DiskCache`
is the persistent sibling behind the same
:class:`~repro.engine.cache.CacheBackend` protocol:

* **layout** — one JSON file per verdict, named ``<fp-v2>.json`` (the
  fingerprint is already a fixed-width hex digest, so it doubles as a
  safe filename); the payload stores the verdict, the model as signed
  DIMACS literals, and the producing solver;
* **atomic writes** — each ``put`` writes a temp file in the cache
  directory and ``os.replace``\\ s it into place, so a concurrent reader
  (another engine process over the same directory) sees either the old
  file or the new one, never a torn write;
* **mtime LRU** — a ``get`` hit touches the file's mtime; when a ``put``
  pushes the entry count past ``max_entries`` the sweep unlinks the
  oldest-mtime files first, so the eviction order matches the in-memory
  LRU's semantics across process restarts;
* **self-healing** — an unreadable or corrupt entry (torn by a crash,
  truncated disk) is treated as a miss and unlinked, never an error.

The cache is safe for multiple processes on one host (atomic replace +
unlink tolerate racing sweeps); it deliberately does no locking — a lost
store or a double eviction only costs a future re-solve, never a wrong
answer, because the engine revalidates every served model.

**Degraded mode** — a failing disk (ENOSPC, EIO, a yanked mount) must
never raise out of ``put`` into the solve path: the verdict was already
computed, and losing persistence is strictly better than failing the
request.  On any ``OSError`` during a store the cache counts a
``stats.errors``, parks itself in a memory-only window
(``reprobe_interval`` seconds), and stores the verdict into a small
in-process :class:`~repro.engine.cache.SolutionCache` overlay instead;
``get`` consults the overlay after a disk miss, so verdicts stored while
degraded are still served.  After the window expires the next ``put``
re-probes the disk — a recovered filesystem promotes the cache back to
persistent operation automatically.  :meth:`health` reports the degraded
flag, the error count, and the overlay size for the daemon's ``health``
op.

**Replication hooks** — verdicts are content-addressed by fp-v2, which
makes cross-node cache replication idempotent by construction: merging
the same entry twice is a no-op, and two nodes that independently solved
the same instance produced byte-identical verdict files.  The cache
keeps an append-only journal (``_journal.log``, one fingerprint per
line; its name dodges the ``.json`` suffix so no entry scan counts it)
whose line count is a monotone **sync cursor**.  :meth:`entries_since`
streams entries past a cursor (the daemon's ``sync`` op),
:meth:`merge_entry` applies one replicated entry with the same
readable-or-absent integrity stance as ``get`` — and journals it, so
sync is transitive across chains of peers.  The journal is best-effort
like everything else here: a lost append only costs a peer a future
re-solve, never a wrong answer.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.cnf.assignment import Assignment
from repro.engine.cache import CacheEntry, CacheStats, SolutionCache
from repro.errors import CNFError

#: Suffix of finished entry files; temp files use a different one so the
#: sweep and ``__len__`` never count half-written entries.
_SUFFIX = ".json"
_TMP_SUFFIX = ".tmp"
#: Append-only fingerprint journal backing the sync cursor; the name
#: must not end in ``_SUFFIX`` so entry scans never count it.
_JOURNAL_NAME = "_journal.log"
#: Fingerprints are hex digests; anything else is not content-addressed
#: and (since they double as filenames) not safe to join into a path.
_FP_CHARS = frozenset("0123456789abcdef")


def _mtime(path: Path) -> float:
    """A file's mtime, oldest-first for one a racing sweep removed."""
    try:
        return path.stat().st_mtime
    except OSError:
        return float("-inf")


@dataclass
class DiskCache:
    """Fingerprint-keyed persistent verdict store (see module docstring).

    Args:
        directory: cache directory, created on first use.
        max_entries: capacity; oldest-mtime entries are swept first.
            ``0`` disables caching entirely (every get misses).
    """

    directory: str | Path
    max_entries: int = 4096
    stats: CacheStats = field(default_factory=CacheStats)
    #: Seconds a failed store parks the cache in memory-only mode before
    #: the next put re-probes the disk.
    reprobe_interval: float = 5.0

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Approximate entry count so the steady-state put path is O(1):
        # initialized from a scan on the first store, bumped per put
        # (overwrites inflate it, sibling processes drift it), and
        # resynced from a real scan whenever it crosses capacity.
        self._approx_count: int | None = None
        # Degraded-mode state: the monotonic instant until which stores
        # bypass the disk, and the lazily built in-memory overlay that
        # holds verdicts stored while degraded.  Mutated without a lock
        # like the rest of this class — the engine serializes cache
        # calls under its own narrow lock, and a racing double-build of
        # the overlay would only cost a lost store.
        self._degraded_until = 0.0
        self._overlay: SolutionCache | None = None
        # Cached journal line count (the sync cursor); None until first
        # read.  Best-effort like _approx_count: concurrent writers may
        # drift it and entries_since resyncs it from the file.
        self._journal_len: int | None = None

    # ------------------------------------------------------------------
    def _path(self, fp: str) -> Path:
        return self.directory / f"{fp}{_SUFFIX}"

    def _entry_paths(self) -> list[Path]:
        # Temp files end in a different suffix, so this never counts a
        # half-written entry.
        return [
            p for p in self.directory.iterdir() if p.name.endswith(_SUFFIX)
        ]

    # ------------------------------------------------------------------
    def get(self, fp: str) -> CacheEntry | None:
        """Look up a verdict, refreshing the file's mtime on a hit."""
        path = self._path(fp)
        try:
            raw = json.loads(path.read_text("utf-8"))
            if not isinstance(raw, dict) or raw.get("fp") != fp:
                # Not an entry at all, or a payload filed under the wrong
                # name (e.g. two writers racing): it must not serve
                # another instance's verdict — UNSAT entries are trusted
                # without revalidation.
                raise ValueError("not this fingerprint's entry")
            satisfiable = bool(raw["sat"])
            # Materialize the model inside the try: a malformed "lits"
            # value is one more corruption to self-heal, not a crash.
            assignment = (
                Assignment.from_literals(raw["lits"]) if satisfiable else None
            )
        except FileNotFoundError:
            return self._get_overlay(fp)
        except (OSError, ValueError, KeyError, TypeError, CNFError):
            # Torn or corrupt entry (including literals the Assignment
            # constructor rejects): drop it and report a miss.
            self._unlink(path)
            return self._get_overlay(fp)
        try:
            os.utime(path, None)            # refresh the LRU position
        except OSError:
            pass                            # raced with a sweep: still a hit
        self.stats.hits += 1
        return CacheEntry(
            fingerprint=fp,
            satisfiable=satisfiable,
            assignment=assignment,
            solver=raw.get("solver", ""),
        )

    def _get_overlay(self, fp: str) -> CacheEntry | None:
        """Disk-miss fallback: serve the degraded-mode overlay, if any."""
        if self._overlay is not None:
            entry = self._overlay.get(fp)
            if entry is not None:
                self.stats.hits += 1
                return entry
        self.stats.misses += 1
        return None

    def _put_overlay(
        self,
        fp: str,
        satisfiable: bool,
        assignment: Assignment | None,
        solver: str,
    ) -> None:
        if self._overlay is None:
            # Small on purpose: the overlay is a crutch for a failing
            # disk, not a second full cache tier.
            self._overlay = SolutionCache(
                max_entries=min(256, max(1, self.max_entries))
            )
        self._overlay.put(fp, satisfiable, assignment, solver)
        self.stats.stores += 1

    @property
    def degraded(self) -> bool:
        """Whether stores currently bypass the disk (memory-only window)."""
        return time.monotonic() < self._degraded_until

    def put(
        self,
        fp: str,
        satisfiable: bool,
        assignment: Assignment | None = None,
        solver: str = "",
    ) -> None:
        """Store a verdict atomically (no-op when capacity is 0).

        I/O failures degrade instead of raising: see the module
        docstring.  Only genuine programming errors (a satisfiable entry
        without a model) still raise.
        """
        if self.max_entries <= 0:
            return
        if satisfiable and assignment is None:
            raise ValueError("a satisfiable entry requires a model")
        lits = list(assignment.to_literals()) if satisfiable else None
        if self.degraded or not self._store(fp, satisfiable, lits, solver):
            # A full or failing disk must not fail the solve that already
            # produced this verdict: keep serving it from memory.
            self._put_overlay(fp, satisfiable, assignment, solver)

    def _store(
        self, fp: str, satisfiable: bool, lits: list | None, solver: str
    ) -> bool:
        """Write, journal and count one entry, sweeping past capacity
        (the only disk-write path).

        The entry goes to a temp file that ``os.replace`` moves into
        place.  The ``cache.put.io`` / ``cache.put.torn`` fault points
        live here: the first simulates ENOSPC before anything lands on
        disk, the second a writer crashing *after* publishing a
        truncated entry — the worst case the self-healing reader must
        absorb.  Returns False on an I/O error, which is counted and
        parks the cache in memory-only mode until the re-probe window
        expires.
        """
        payload = json.dumps(
            {"fp": fp, "sat": satisfiable, "lits": lits, "solver": solver}
        )
        try:
            if faults.fire("cache.put.io") is not None:
                raise OSError(errno.ENOSPC, "chaos: no space left on device")
            if faults.fire("cache.put.torn") is not None:
                self._path(fp).write_text(
                    payload[: max(1, len(payload) // 3)], encoding="utf-8"
                )
                raise OSError(errno.EIO, "chaos: torn write")
            # mkstemp guarantees a unique temp name even with many
            # writers (threads or processes) sharing one directory; the
            # os.replace into the final name is the atomic publish.
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".put-", suffix=_TMP_SUFFIX
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(payload)
                os.replace(tmp, self._path(fp))
            except BaseException:
                self._unlink(Path(tmp))
                raise
        except OSError:
            self.stats.errors += 1
            self._degraded_until = time.monotonic() + self.reprobe_interval
            return False
        self.stats.stores += 1
        self._journal_append(fp)
        if self._approx_count is None:
            self._approx_count = len(self._entry_paths())
        else:
            self._approx_count += 1
        # Only scan the directory when the (over-)estimate says we may be
        # past capacity; the scan resyncs the estimate either way.
        if self._approx_count > self.max_entries:
            self._sweep()
        return True

    def _sweep(self) -> None:
        """Unlink oldest-mtime entries until back under capacity."""
        paths = self._entry_paths()
        self._approx_count = len(paths)
        if len(paths) <= self.max_entries:
            return
        paths.sort(key=_mtime)
        for victim in paths[: len(paths) - self.max_entries]:
            if self._unlink(victim):
                self.stats.evictions += 1
                self._approx_count -= 1

    @staticmethod
    def _unlink(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # Replication: journal cursor, entry streaming, idempotent merge.

    @property
    def _journal_path(self) -> Path:
        return self.directory / _JOURNAL_NAME

    def _ensure_journal(self) -> None:
        """Bootstrap the journal for a pre-journal cache directory.

        A directory populated before replication existed has entries but
        no journal; seeding it (oldest mtime first, matching the LRU's
        notion of age) lets a new peer pull the whole backlog instead of
        only post-upgrade verdicts.
        """
        if self._journal_len is not None or self._journal_path.exists():
            return
        paths = self._entry_paths()
        if not paths:
            self._journal_len = 0
            return
        paths.sort(key=_mtime)
        fps = [p.name[: -len(_SUFFIX)] for p in paths]
        try:
            self._journal_path.write_text(
                "".join(fp + "\n" for fp in fps), encoding="utf-8"
            )
            self._journal_len = len(fps)
        except OSError:
            self._journal_len = 0

    def sync_cursor(self) -> int:
        """The journal's current length — a monotone replication cursor."""
        self._ensure_journal()
        if self._journal_len is None:
            try:
                with open(self._journal_path, encoding="utf-8") as fh:
                    self._journal_len = sum(1 for _ in fh)
            except OSError:
                self._journal_len = 0
        return self._journal_len

    def _journal_append(self, fp: str) -> None:
        """Record one stored fingerprint (best-effort: a failed append
        only hides this entry from peers, it never fails the store)."""
        self.sync_cursor()          # make sure the count is initialized
        try:
            with open(self._journal_path, "a", encoding="utf-8") as fh:
                fh.write(fp + "\n")
            self._journal_len += 1
        except OSError:
            pass

    def entries_since(self, cursor: int, *, limit: int = 256) -> tuple[int, list[dict]]:
        """One replication page: ``(next_cursor, entries)`` past *cursor*.

        Walks the journal, deduplicates fingerprints within the page,
        and materializes each one that is still readable — evicted,
        invalidated, or torn entries are silently skipped (the peer
        either already has them or never needed them).  A cursor past
        the journal's end (a peer that outlived a cleared cache) clamps
        to the end instead of erroring.
        """
        self._ensure_journal()
        try:
            with open(self._journal_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            lines = []
        self._journal_len = len(lines)
        cursor = max(0, int(cursor))
        if cursor >= len(lines):
            return len(lines), []
        end = min(len(lines), cursor + max(1, int(limit)))
        seen: set[str] = set()
        entries: list[dict] = []
        for raw_fp in lines[cursor:end]:
            fp = raw_fp.strip()
            if not fp or fp in seen:
                continue
            seen.add(fp)
            raw = self._load_raw(fp)
            if raw is not None:
                entries.append(raw)
        return end, entries

    def _load_raw(self, fp: str) -> dict | None:
        """Read one entry as its wire-able dict, or None if unreadable."""
        try:
            raw = json.loads(self._path(fp).read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict) or raw.get("fp") != fp or "sat" not in raw:
            return None
        sat = bool(raw["sat"])
        lits = raw.get("lits")
        if sat and not isinstance(lits, list):
            return None
        return {
            "fp": fp,
            "sat": sat,
            "lits": lits if sat else None,
            "solver": str(raw.get("solver", "")),
        }

    def merge_entry(self, entry: dict) -> bool:
        """Apply one replicated entry; True iff it landed as a new file.

        The fingerprint arrives off the wire and doubles as a filename,
        so anything that is not a plausible hex digest is rejected (a
        hostile ``../``-shaped "fingerprint" must not escape the cache
        directory).  Already-present entries are skipped — that is what
        makes blind re-merging of a re-pulled page idempotent.  Merged
        entries are journalled like local stores, so replication is
        transitive across chains of peers.
        """
        fp = entry.get("fp") if isinstance(entry, dict) else None
        if (
            not isinstance(fp, str)
            or not 8 <= len(fp) <= 256
            or not set(fp) <= _FP_CHARS
        ):
            return False
        sat = bool(entry.get("sat"))
        lits = entry.get("lits")
        if sat and (
            not isinstance(lits, list)
            or not lits
            or not all(isinstance(l, int) and l != 0 for l in lits)
        ):
            return False
        if self.max_entries <= 0 or self.degraded:
            return False
        if fp in self:
            return False
        return self._store(
            fp, sat, lits if sat else None, str(entry.get("solver", ""))
        )

    # ------------------------------------------------------------------
    def invalidate(self, fp: str) -> bool:
        """Drop one entry; returns whether it existed."""
        existed = self._unlink(self._path(fp))
        if existed and self._approx_count is not None:
            self._approx_count -= 1
        return existed

    def clear(self) -> None:
        """Drop every entry, plus any orphaned temp file a crashed
        writer left behind (statistics are kept).  The journal resets
        with the entries — peers holding an old cursor simply clamp."""
        for path in self.directory.iterdir():
            if path.name.endswith((_SUFFIX, _TMP_SUFFIX)):
                self._unlink(path)
        self._unlink(self._journal_path)
        self._journal_len = 0
        self._approx_count = 0

    def info(self) -> dict:
        """Entry count, on-disk bytes, and evictions (one stat pass;
        entries unlinked by a racing sweep simply don't count)."""
        entries = 0
        size = 0
        for path in self._entry_paths():
            try:
                size += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "backend": "disk",
            "entries": entries,
            "bytes": size,
            "evictions": self.stats.evictions,
        }

    def health(self) -> dict:
        """Degraded-mode flags for the daemon's ``health`` op."""
        return {
            "backend": "disk",
            "degraded": self.degraded,
            "errors": self.stats.errors,
            "overlay_entries": (
                len(self._overlay) if self._overlay is not None else 0
            ),
            "sync_cursor": self.sync_cursor(),
        }

    def __contains__(self, fp: str) -> bool:
        return self._path(fp).exists()

    def __len__(self) -> int:
        return len(self._entry_paths())
