"""The content-addressed on-disk artifact store.

Market-scale vetting re-analyzes the same corpus again and again
(new sink rules, new detector versions, re-runs after crashes), yet the
per-app preprocessing — disassembly tokenization and the inverted-index
posting lists — is identical across runs as long as the app's bytecode
is unchanged.  This store persists those artifacts on disk so a second
batch run over an unchanged corpus restores each app's index instead of
rebuilding it, and (in ``"full"`` mode) restores the finished per-app
outcome instead of re-analyzing.

Artifacts are **sharded**: an app's token stream and posting lists are
split per class group (consecutive classes under one library prefix —
see :mod:`repro.store.sharding`), each shard is keyed by a sha256 of its
position-independent content, and the app entry stores a *manifest*
listing shard keys instead of a monolithic blob.  Two apps embedding the
same library therefore persist that library's artifacts exactly once,
and restoring an app composes its shards back into a byte-identical
token stream and index.

Layout (see ``docs/STORE_FORMAT.md`` for the full spec)::

    <root>/objects/<key[:2]>/<key>/
        manifest.json           ordered shard references + line offsets
        outcome-<config>.json   one finished batch outcome per config
    <root>/shards/<sha[:2]>/<sha>.bin
        one class group, v3 binary container (struct-packed sections;
        see :mod:`repro.store.binshard`): relative tokens + prefolded
        mini-index
    <root>/specmap/<fp[:2]>/<fp>.json
        app-spec fingerprint -> disassembly content key

Restores are **lazy**: a complete warm entry returns a
:class:`~repro.store.lazy.LazyTokenIndex` that mmaps each shard and
materializes a group's posting lists only when a query touches it, so
warm sessions pay decode cost proportional to the groups they query,
not to the app's size.

Concurrency: batch runs write from many pool processes at once.  Every
write goes to a same-directory temp file first and is published with an
atomic :func:`os.replace`, so concurrent readers only ever see absent or
complete entries — never a torn file.  Duplicate writers race benignly
(last rename wins; the content is identical by construction).

Corruption and staleness are handled by treating every unreadable,
version-mismatched or key-mismatched entry as a miss: the caller falls
back to a fresh build and overwrites the entry.  Entries written by
v2-era stores (JSON shards, version-2 manifests, outcomes and specmap
files) read as stale this way; ``gc`` sweeps their leftover JSON
shards.  A manifest pointing at
a *missing or corrupt shard* is patched in place when the caller holds
the disassembly (only the damaged groups are re-folded — incremental
re-indexing), and reads as a plain miss otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.dex.disassembler import Disassembly
from repro.search.backends.indexed import TokenIndex
from repro.store.binshard import (
    LazyShardView,
    ShardCorrupt,
    ShardStale,
    decode_shard,
    encode_shard,
)
from repro.store.lazy import DEFAULT_GROUP_CACHE, LazyTokenIndex
from repro.store.sharding import (
    KEY_VERSION,
    ShardGroup,
    compose_index,
    fold_group,
    partition_disassembly,
    shard_key,
    shard_payload,
    tokens_from_shard,
)

#: The *container* version every writer publishes.  v2 introduced the
#: shard/manifest layout with JSON shards; v3 re-encodes shards as the
#: mmap-friendly binary container.  v3 changed no logical content, so
#: content addresses still hash under
#: :data:`~repro.store.sharding.KEY_VERSION` and a v3 rebuild of a
#: v2-era entry lands at the same address.
FORMAT_VERSION = 3

#: Container versions the read path accepts.  Anything else — v1, v2,
#: or a future writer — reads as stale (a miss) and is rebuilt/swept.
COMPAT_VERSIONS = (FORMAT_VERSION,)


@dataclass
class StoreStats:
    """Hit/miss counters for one store root (one process's view).

    Shared by every :class:`ArtifactStore` handle on the same root in
    this process — configs hand out fresh handles per analysis, and a
    per-handle view would read as permanently zero to anything
    monitoring the aggregate (the service's ``/v1/stats``).  Counter
    bumps are single ``int`` operations, so sharing across worker
    threads is safe.
    """

    index_hits: int = 0
    index_misses: int = 0
    #: Index restores where some (not all) shards were present: the
    #: missing groups were re-folded and published, the rest composed
    #: from disk.
    partial_hits: int = 0
    outcome_hits: int = 0
    outcome_misses: int = 0
    #: Per-shard read results across all composed restores.
    shard_hits: int = 0
    shard_misses: int = 0
    #: Shards re-folded from a live disassembly to repair a partial
    #: entry (the incremental re-indexing path).
    shards_patched: int = 0
    #: Shards a save skipped because identical content was already
    #: published (by this app earlier, or by another app sharing the
    #: class group — the cross-app dedup counter).
    shards_shared: int = 0
    writes: int = 0
    #: Entries that existed but were unreadable or failed validation
    #: (torn JSON, wrong version, key mismatch) and fell back to a miss.
    corrupt_entries: int = 0
    #: Index hits served as a :class:`~repro.store.lazy.LazyTokenIndex`
    #: (mmapped binary shards; groups decode on first query).
    lazy_restores: int = 0
    #: Shard groups lazily decoded across every lazy restore, re-faults
    #: after LRU eviction included.
    groups_materialized: int = 0
    #: Decoded groups dropped by the lazy index's LRU bound (each later
    #: re-touch is a re-fault counted in ``groups_materialized``).
    group_cache_evictions: int = 0
    #: Specmap writes suppressed by an installed advisory guard (a
    #: cluster node that does not hold the specmap lease).
    specmap_writes_skipped: int = 0

    def as_dict(self) -> dict:
        """All counters as a JSON-able dict (service ``/v1/stats``)."""
        return {
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "partial_hits": self.partial_hits,
            "outcome_hits": self.outcome_hits,
            "outcome_misses": self.outcome_misses,
            "shard_hits": self.shard_hits,
            "shard_misses": self.shard_misses,
            "shards_patched": self.shards_patched,
            "shards_shared": self.shards_shared,
            "writes": self.writes,
            "corrupt_entries": self.corrupt_entries,
            "lazy_restores": self.lazy_restores,
            "groups_materialized": self.groups_materialized,
            "group_cache_evictions": self.group_cache_evictions,
            "specmap_writes_skipped": self.specmap_writes_skipped,
        }


@dataclass
class StoreInventory:
    """What ``describe`` reports: the on-disk shape of a store.

    Alongside raw entry/file counts, carries the cross-app dedup
    accounting: ``logical_shard_bytes`` is what the store would hold if
    every app persisted its shards privately (each manifest reference
    paid in full); ``shard_bytes`` is what sharing actually costs.
    """

    root: str
    entries: int = 0
    files_by_kind: dict[str, int] = field(default_factory=dict)
    total_bytes: int = 0
    #: Unique shard files on disk.
    shards: int = 0
    #: Bytes held by unique shard files.
    shard_bytes: int = 0
    #: Manifest -> shard references across all app entries (>= shards
    #: once any two apps share a class group).
    shard_refs: int = 0
    #: Bytes the referenced shards would occupy without dedup.
    logical_shard_bytes: int = 0

    @property
    def bytes_saved(self) -> int:
        """Bytes cross-app sharding avoided storing."""
        return max(0, self.logical_shard_bytes - self.shard_bytes)

    @property
    def dedup_ratio(self) -> float:
        """Logical over physical shard bytes (1.0 = no sharing yet)."""
        return (
            self.logical_shard_bytes / self.shard_bytes
            if self.shard_bytes
            else 1.0
        )

    def render(self) -> str:
        """A human-readable multi-line summary (``store stats``)."""
        lines = [
            f"store at {self.root}",
            f"  entries     : {self.entries}",
            f"  total bytes : {self.total_bytes}",
            f"  shards      : {self.shards} unique "
            f"({self.shard_refs} reference(s))",
            f"  shard bytes : {self.shard_bytes} "
            f"(logical {self.logical_shard_bytes}, "
            f"saved {self.bytes_saved})",
            f"  dedup ratio : {self.dedup_ratio:.2f}x",
        ]
        for kind in sorted(self.files_by_kind):
            lines.append(f"  {kind:11} : {self.files_by_kind[kind]} file(s)")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """The machine-readable snapshot (``store stats --json``)."""
        return {
            "root": self.root,
            "entries": self.entries,
            "files_by_kind": dict(self.files_by_kind),
            "total_bytes": self.total_bytes,
            "shards": self.shards,
            "shard_bytes": self.shard_bytes,
            "shard_refs": self.shard_refs,
            "logical_shard_bytes": self.logical_shard_bytes,
            "bytes_saved": self.bytes_saved,
            "dedup_ratio": self.dedup_ratio,
        }


@dataclass
class GcResult:
    """What one :meth:`ArtifactStore.gc` sweep removed."""

    entries_removed: int = 0
    shards_removed: int = 0
    bytes_reclaimed: int = 0


#: Warm-hit classification levels a probe can report, warmest first:
#: a finished outcome for the probed config beats a fully restorable
#: index (every shard present), which beats a partially restorable one
#: (some shards present; the rest are patched from the disassembly),
#: which beats nothing.
PROBE_LEVELS = ("outcome", "index", "partial", "none")

#: Levels the schedulers treat as warm (cheap enough for a fast lane).
#: A partial hit qualifies: composing the present shards and re-folding
#: only the missing groups is far cheaper than a cold build.
WARM_LEVELS = ("outcome", "index", "partial")


@dataclass(frozen=True)
class StoreProbe:
    """The warmest artifact level present for one content key."""

    key: str
    level: str
    #: Shard groups the entry's manifest references (0 when no manifest
    #: is published for the key).
    shards_total: int = 0
    #: How many of those shards are currently on disk.
    shards_present: int = 0

    @property
    def warm(self) -> bool:
        """Whether a scheduler should route this key to the fast lane."""
        return self.level in WARM_LEVELS


@dataclass(frozen=True)
class VerifyEntry:
    """One entry's verdict from :meth:`ArtifactStore.verify`.

    Failing statuses are ``mismatch`` (a shard's stored mini-index
    diverges from a re-fold of its own token stream, or its content
    hash no longer matches its name), ``corrupt`` (unreadable or
    key-mismatched payload) and ``missing-shard`` (the manifest
    references a shard that is gone — a live run patches it, so it is
    flagged rather than fatal).  ``no-index`` (outcome-only entry) and
    ``stale`` (older format version — the runtime load path treats
    these as harmless misses and rebuilds) are skips, not failures.
    """

    key: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True for passing and skip statuses (non-failures)."""
        return self.status in ("ok", "no-index", "stale")


def store_key(disassembly: Disassembly) -> str:
    """The content address of one app's disassembly (memoized).

    Hashes every plaintext line plus the :data:`KEY_VERSION`, so any
    bytecode change — or any change to the hashed content itself —
    yields a different key and naturally invalidates stale entries.
    The *container* version is deliberately absent: a container change
    (v2 JSON -> v3 binary) rebuilds entries at their old addresses.
    """
    cached = getattr(disassembly, "_store_key_cache", None)
    if cached is None:
        digest = hashlib.sha256()
        digest.update(f"backdroid-store-v{KEY_VERSION}\n".encode())
        # One join + one update: the C fast path.  A trailing newline
        # terminates the last line so "a", "b" never collides with
        # "a\nb" split differently.
        digest.update(
            ("\n".join(disassembly.lines) + "\n").encode(
                "utf-8", "surrogatepass"
            )
        )
        cached = digest.hexdigest()
        disassembly._store_key_cache = cached
    return cached


#: One shared StoreStats per store root per process (see StoreStats).
_STATS_BY_ROOT: dict[str, StoreStats] = {}

#: Advisory per-root predicates consulted before specmap writes.  A
#: cluster node installs one so only the lease holder publishes spec →
#: key mappings (see :mod:`repro.service.cluster`); the registry lives
#: at module level so every handle on the root — including ones
#: constructed inside forked cold workers — sees the same policy.
_SPECMAP_GUARDS: dict[str, Callable[[], bool]] = {}


def set_specmap_guard(
    root, guard: Optional[Callable[[], bool]] = None
) -> None:
    """Install (or clear, with ``guard=None``) a specmap write guard.

    The guard is called with no arguments just before each
    :meth:`ArtifactStore.save_spec_key` write on ``root``; returning
    False suppresses the write (counted as ``specmap_writes_skipped``).
    The predicate must rely on on-disk state only: cold worker
    processes forked after installation re-evaluate it independently.
    """
    key = os.path.abspath(str(root))
    if guard is None:
        _SPECMAP_GUARDS.pop(key, None)
    else:
        _SPECMAP_GUARDS[key] = guard


class ArtifactStore:
    """A content-addressed warm-start store rooted at one directory.

    Handles are cheap to construct and safe to build per process: all
    state lives on disk, and every publish is an atomic rename.
    """

    def __init__(
        self,
        root,
        group_cache: int = DEFAULT_GROUP_CACHE,
    ) -> None:
        """Open (lazily) the store rooted at ``root``; never touches
        disk until the first read or write.  ``group_cache`` bounds how
        many materialized groups each lazy restore keeps resident."""
        self.root = Path(root)
        self._group_cache = group_cache
        self.stats = _STATS_BY_ROOT.setdefault(
            os.path.abspath(str(self.root)), StoreStats()
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def entry_dir(self, key: str) -> Path:
        """The directory holding one app key's manifest and outcomes."""
        return self.root / "objects" / key[:2] / key

    def _manifest_path(self, key: str) -> Path:
        return self.entry_dir(key) / "manifest.json"

    def _shard_path(self, sha: str) -> Path:
        return self.root / "shards" / sha[:2] / f"{sha}.bin"

    def _shard_present(self, sha: str) -> bool:
        """Stat/size-only presence probe — never parses a payload.

        Advisory paths (scheduler probes, lazy restores) call this per
        shard; decoding there would make every probe cost O(shard
        bytes) instead of one ``stat``.
        """
        try:
            return self._shard_path(sha).stat().st_size > 0
        except OSError:
            return False

    def _outcome_path(self, key: str, config_fingerprint: str) -> Path:
        return self.entry_dir(key) / f"outcome-{config_fingerprint}.json"

    def _spec_path(self, spec_fingerprint: str) -> Path:
        return (
            self.root / "specmap" / spec_fingerprint[:2]
            / f"{spec_fingerprint}.json"
        )

    # ------------------------------------------------------------------
    # Raw I/O (atomic writes, torn-read tolerant reads)
    # ------------------------------------------------------------------
    def _write_json(self, path: Path, payload: dict) -> None:
        self._write_bytes(
            path,
            json.dumps(payload, separators=(",", ":")).encode(
                "utf-8", "surrogatepass"
            ),
        )

    def _write_bytes(self, path: Path, data: bytes) -> None:
        """Publish ``data`` at ``path`` via the atomic-rename path."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def _read_json(self, path: Path, key: str) -> Optional[dict]:
        """A validated payload, or None for missing/corrupt/stale entries."""
        status, payload = self._classify_payload(path, key)
        if status == "ok":
            return payload
        if status in ("corrupt", "stale"):
            self.stats.corrupt_entries += 1
        return None

    def _classify_payload(
        self, path: Path, key: str
    ) -> tuple[str, Optional[dict]]:
        """``(status, payload)`` distinguishing stale entries from rot.

        ``"ok"`` / ``"missing"`` / ``"corrupt"`` / ``"stale"`` — unlike
        :meth:`_read_json` (where every non-hit is simply a miss), the
        verifier must not report an *older-format* entry as corruption:
        the live load path rebuilds those harmlessly.
        """
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return "missing", None
        except (OSError, UnicodeDecodeError):
            return "corrupt", None
        try:
            payload = json.loads(raw)
        except ValueError:
            return "corrupt", None
        if not isinstance(payload, dict):
            return "corrupt", None
        if payload.get("version") not in COMPAT_VERSIONS:
            return "stale", None
        if payload.get("key") != key:
            return "corrupt", None
        return "ok", payload

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def _groups(self, disassembly: Disassembly) -> list[tuple[ShardGroup, str]]:
        """The disassembly's shard groups plus their content keys.

        Memoized on the disassembly: partitioning and hashing are paid
        once per app even when save/load/patch paths all run.
        """
        cached = getattr(disassembly, "_shard_groups_cache", None)
        if cached is None:
            cached = [
                (group, shard_key(group))
                for group in partition_disassembly(disassembly)
            ]
            disassembly._shard_groups_cache = cached
        return cached

    def _write_shard(self, group: ShardGroup, sha: str) -> dict:
        """Fold and publish one shard; returns its decoded payload."""
        payload = shard_payload(group, sha, FORMAT_VERSION)
        self._write_bytes(self._shard_path(sha), encode_shard(payload, sha))
        return payload

    def _publish_entry(self, disassembly: Disassembly) -> None:
        """Write any missing shards plus the app's manifest.

        A shard whose content key already exists on disk is *shared*,
        not rewritten: that is the cross-app dedup (the second app
        embedding a library publishes only its manifest reference).
        """
        key = store_key(disassembly)
        groups = self._groups(disassembly)
        for group, sha in groups:
            existing = self._shard_path(sha)
            if existing.is_file():
                self.stats.shards_shared += 1
                try:
                    # Refresh the shared shard's mtime so gc's age gate
                    # protects it while this entry's manifest is still
                    # in flight — a shard published long ago by another
                    # app is "fresh" again the moment a new writer
                    # relies on it.
                    os.utime(existing)
                except OSError:
                    pass  # racing gc: the load path patches it back
                continue
            self._write_shard(group, sha)
        self._write_json(self._manifest_path(key), self._manifest(key, groups))

    def _manifest(
        self, key: str, groups: list[tuple[ShardGroup, str]]
    ) -> dict:
        return {
            "version": FORMAT_VERSION,
            "key": key,
            "line_count": max(
                (g.end_line for g, _ in groups), default=0
            ),
            "token_count": sum(len(g.tokens) for g, _ in groups),
            "groups": [
                {
                    "shard": sha,
                    "label": group.label,
                    "start_line": group.start_line,
                    "line_count": group.line_count,
                    "tokens": len(group.tokens),
                }
                for group, sha in groups
            ],
        }

    def _read_manifest(
        self, key: str, advisory: bool = False
    ) -> Optional[dict]:
        """The validated manifest for ``key``, or None on any miss.

        Validates the group list shape (shard sha + start line per
        group) so downstream composition never indexes into garbage.
        ``advisory`` reads (probe/describe/gc classification) skip the
        ``corrupt_entries`` bump: that counter records *load-path*
        fall-back-to-miss events, and a scheduler probing one damaged
        manifest on every submission must not inflate it.
        """
        if advisory:
            status, payload = self._classify_payload(
                self._manifest_path(key), key
            )
            if status != "ok":
                return None
        else:
            payload = self._read_json(self._manifest_path(key), key)
            if payload is None:
                return None
        groups = payload.get("groups")
        valid = isinstance(groups, list) and all(
            isinstance(group, dict)
            and isinstance(group.get("shard"), str)
            and group["shard"]
            and isinstance(group.get("start_line"), int)
            for group in groups
        )
        if not valid:
            if not advisory:
                self.stats.corrupt_entries += 1
            return None
        return payload

    def _read_shard(self, sha: str) -> Optional[dict]:
        """A validated shard payload, or None (missing/corrupt/stale)."""
        status, payload = self._classify_shard(sha)
        if status in ("corrupt", "stale"):
            self.stats.corrupt_entries += 1
        return payload

    def _classify_shard(self, sha: str) -> tuple[str, Optional[dict]]:
        """``(status, payload)`` for the shard holding ``sha``.

        ``"ok"`` / ``"missing"`` / ``"corrupt"`` / ``"stale"``: a
        foreign container version reports ``"stale"`` (a live run
        rebuilds it), bit rot reports ``"corrupt"``.
        """
        try:
            data = self._shard_path(sha).read_bytes()
        except FileNotFoundError:
            return "missing", None
        except OSError:
            return "corrupt", None
        try:
            return "ok", decode_shard(data, sha)
        except ShardStale:
            return "stale", None
        except ShardCorrupt:
            return "corrupt", None

    # ------------------------------------------------------------------
    # Inverted-index artifacts
    # ------------------------------------------------------------------
    def save_index(
        self, disassembly: Disassembly, index: Optional[TokenIndex] = None
    ) -> None:
        """Persist the app's posting lists (sharded) plus its manifest.

        ``index`` is accepted for call-site symmetry with the build
        path but is not serialized directly: shards store per-group
        mini-indexes folded from their own tokens, which is what makes
        them position-independent and therefore shareable across apps.
        A cold save therefore re-folds each *new* group (groups whose
        shards already exist — shared libraries — are skipped); that
        one-time cost is what every later cross-app restore amortizes.
        """
        self._publish_entry(disassembly)

    def load_index(self, disassembly: Disassembly) -> Optional[TokenIndex]:
        """Compose the app's index from shards; patch missing groups.

        Three outcomes:

        * every shard present — a full warm hit; the composed index is
          byte-identical to a fresh build and reports
          ``build_seconds == 0.0`` / ``restored`` (enforced by the
          parity suite);
        * some shards present — a *partial* hit: only the missing or
          corrupt groups are re-folded from the live disassembly and
          published back (incremental re-indexing); the result reports
          ``patched_groups > 0`` and the patch time as
          ``build_seconds``;
        * no shards present — a plain miss (returns None); the caller
          builds fresh and saves, which publishes every shard.

        A full warm hit is served as a
        :class:`~repro.store.lazy.LazyTokenIndex` — shards are mmapped,
        not parsed, and a group decodes on the first query that touches
        it (a corrupt section heals from the disassembly mid-query).
        """
        started = time.perf_counter()
        key = store_key(disassembly)
        manifest = self._read_manifest(key)
        if manifest is not None:
            lazy = self._lazy_from_manifest(manifest, disassembly)
            if lazy is not None:
                self.stats.index_hits += 1
                self.stats.lazy_restores += 1
                self.stats.shard_hits += len(manifest["groups"])
                return lazy
        # Slow path: no manifest, or a shard is missing/corrupt.  The
        # disassembly is authoritative — partition it, hash each group,
        # and compose from whatever shards exist (patching the rest).
        groups = self._groups(disassembly)
        present = [
            (group, sha, self._shard_present(sha))
            for group, sha in groups
        ]
        if not any(on_disk for _, _, on_disk in present):
            self.stats.index_misses += 1
            return None
        parts: list[tuple[int, dict]] = []
        patched = 0
        for group, sha, _ in present:
            payload = self._read_shard(sha)
            if payload is None:
                # Missing or corrupt: re-fold just this group from the
                # live disassembly and publish the repaired shard.
                payload = self._write_shard(group, sha)
                self.stats.shard_misses += 1
                self.stats.shards_patched += 1
                patched += 1
            else:
                self.stats.shard_hits += 1
            parts.append((group.start_line, payload))
        try:
            index = compose_index(parts)
        except (KeyError, TypeError, ValueError):
            self.stats.corrupt_entries += 1
            self.stats.index_misses += 1
            return None
        # Self-heal: the slow path only runs when the fast path failed
        # — no manifest, a corrupt/stale one, or a damaged shard — so
        # republish the manifest unconditionally and the next probe
        # (and the next app sharing these groups) sees a complete
        # entry.
        self._write_json(
            self._manifest_path(key), self._manifest(key, groups)
        )
        index.patched_groups = patched
        if patched:
            index.build_seconds = time.perf_counter() - started
            self.stats.partial_hits += 1
        else:
            self.stats.index_hits += 1
        return index

    def _lazy_from_manifest(
        self, manifest: dict, disassembly: Disassembly
    ) -> Optional[LazyTokenIndex]:
        """A lazy index over the manifest's shards, or None.

        Presence is checked by ``stat`` only — no shard byte is read or
        parsed here; the first query pays for candidacy probes and any
        materialization.  Any missing (or empty) shard disqualifies the
        whole entry, and the caller falls back to the patching path.
        """
        parts: list[tuple[int, LazyShardView]] = []
        for group in manifest["groups"]:
            sha = group["shard"]
            if not self._shard_present(sha):
                return None
            view = LazyShardView(self._shard_path(sha), sha)
            parts.append((group["start_line"], view))
        return LazyTokenIndex(
            parts,
            heal=self._heal_group_fn(disassembly),
            group_cache=self._group_cache,
            stats=self.stats,
        )

    def _heal_group_fn(self, disassembly: Disassembly):
        """The lazy index's repair callback.

        Re-folds group *i* from the live disassembly (manifest group
        order is :meth:`_groups` order — both derive deterministically
        from the same bytecode) and republishes its shard; the caller
        drops its stale mapping and proceeds with the repaired payload.
        """
        def heal(index: int) -> dict:
            payload = self._write_shard(*self._groups(disassembly)[index])
            # Laziness only heals shards that existed but could not be
            # trusted, so every heal is also a corrupt-entry event.
            self.stats.corrupt_entries += 1
            self.stats.shards_patched += 1
            return payload

        return heal

    # ------------------------------------------------------------------
    # Finished per-app outcomes (batch warm starts)
    # ------------------------------------------------------------------
    def save_outcome(
        self, disassembly: Disassembly, config_fingerprint: str, outcome: dict
    ) -> None:
        """Persist one finished batch outcome (a plain JSON-able dict)."""
        key = store_key(disassembly)
        self._write_json(
            self._outcome_path(key, config_fingerprint),
            {
                "version": FORMAT_VERSION,
                "key": key,
                "config": config_fingerprint,
                "outcome": outcome,
            },
        )

    def load_outcome(
        self, disassembly: Disassembly, config_fingerprint: str
    ) -> Optional[dict]:
        """The stored outcome for this bytecode + config, or None."""
        key = store_key(disassembly)
        payload = self._read_json(
            self._outcome_path(key, config_fingerprint), key
        )
        if payload is None or payload.get("config") != config_fingerprint:
            self.stats.outcome_misses += 1
            return None
        outcome = payload.get("outcome")
        if not isinstance(outcome, dict):
            self.stats.corrupt_entries += 1
            self.stats.outcome_misses += 1
            return None
        self.stats.outcome_hits += 1
        return outcome

    # ------------------------------------------------------------------
    # Probing (store-aware scheduling)
    # ------------------------------------------------------------------
    def probe(
        self, key: str, config_fingerprint: Optional[str] = None
    ) -> StoreProbe:
        """Classify the warmest artifact level present for *key*.

        Reads at most one small manifest — never a shard payload — so a
        scheduler can probe every submission cheaply before dispatch.
        A probe is advisory: the artifact may still fail validation on
        the real load, in which case the analysis falls back to a cold
        (or patched) build.
        """
        if (
            config_fingerprint is not None
            and self._outcome_path(key, config_fingerprint).is_file()
        ):
            return StoreProbe(key, "outcome")
        manifest = self._read_manifest(key, advisory=True)
        if manifest is None:
            return StoreProbe(key, "none")
        total = len(manifest["groups"])
        found = sum(
            1
            for group in manifest["groups"]
            if self._shard_present(group["shard"])
        )
        if total and found == total:
            return StoreProbe(key, "index", total, found)
        if found:
            return StoreProbe(key, "partial", total, found)
        return StoreProbe(key, "none", total, found)

    def save_spec_key(self, spec_fingerprint: str, key: str) -> None:
        """Record which content key a deterministic app spec produced.

        The map lets schedulers resolve a submission to its disassembly
        sha *without generating the app*: a spec seen by any earlier
        store-attached run resolves immediately; an unseen spec simply
        misses and is treated as cold.  An entry pointing at a different
        key (a generator change survived by the store) is overwritten,
        so the map self-heals on the next analysis.
        """
        if self.load_spec_key(spec_fingerprint) == key:
            return  # already current
        guard = _SPECMAP_GUARDS.get(os.path.abspath(str(self.root)))
        if guard is not None and not guard():
            self.stats.specmap_writes_skipped += 1
            return
        self._write_json(
            self._spec_path(spec_fingerprint),
            {
                "version": FORMAT_VERSION,
                "key": spec_fingerprint,
                "target": key,
            },
        )

    def load_spec_key(self, spec_fingerprint: str) -> Optional[str]:
        """The content key recorded for a spec, or None when unseen."""
        payload = self._read_json(self._spec_path(spec_fingerprint),
                                  spec_fingerprint)
        if payload is None:
            return None
        target = payload.get("target")
        if not isinstance(target, str) or not target:
            self.stats.corrupt_entries += 1
            return None
        return target

    # ------------------------------------------------------------------
    # Cluster coordination (node manifests + advisory leases)
    # ------------------------------------------------------------------
    # The store doubles as the coordination substrate for multi-node
    # ``backdroid serve``: nodes gossip liveness/shard availability as
    # small JSON manifests under ``cluster/nodes/`` and serialize
    # specmap ownership through an advisory lease under
    # ``cluster/leases/``.  Both reuse the atomic-rename publish and
    # version/key payload validation of every other artifact, so a torn
    # or stale file degrades to "absent" rather than corrupting
    # routing.

    def _node_path(self, node_id: str) -> Path:
        return self.root / "cluster" / "nodes" / f"{node_id}.json"

    def _lease_path(self, name: str) -> Path:
        return self.root / "cluster" / "leases" / f"{name}.json"

    def save_node_manifest(self, node_id: str, payload: dict) -> None:
        """Publish one node's heartbeat/gossip manifest (atomic)."""
        body = dict(payload)
        body["version"] = FORMAT_VERSION
        body["key"] = node_id
        body["node_id"] = node_id
        body["updated_at"] = time.time()
        self._write_json(self._node_path(node_id), body)

    def load_node_manifest(self, node_id: str) -> Optional[dict]:
        """One node's manifest, or None when absent/corrupt."""
        return self._read_json(self._node_path(node_id), node_id)

    def load_node_manifests(self) -> list[dict]:
        """Every readable node manifest, sorted by node id."""
        nodes_dir = self.root / "cluster" / "nodes"
        if not nodes_dir.is_dir():
            return []
        manifests = []
        for path in sorted(nodes_dir.iterdir()):
            if path.suffix != ".json":
                continue
            payload = self._read_json(path, path.stem)
            if payload is not None:
                manifests.append(payload)
        return manifests

    def remove_node_manifest(self, node_id: str) -> None:
        """Withdraw a node's manifest (shutdown); missing is fine."""
        try:
            self._node_path(node_id).unlink()
        except OSError:
            pass

    def read_lease(self, name: str) -> Optional[dict]:
        """The current lease payload, or None when never acquired."""
        return self._read_json(self._lease_path(name), name)

    def acquire_lease(
        self, name: str, owner: str, ttl_seconds: float
    ) -> Optional[dict]:
        """Acquire or renew the advisory lease ``name`` for ``owner``.

        Returns the written lease payload on success, None when another
        owner holds an unexpired lease.  Renewal by the current owner
        keeps its fencing token; reclaiming an expired (or absent)
        lease bumps it.  Reclaim races between peers are serialized by
        an ``O_EXCL`` claim file per candidate token: exactly one
        contender creates ``<name>.<token>.claim`` and publishes the
        lease, the loser backs off and re-reads.  The lease is
        *advisory* — it gates cooperative writers (the specmap guard),
        it does not fence arbitrary I/O.
        """
        now = time.time()
        current = self.read_lease(name)
        if current is not None:
            expires = current.get("expires_at")
            unexpired = isinstance(expires, (int, float)) and expires > now
            if unexpired and current.get("owner") != owner:
                return None
            if unexpired and current.get("owner") == owner:
                payload = {
                    "version": FORMAT_VERSION,
                    "key": name,
                    "owner": owner,
                    "token": current.get("token"),
                    "acquired_at": current.get("acquired_at", now),
                    "expires_at": now + ttl_seconds,
                }
                self._write_json(self._lease_path(name), payload)
                return payload
        prior_token = (current or {}).get("token")
        if not isinstance(prior_token, int):
            prior_token = 0
        next_token = prior_token + 1
        lease_dir = self._lease_path(name).parent
        lease_dir.mkdir(parents=True, exist_ok=True)
        claim = lease_dir / f"{name}.{next_token}.claim"
        try:
            fd = os.open(
                claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return None  # a peer is reclaiming this generation
        with os.fdopen(fd, "w") as handle:
            handle.write(owner)
        payload = {
            "version": FORMAT_VERSION,
            "key": name,
            "owner": owner,
            "token": next_token,
            "acquired_at": now,
            "expires_at": now + ttl_seconds,
        }
        self._write_json(self._lease_path(name), payload)
        # Sweep claim markers from settled generations (including our
        # own once the lease is published).
        for stale in lease_dir.glob(f"{name}.*.claim"):
            try:
                tok = int(stale.name.split(".")[-2])
            except (ValueError, IndexError):
                continue
            if tok <= next_token:
                try:
                    stale.unlink()
                except OSError:
                    pass
        return payload

    def release_lease(self, name: str, owner: str) -> bool:
        """Expire the lease if ``owner`` holds it.  True when released.

        The payload is rewritten with ``expires_at`` in the past rather
        than unlinked: the fencing token's history must survive a
        voluntary release, so the next owner still gets a strictly
        larger generation.
        """
        current = self.read_lease(name)
        if current is None or current.get("owner") != owner:
            return False
        released = dict(current)
        released["expires_at"] = 0.0
        self._write_json(self._lease_path(name), released)
        return True

    # ------------------------------------------------------------------
    # Verification (the ``backdroid store verify`` action)
    # ------------------------------------------------------------------
    def verify(self) -> list[VerifyEntry]:
        """Replay shard-level parity against every stored entry.

        For each manifest, every referenced shard is checked three
        ways:

        1. **content address** — the shard's sha256 is recomputed from
           its stored tokens and must match its file name (rules out a
           shard silently swapped for another group's content);
        2. **mini-index parity** — the stored vocabulary/posting
           lists/string ids must equal a fresh fold of the shard's own
           token stream, exactly the equality the backend-parity suite
           enforces for live restores;
        3. **presence/readability** — a referenced shard that is gone
           or unreadable is reported (``missing-shard`` / ``corrupt``).

        Any divergence means on-disk corruption that the per-payload
        validation cannot catch (valid JSON, wrong lists).
        """
        results: list[VerifyEntry] = []
        for entry in self.entries():
            key = entry.name
            if not self._manifest_path(key).is_file():
                results.append(VerifyEntry(key, "no-index"))
                continue
            status, manifest = self._classify_payload(
                self._manifest_path(key), key
            )
            if status == "missing":
                # Present at the is_file() check, gone now: a concurrent
                # gc is collecting the entry — a skip, not corruption.
                results.append(VerifyEntry(key, "no-index"))
                continue
            if status == "stale":
                results.append(
                    VerifyEntry(key, "stale",
                                "older format version; a live run "
                                "rebuilds this entry")
                )
                continue
            if status != "ok" or not isinstance(manifest.get("groups"), list):
                results.append(
                    VerifyEntry(key, "corrupt", "manifest unreadable")
                )
                continue
            results.append(self._verify_entry(key, manifest))
        return results

    def _verify_entry(self, key: str, manifest: dict) -> VerifyEntry:
        """One app entry's shard-by-shard verdict.

        Beyond per-shard checks, manifest group offsets must *tile*:
        each group's ``start_line`` must equal the previous group's end
        (start + content-addressed ``line_count``), since composition
        rebases postings onto those offsets.  A corrupted offset would
        otherwise compose an index whose hits point at the wrong lines
        while every shard still verifies clean.  (A uniform shift of
        *all* offsets is the one corruption shard content cannot
        witness.)
        """
        prev_end: Optional[int] = None
        for group in manifest["groups"]:
            sha = group.get("shard")
            if not isinstance(sha, str) or not sha:
                return VerifyEntry(key, "corrupt", "manifest group malformed")
            status, payload = self._classify_shard(sha)
            if status == "missing":
                return VerifyEntry(
                    key, "missing-shard",
                    f"shard {sha[:12]} referenced by the manifest is gone "
                    "(a live run patches it)",
                )
            if status == "stale":
                return VerifyEntry(
                    key, "stale",
                    f"shard {sha[:12]} has an older format version; a "
                    "live run patches this entry",
                )
            if status != "ok":
                return VerifyEntry(
                    key, "corrupt", f"shard {sha[:12]} payload unreadable"
                )
            try:
                tokens = tokens_from_shard(payload)
                line_count = int(payload["line_count"])
                vocab = [str(t) for t in payload["vocab"]]
                postings = [
                    [int(n) for n in posting] for posting in payload["postings"]
                ]
                string_ids = [int(t) for t in payload["string_ids"]]
                containing = {
                    str(sub): [int(t) for t in tids]
                    for sub, tids in payload["containing"].items()
                }
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                return VerifyEntry(
                    key, "corrupt", f"shard {sha[:12]} payload: {exc}"
                )
            start_line = group["start_line"]
            if start_line < 0 or (
                prev_end is not None and start_line != prev_end
            ):
                return VerifyEntry(
                    key, "mismatch",
                    f"manifest offsets do not tile: group at shard "
                    f"{sha[:12]} starts at line {start_line}, expected "
                    f"{max(prev_end or 0, 0)}",
                )
            prev_end = start_line + line_count
            expected_sha = shard_key(ShardGroup("", 0, line_count, tokens))
            if expected_sha != sha:
                return VerifyEntry(
                    key, "mismatch",
                    f"shard {sha[:12]} content no longer matches its "
                    "content address",
                )
            fresh = fold_group(tokens)
            mismatched = [
                name
                for name, stored_side, fresh_side in (
                    ("vocab", vocab, fresh[0]),
                    ("postings", postings, fresh[1]),
                    ("string_ids", string_ids, fresh[2]),
                    ("containing", containing, fresh[3]),
                )
                if stored_side != fresh_side
            ]
            if mismatched:
                return VerifyEntry(
                    key, "mismatch",
                    f"shard {sha[:12]} diverges from a fresh fold on: "
                    + ", ".join(mismatched),
                )
        return VerifyEntry(
            key, "ok", f"{len(manifest['groups'])} shard(s) verified"
        )

    # ------------------------------------------------------------------
    # Maintenance (the ``backdroid store`` subcommand)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Path]:
        """Every entry directory currently published in the store."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for shard in sorted(objects.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.is_dir():
                    yield entry

    def _shard_files(self, suffixes=(".bin",)) -> Iterator[Path]:
        """Every published shard file; gc adds ``".json"`` to
        ``suffixes`` to reach a v2-era writer's leftovers."""
        shards = self.root / "shards"
        if not shards.is_dir():
            return
        for prefix in sorted(shards.iterdir()):
            if not prefix.is_dir():
                continue
            for shard in sorted(prefix.iterdir()):
                if shard.is_file() and shard.suffix in suffixes:
                    yield shard

    def _spec_files(self) -> Iterator[Path]:
        """Every published specmap file."""
        specmap = self.root / "specmap"
        if not specmap.is_dir():
            return
        for shard in sorted(specmap.iterdir()):
            if not shard.is_dir():
                continue
            for mapping in sorted(shard.iterdir()):
                if mapping.is_file() and mapping.suffix == ".json":
                    yield mapping

    def _referenced_shards(self) -> dict[str, int]:
        """Shard sha -> reference count across all valid manifests."""
        refs: dict[str, int] = {}
        for entry in self.entries():
            manifest = self._read_manifest(entry.name, advisory=True)
            if manifest is None:
                continue
            for group in manifest["groups"]:
                refs[group["shard"]] = refs.get(group["shard"], 0) + 1
        return refs

    def describe(self) -> StoreInventory:
        """Walk the store and return its :class:`StoreInventory`."""
        inventory = StoreInventory(root=str(self.root))
        shard_sizes: dict[str, int] = {}
        for shard in self._shard_files():
            try:
                size = shard.stat().st_size
            except OSError:
                continue  # swept by a concurrent gc mid-walk
            shard_sizes[shard.stem] = size
            inventory.shards += 1
            inventory.shard_bytes += size
            inventory.total_bytes += size
            inventory.files_by_kind["shard"] = (
                inventory.files_by_kind.get("shard", 0) + 1
            )
        for entry in self.entries():
            inventory.entries += 1
            try:
                for artifact in entry.iterdir():
                    if not artifact.is_file() or artifact.suffix == ".tmp":
                        continue
                    kind = artifact.name.split("-", 1)[0].split(".", 1)[0]
                    inventory.files_by_kind[kind] = (
                        inventory.files_by_kind.get(kind, 0) + 1
                    )
                    inventory.total_bytes += artifact.stat().st_size
            except OSError:
                # A concurrent gc swept the entry mid-walk; report what
                # was still there.
                continue
            manifest = self._read_manifest(entry.name, advisory=True)
            if manifest is None:
                continue
            for group in manifest["groups"]:
                inventory.shard_refs += 1
                inventory.logical_shard_bytes += shard_sizes.get(
                    group["shard"], 0
                )
        for mapping in self._spec_files():
            try:
                size = mapping.stat().st_size
            except OSError:
                continue  # swept by a concurrent gc mid-walk
            inventory.files_by_kind["specmap"] = (
                inventory.files_by_kind.get("specmap", 0) + 1
            )
            inventory.total_bytes += size
        return inventory

    def gc(self, max_age_seconds: float = 0.0) -> GcResult:
        """Sweep aged app entries, then any shards they alone held.

        App entries (manifest + outcomes) whose newest artifact is
        older than the cutoff are removed, exactly as before sharding.
        Shards are **refcounted by the surviving manifests**: after the
        entry sweep, a shard still referenced by any live manifest is
        kept regardless of age; an unreferenced shard older than the
        cutoff is reclaimed.  The age gate on shards keeps a concurrent
        writer's freshly published shards safe while its manifest is
        still in flight.

        ``max_age_seconds == 0`` clears the whole store — entries,
        shards and specmap.  Specmap files are swept by the same age
        rule (a dangling mapping is harmless — it only costs a cold
        probe — but a long-lived store must not leak one file per spec
        forever).

        Shards left in the v2 JSON container are swept by the same age
        rule whether or not a manifest names their content address:
        nothing reads that container, and a live run rebuilds the
        entry as binary shards at the same address.
        """
        cutoff = time.time() - max_age_seconds
        result = GcResult()
        for entry in list(self.entries()):
            try:
                artifacts = [p for p in entry.iterdir() if p.is_file()]
                newest = max(
                    (p.stat().st_mtime for p in artifacts), default=0.0
                )
                if newest > cutoff:
                    continue
                result.bytes_reclaimed += sum(
                    p.stat().st_size for p in artifacts
                )
                shutil.rmtree(entry)
                result.entries_removed += 1
            except OSError:
                # A concurrent writer re-published the entry mid-sweep;
                # leave it for the next collection.
                continue
        referenced = self._referenced_shards()
        for shard in list(self._shard_files((".bin", ".json"))):
            if shard.suffix == ".bin" and shard.stem in referenced:
                continue
            try:
                stat = shard.stat()
                if stat.st_mtime > cutoff:
                    continue
                size = stat.st_size
                shard.unlink()
                result.shards_removed += 1
                result.bytes_reclaimed += size
            except OSError:
                continue
        for mapping in list(self._spec_files()):
            try:
                stat = mapping.stat()
                if stat.st_mtime > cutoff:
                    continue
                size = stat.st_size
                mapping.unlink()
                result.bytes_reclaimed += size
            except OSError:
                continue
        # Cluster coordination files (node manifests, leases, claim
        # markers) age out by the same rule: a heartbeating node
        # refreshes its files far more often than any sane cutoff, so
        # only debris from departed nodes is swept.
        cluster_dir = self.root / "cluster"
        if cluster_dir.is_dir():
            for path in cluster_dir.rglob("*"):
                if not path.is_file():
                    continue
                try:
                    stat = path.stat()
                    if stat.st_mtime > cutoff:
                        continue
                    size = stat.st_size
                    path.unlink()
                    result.bytes_reclaimed += size
                except OSError:
                    continue
        return result
