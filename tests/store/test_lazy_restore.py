"""Tests for zero-copy lazy restores (the v3 binary shard path).

Covers the laziness contract end to end: a fully binary warm entry
restores as a :class:`LazyTokenIndex` that (1) answers every needle
shape identically to a fresh fold, (2) decodes only the groups a query
touches — strictly fewer bytes than full materialization, (3) survives
LRU eviction and re-faults correctly, (4) self-heals corrupt shard
sections from the live disassembly, and (5) treats v2-era JSON entries
as stale misses that a rebuild replaces and ``gc`` sweeps.
"""

import json
import os
import time

import pytest

from repro.search.backends.indexed import TokenIndex, _DESCRIPTOR_RE
from repro.search.index import BytecodeSearcher
from repro.store import ArtifactStore, store_key
from repro.store.lazy import LazyTokenIndex
from repro.store.sharding import shard_payload
from repro.workload.generator import AppSpec, LibrarySpec, generate_app

#: Shared library specs: each package prefix becomes its own shard
#: group, so the generated app restores as a genuinely multi-group
#: manifest.
_LIBS = tuple(
    LibrarySpec(package=f"org.lazylib{i}.sdk", seed=40 + i, classes=3)
    for i in range(5)
)


def _build_apk(seed=1):
    return generate_app(
        AppSpec(package="com.lazyhost.app", seed=seed, libraries=_LIBS)
    ).apk


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _warm_lazy(store, seed=1):
    """Publish the app and return a lazily restored index."""
    apk = _build_apk(seed)
    store.save_index(
        apk.disassembly, TokenIndex.for_disassembly(apk.disassembly)
    )
    restored = store.load_index(_build_apk(seed).disassembly)
    assert isinstance(restored, LazyTokenIndex)
    return restored


def _sample_needles(fresh):
    """One needle per shape class the index serves, from live vocab."""
    descriptor = next(
        t for t in fresh.vocab if _DESCRIPTOR_RE.fullmatch(t)
    )
    signature = next(t for t in fresh.vocab if ";." in t and ":" in t)
    return [
        fresh.vocab[0],              # exact token lookup
        descriptor,                  # containment-map lookup
        signature,                   # containment + string scan
        signature[2:-2],             # mid-token substring: blob scan
        "lazylib2",                  # unknown shape: full vocab scan
        "Lcom/definitely/absent;",   # no group can answer
    ]


def _single_group_needle(fresh):
    """A descriptor only one library group's classes can answer."""
    return next(
        t for t in fresh.vocab
        if _DESCRIPTOR_RE.fullmatch(t) and "lazylib3" in t
    )


class TestLazyRestoreShape:
    def test_full_binary_entry_restores_lazily(self, store):
        restored = _warm_lazy(store)
        assert restored.lazy and restored.restored
        assert restored.build_seconds == 0.0
        assert restored.groups_total >= len(_LIBS)
        assert restored.materialized_groups == 0
        assert store.stats.lazy_restores == 1


class TestQueryParity:
    def test_every_needle_shape_matches_fresh_fold(self, store):
        restored = _warm_lazy(store)
        fresh = TokenIndex.for_disassembly(_build_apk().disassembly)
        for needle in _sample_needles(fresh):
            assert restored.token_lines(needle) == \
                fresh.token_lines(needle), needle

    def test_partial_then_full_materialization_parity(self, store):
        # Query one group first, then materialize everything: the full
        # structures must equal a fresh fold structure for structure.
        restored = _warm_lazy(store)
        fresh = TokenIndex.for_disassembly(_build_apk().disassembly)
        needle = _single_group_needle(fresh)
        assert restored.token_lines(needle) == fresh.token_lines(needle)
        assert 0 < restored.materialized_groups < restored.groups_total

        full = restored.materialize()
        assert full.vocab == fresh.vocab
        assert full.postings == fresh.postings
        assert full.exact == fresh.exact
        assert full.containing == fresh.containing
        assert full._string_ids == fresh._string_ids
        assert full.posting_entries == fresh.posting_entries
        # Structure access keeps answering through the composed index.
        assert restored.token_lines(needle) == fresh.token_lines(needle)

    def test_subset_query_decodes_strictly_fewer_bytes(self, store):
        # The acceptance bar: a warm session touching a strict subset
        # of groups decodes strictly fewer bytes than a full restore.
        restored = _warm_lazy(store)
        fresh = TokenIndex.for_disassembly(_build_apk().disassembly)
        restored.token_lines(_single_group_needle(fresh))
        subset_bytes = restored.bytes_decoded
        assert 0 < subset_bytes < restored.bytes_mapped

        restored.materialize()
        assert subset_bytes < restored.bytes_decoded

    def test_counters_stay_exact_without_materializing(self, store):
        restored = _warm_lazy(store)
        fresh = TokenIndex.for_disassembly(_build_apk().disassembly)
        # posting_entries is exact from headers (disjoint line ranges);
        # vocab_size is an upper bound until composition dedups.
        assert restored.posting_entries == fresh.posting_entries
        assert restored.vocab_size >= len(fresh.vocab)
        assert restored.materialized_groups == 0


class TestLruEviction:
    def test_eviction_and_refault_stay_correct(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", group_cache=1)
        restored = _warm_lazy(store)
        fresh = TokenIndex.for_disassembly(_build_apk().disassembly)
        one = next(t for t in fresh.vocab
                   if _DESCRIPTOR_RE.fullmatch(t) and "lazylib1" in t)
        two = next(t for t in fresh.vocab
                   if _DESCRIPTOR_RE.fullmatch(t) and "lazylib4" in t)
        for needle in (one, two, one, two):
            assert restored.token_lines(needle) == \
                fresh.token_lines(needle), needle
        # Two distinct groups were touched; with a single cache slot
        # the alternation re-faulted at least one of them.
        assert restored.materialized_groups == 2
        assert store.stats.groups_materialized > 2


class TestSelfHeal:
    def test_corrupt_shard_heals_from_live_disassembly(self, store):
        apk = _build_apk()
        store.save_index(
            apk.disassembly, TokenIndex.for_disassembly(apk.disassembly)
        )
        # Flip bytes in the middle of one shard file: the header may
        # still parse, but a section CRC cannot.
        victim = store._shard_path(store._groups(apk.disassembly)[2][1])
        blob = bytearray(victim.read_bytes())
        mid = len(blob) // 2
        for i in range(mid, mid + 16):
            blob[i] ^= 0xFF
        victim.write_bytes(bytes(blob))

        restored = store.load_index(_build_apk().disassembly)
        assert isinstance(restored, LazyTokenIndex)  # stat-only check
        fresh = TokenIndex.for_disassembly(_build_apk().disassembly)
        for needle in _sample_needles(fresh):
            assert restored.token_lines(needle) == \
                fresh.token_lines(needle), needle
        assert restored.patched_groups >= 1
        assert store.stats.shards_patched >= 1
        # The heal republished the shard: the store verifies clean and
        # the next restore is an untouched lazy hit.
        assert all(entry.ok for entry in store.verify())
        again = store.load_index(_build_apk().disassembly)
        again.materialize()
        assert again.patched_groups == 0

    def test_backend_surfaces_lazy_stats(self, store):
        apk = _build_apk()
        store.save_index(
            apk.disassembly, TokenIndex.for_disassembly(apk.disassembly)
        )
        searcher = BytecodeSearcher(
            _build_apk().disassembly, backend="indexed", store=store
        )
        fresh = TokenIndex.for_disassembly(_build_apk().disassembly)
        searcher.backend.token_lines(_single_group_needle(fresh))
        described = searcher.backend.describe()
        assert described["index_restored"]
        assert described["index_build_seconds"] == 0.0
        assert 0 < described["materialized_groups"]
        assert 0 < described["bytes_decoded"] < described["bytes_mapped"]


class TestV2EraStores:
    """A store last written by a v2-era writer (JSON shards, version-2
    payloads) is a cache full of misses, not an error."""

    def _write_v2_entry(self, store, disassembly):
        """Hand-write a v2 manifest plus its JSON shards."""
        key = store_key(disassembly)
        groups = store._groups(disassembly)
        for group, sha in groups:
            path = store.root / "shards" / sha[:2] / f"{sha}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(shard_payload(group, sha, 2)))
        manifest = store._manifest(key, groups)
        manifest["version"] = 2
        path = store._manifest_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(manifest))
        return key

    def test_v2_entry_reads_as_a_miss(self, store):
        key = self._write_v2_entry(store, _build_apk().disassembly)
        assert store.probe(key).level == "none"
        assert store.load_index(_build_apk().disassembly) is None
        assert store.stats.index_misses == 1

    def test_verify_reports_v2_entry_stale_not_corrupt(self, store):
        key = self._write_v2_entry(store, _build_apk().disassembly)
        (entry,) = store.verify()
        assert entry.key == key and entry.status == "stale" and entry.ok

    def test_rebuild_then_gc_sweeps_leftover_json_shards(self, store):
        apk = _build_apk()
        self._write_v2_entry(store, apk.disassembly)
        leftovers = list(store.root.glob("shards/*/*.json"))
        assert leftovers
        old = time.time() - 7200
        for path in leftovers:
            os.utime(path, (old, old))
        # The rebuild lands at the same content addresses, as binary.
        store.save_index(
            apk.disassembly, TokenIndex.for_disassembly(apk.disassembly)
        )
        assert isinstance(
            store.load_index(_build_apk().disassembly), LazyTokenIndex
        )
        result = store.gc(max_age_seconds=3600.0)
        assert result.entries_removed == 0
        assert result.shards_removed == len(leftovers)
        assert not list(store.root.glob("shards/*/*.json"))
        assert all(entry.status == "ok" for entry in store.verify())

    def test_gc_age_gate_keeps_young_json_shards(self, store):
        # The .json sweep obeys the same age gate as every other shard.
        self._write_v2_entry(store, _build_apk().disassembly)
        leftovers = sorted(store.root.glob("shards/*/*.json"))
        assert leftovers
        result = store.gc(max_age_seconds=3600.0)
        assert result.shards_removed == 0
        assert sorted(store.root.glob("shards/*/*.json")) == leftovers

    def test_verify_passes_on_mixed_v2_era_and_v3_store(self, store):
        stale_key = self._write_v2_entry(store, _build_apk().disassembly)
        other = generate_app(
            AppSpec(package="com.mixed.app", seed=7, libraries=_LIBS[:2])
        ).apk
        store.save_index(
            other.disassembly, TokenIndex.for_disassembly(other.disassembly)
        )
        live_key = store_key(other.disassembly)
        statuses = {entry.key: entry.status for entry in store.verify()}
        assert statuses == {stale_key: "stale", live_key: "ok"}
        assert all(entry.ok for entry in store.verify())

    def test_json_shard_is_never_read_for_a_v3_manifest(self, store):
        # A v3 manifest whose group survives only as a v2-era .json
        # shard: the restore cannot go lazy, and the slow path re-folds
        # that group from the disassembly instead of reading the JSON.
        apk = _build_apk()
        fresh = TokenIndex.for_disassembly(apk.disassembly)
        store.save_index(apk.disassembly, fresh)
        sha = store._groups(apk.disassembly)[0][1]
        group = store._groups(apk.disassembly)[0][0]
        store._shard_path(sha).unlink()
        json_path = store.root / "shards" / sha[:2] / f"{sha}.json"
        json_path.write_text(json.dumps(shard_payload(group, sha, 2)))

        restored = store.load_index(_build_apk().disassembly)
        assert restored is not None
        assert not getattr(restored, "lazy", False)
        assert restored.patched_groups == 1
        assert restored.vocab == fresh.vocab
        assert restored.postings == fresh.postings
        assert store._shard_path(sha).is_file()
        # The repaired entry is whole again: the next restore is lazy.
        assert isinstance(
            store.load_index(_build_apk().disassembly), LazyTokenIndex
        )

    def test_v2_outcome_and_specmap_entries_read_as_misses(self, store):
        apk = _build_apk()
        key = store_key(apk.disassembly)
        store.save_outcome(apk.disassembly, "cfg", {"verdict": "clean"})
        store.save_spec_key("ab" * 32, key)
        for path in (store._outcome_path(key, "cfg"),
                     store._spec_path("ab" * 32)):
            payload = json.loads(path.read_text())
            payload["version"] = 2
            path.write_text(json.dumps(payload))

        assert store.load_outcome(apk.disassembly, "cfg") is None
        assert store.stats.outcome_misses == 1
        assert store.load_spec_key("ab" * 32) is None
        # The next write replaces each stale entry in the current format.
        store.save_outcome(apk.disassembly, "cfg", {"verdict": "clean"})
        store.save_spec_key("ab" * 32, key)
        assert store.load_outcome(apk.disassembly, "cfg") == {
            "verdict": "clean"
        }
        assert store.load_spec_key("ab" * 32) == key


class TestProbeNeverParses:
    def test_probe_is_stat_only_even_on_garbage(self, store):
        # Satellite fix: the advisory probe must never decode shard
        # payloads — a same-size garbage shard still probes "index"
        # (the real load heals it; probes are advisory by contract).
        apk = _build_apk()
        key = store_key(apk.disassembly)
        store.save_index(
            apk.disassembly, TokenIndex.for_disassembly(apk.disassembly)
        )
        victim = store._shard_path(store._groups(apk.disassembly)[0][1])
        victim.write_bytes(b"\x00" * victim.stat().st_size)
        probe = store.probe(key)
        assert probe.level == "index"
        assert probe.shards_present == probe.shards_total


class TestCanonicalBytesCache:
    def test_save_then_verify_serializes_once_per_group(self, store):
        # Satellite fix: shard_key reuses the canonical token bytes
        # cached on the group object instead of re-dumping JSON.
        apk = _build_apk()
        groups = store._groups(apk.disassembly)
        for group, _ in groups:
            assert group.canonical_bytes() is group.canonical_bytes()
        # Hashing again (as verify's replay does) reuses the cache and
        # stays stable.
        from repro.store import shard_key

        for group, sha in groups:
            assert shard_key(group) == sha
