"""Tests for the persistent warm-start artifact store.

Covers the store's four guarantees: restored artifacts are
byte-identical to fresh builds, stale entries (format-version or
content-hash mismatch) are invalidated, corrupted entries fall back to a
rebuild instead of failing, and the atomic-rename write protocol keeps
concurrent process-pool writers safe.
"""

import json

import pytest

from repro.core import BackDroidConfig, analyze_spec, run_batch
from repro.search.backends.indexed import TokenIndex
from repro.search.index import BytecodeSearcher
from repro.store import ArtifactStore, store_key
from repro.store.artifacts import FORMAT_VERSION
from repro.store.binshard import decode_shard, encode_shard
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import AppSpec, LibrarySpec, generate_app
from repro.workload.paperapps import build_heyzap, build_palcomp3


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _fresh_searcher(apk, store=None):
    return BytecodeSearcher(apk.disassembly, backend="indexed", store=store)


class TestKeying:
    def test_same_bytecode_same_key(self):
        assert store_key(build_heyzap().disassembly) == \
            store_key(build_heyzap().disassembly)

    def test_different_bytecode_different_key(self):
        assert store_key(build_heyzap().disassembly) != \
            store_key(build_palcomp3().disassembly)

    def test_key_memoized_per_disassembly(self):
        disassembly = build_heyzap().disassembly
        assert store_key(disassembly) is store_key(disassembly)


class TestIndexRoundTrip:
    def test_empty_store_misses(self, store):
        apk = build_heyzap()
        assert store.load_index(apk.disassembly) is None
        assert store.stats.index_misses == 1
        assert store.stats.index_hits == 0

    def test_restored_index_equals_fresh_build(self, store):
        apk = build_heyzap()
        fresh = TokenIndex.for_disassembly(apk.disassembly)
        store.save_index(apk.disassembly, fresh)

        restored = store.load_index(build_heyzap().disassembly)
        assert restored is not None
        assert restored.restored and not fresh.restored
        assert restored.build_seconds == 0.0
        assert restored.vocab == fresh.vocab
        assert restored.postings == fresh.postings
        assert restored.exact == fresh.exact
        assert restored.containing == fresh.containing
        assert restored._string_ids == fresh._string_ids
        assert restored.posting_entries == fresh.posting_entries
        assert store.stats.index_hits == 1

    def test_backend_restores_and_reports_zero_build(self, store):
        cold = _fresh_searcher(build_heyzap(), store=store)
        cold.backend.index  # build + save
        assert not cold.backend.stats.index_restored

        warm = _fresh_searcher(build_heyzap(), store=store)
        warm.backend.index
        assert warm.backend.stats.index_restored
        assert warm.backend.stats.index_build_seconds == 0.0

    def test_restored_index_shared_via_disassembly_memo(self, store):
        cold = _fresh_searcher(build_heyzap(), store=store)
        cold.backend.index
        apk = build_heyzap()
        first = _fresh_searcher(apk, store=store)
        second = _fresh_searcher(apk, store=store)
        assert first.backend.index is second.backend.index


def _only_shard_path(store, disassembly):
    """The shard file of a single-group app (asserts there is one)."""
    groups = store._groups(disassembly)
    assert len(groups) == 1
    return store._shard_path(groups[0][1])


class TestInvalidation:
    def test_corrupt_manifest_self_heals_on_index_load(self, store):
        # A torn manifest over intact shards must not wedge the entry:
        # the next load republishes it and probes go warm again.
        apk = build_heyzap()
        key = store_key(apk.disassembly)
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        store._manifest_path(key).write_text("{torn")
        assert store.probe(key).level == "none"

        restored = store.load_index(build_heyzap().disassembly)
        assert restored is not None
        assert store.probe(key).level == "index"
        assert all(entry.ok for entry in store.verify())

    def test_probe_never_counts_corrupt_entries(self, store):
        # probe() is advisory: a scheduler probing one damaged manifest
        # on every submission must not inflate the load-path counter.
        apk = build_heyzap()
        key = store_key(apk.disassembly)
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        store._manifest_path(key).write_text("{torn")
        before = store.stats.corrupt_entries
        for _ in range(5):
            store.probe(key)
        assert store.stats.corrupt_entries == before

    def test_manifest_version_mismatch_is_a_manifest_miss(self, store):
        # A foreign-version manifest is never trusted: the load falls to
        # the disassembly-derived path (here every shard is still on
        # disk, so nothing is re-folded) and republishes the manifest.
        apk = build_heyzap()
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        key = store_key(apk.disassembly)
        path = store._manifest_path(key)
        payload = json.loads(path.read_text())
        payload["version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))

        assert store.probe(key).level == "none"
        restored = store.load_index(build_heyzap().disassembly)
        assert restored is not None and not getattr(restored, "lazy", False)
        assert restored.patched_groups == 0
        assert store.stats.corrupt_entries >= 1
        assert json.loads(path.read_text())["version"] == FORMAT_VERSION

    def test_manifest_key_mismatch_is_a_manifest_miss(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        key = store_key(apk.disassembly)
        path = store._manifest_path(key)
        payload = json.loads(path.read_text())
        payload["key"] = "0" * 64
        path.write_text(json.dumps(payload))

        restored = store.load_index(build_heyzap().disassembly)
        assert restored is not None and not getattr(restored, "lazy", False)
        assert store.stats.corrupt_entries >= 1
        assert json.loads(path.read_text())["key"] == key

    def test_changed_bytecode_never_hits_old_entry(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        assert store.load_index(build_palcomp3().disassembly) is None

    def test_garbage_shard_is_patched_in_place(self, store):
        # A torn shard is indistinguishable from a missing one: the
        # load path re-folds just that group from the live disassembly
        # and publishes the repaired shard.
        apk = build_heyzap()
        fresh = TokenIndex.for_disassembly(apk.disassembly)
        store.save_index(apk.disassembly, fresh)
        _only_shard_path(store, apk.disassembly).write_text("{not json at all")

        warm = _fresh_searcher(build_heyzap(), store=store)
        warm.backend.index  # must repair, not raise
        assert warm.backend.stats.shards_patched == 1
        assert store.stats.corrupt_entries >= 1
        assert warm.backend.index.vocab == fresh.vocab
        # The patch republished the shard: a third run restores whole.
        third = _fresh_searcher(build_heyzap(), store=store)
        third.backend.index
        assert third.backend.stats.index_restored
        assert third.backend.stats.shards_patched == 0
        assert third.backend.stats.index_build_seconds == 0.0

    def test_truncated_shard_is_patched(self, store):
        # A shard cut off mid-section (a torn copy, a full disk) still
        # stats present, so the restore goes lazy; the section bounds
        # check catches it on first use and the group heals.
        apk = build_heyzap()
        fresh = TokenIndex.for_disassembly(apk.disassembly)
        store.save_index(apk.disassembly, fresh)
        path = _only_shard_path(store, apk.disassembly)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        restored = store.load_index(build_heyzap().disassembly)
        assert getattr(restored, "lazy", False)
        full = restored.materialize()
        assert restored.patched_groups == 1
        assert full.vocab == fresh.vocab
        assert full.postings == fresh.postings
        assert all(entry.ok for entry in store.verify())


def _store_config(tmp_path, mode="full", **kwargs):
    return BackDroidConfig(
        search_backend="indexed",
        store_dir=str(tmp_path / "store"),
        store_mode=mode,
        **kwargs,
    )


class TestOutcomeReuse:
    def test_second_run_is_a_store_hit(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path)
        cold = analyze_spec(spec, config)
        warm = analyze_spec(spec, config)
        assert not cold.store_hit
        assert warm.store_hit
        assert warm.findings == cold.findings
        assert warm.sink_count == cold.sink_count
        assert warm.package == cold.package

    def test_config_change_invalidates_outcome(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        analyze_spec(spec, _store_config(tmp_path))
        other = analyze_spec(
            spec, _store_config(tmp_path, sink_rules=("open-port",))
        )
        assert not other.store_hit

    def test_backend_change_invalidates_outcome(self, tmp_path):
        # An outcome recorded under one backend must not be served to a
        # run configured for another: its backend/cache-stat fields
        # would misreport the run.
        spec = benchmark_app_spec(0, scale=0.05)
        analyze_spec(spec, _store_config(tmp_path))  # indexed
        other = analyze_spec(
            spec,
            BackDroidConfig(
                search_backend="linear",
                store_dir=str(tmp_path / "store"),
                store_mode="full",
            ),
        )
        assert not other.store_hit
        assert other.backend == "linear"

    def test_index_mode_never_reuses_outcomes(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path, mode="index")
        analyze_spec(spec, config)
        warm = analyze_spec(spec, config)
        assert not warm.store_hit
        assert warm.index_restored

    def test_corrupt_outcome_falls_back_to_analysis(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        config = _store_config(tmp_path)
        cold = analyze_spec(spec, config)
        store = config.artifact_store()
        outcome_files = [
            p for e in store.entries() for p in e.iterdir()
            if p.name.startswith("outcome-")
        ]
        assert outcome_files
        for path in outcome_files:
            path.write_text('{"version": 1, "outcome": "garbage"}')
        warm = analyze_spec(spec, config)
        assert not warm.store_hit
        assert warm.findings == cold.findings

    def test_unknown_store_mode_rejected(self, tmp_path):
        config = _store_config(tmp_path, mode="quantum")
        outcome = analyze_spec(benchmark_app_spec(0, scale=0.05), config)
        assert not outcome.ok
        assert "unknown store mode" in outcome.error


class TestConcurrency:
    def test_process_pool_writers_then_warm_run(self, tmp_path):
        specs = [benchmark_app_spec(i, scale=0.05) for i in range(4)]
        config = _store_config(tmp_path)
        cold = run_batch(specs, config, executor="process", max_workers=4)
        assert not cold.failures
        assert cold.store_hits == 0

        warm = run_batch(specs, config, executor="process", max_workers=4)
        assert not warm.failures
        assert warm.store_hits == len(specs)
        assert warm.warm_hit_rate == 1.0
        assert [o.findings for o in warm.outcomes] == \
            [o.findings for o in cold.outcomes]

    def test_no_temp_files_left_behind(self, tmp_path):
        specs = [benchmark_app_spec(i, scale=0.05) for i in range(3)]
        config = _store_config(tmp_path)
        run_batch(specs, config, executor="process", max_workers=3)
        leftovers = list((tmp_path / "store").rglob("*.tmp"))
        assert leftovers == []

    def test_duplicate_specs_race_benignly(self, tmp_path):
        # Same app analyzed by several workers at once: every writer
        # publishes identical content, so last-rename-wins is safe.
        specs = [benchmark_app_spec(0, scale=0.05)] * 4
        config = _store_config(tmp_path)
        result = run_batch(specs, config, executor="process", max_workers=4)
        assert not result.failures
        store = config.artifact_store()
        restored = store.load_index(generate_app(specs[0]).apk.disassembly)
        assert restored is not None


class TestMaintenance:
    def test_describe_counts_entries_and_kinds(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        inventory = store.describe()
        assert inventory.entries == 1
        assert inventory.files_by_kind["manifest"] == 1
        assert inventory.files_by_kind["shard"] >= 1
        assert inventory.shards == inventory.files_by_kind["shard"]
        assert inventory.shard_refs == inventory.shards  # one app: no sharing
        assert inventory.logical_shard_bytes == inventory.shard_bytes
        assert inventory.dedup_ratio == 1.0 and inventory.bytes_saved == 0
        assert inventory.total_bytes > 0
        assert "entries     : 1" in inventory.render()
        assert "dedup ratio" in inventory.render()

    def test_gc_clears_everything_by_default(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        result = store.gc()
        assert result.entries_removed == 1
        assert result.shards_removed >= 1
        assert result.bytes_reclaimed > 0
        inventory = store.describe()
        assert inventory.entries == 0 and inventory.shards == 0

    def test_gc_keeps_fresh_entries(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        result = store.gc(max_age_seconds=3600.0)
        assert result.entries_removed == 0 and result.shards_removed == 0
        inventory = store.describe()
        assert inventory.entries == 1 and inventory.shards >= 1

    def test_describe_empty_store(self, store):
        inventory = store.describe()
        assert inventory.entries == 0
        assert inventory.total_bytes == 0


class TestProbe:
    def test_probe_levels_escalate_with_artifacts(self, store):
        apk = build_heyzap()
        key = store_key(apk.disassembly)
        assert store.probe(key).level == "none"

        store.save_index(apk.disassembly)
        probe = store.probe(key)
        assert probe.level == "index" and probe.warm
        assert probe.shards_total == probe.shards_present >= 1

        store.save_outcome(apk.disassembly, "cfg1", {"package": "x"})
        assert store.probe(key, "cfg1").level == "outcome"
        # A different config's probe does not see that outcome.
        assert store.probe(key, "cfg2").level == "index"
        assert store.probe(key).level == "index"

    def test_probe_reports_partial_when_a_shard_is_missing(self, store):
        lib = LibrarySpec(package="org.probed.sdk", seed=3, classes=4)
        apk = generate_app(
            AppSpec(package="com.probe.host", seed=1, libraries=(lib,))
        ).apk
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        key = store_key(apk.disassembly)
        groups = store._groups(apk.disassembly)
        assert len(groups) >= 2
        store._shard_path(groups[0][1]).unlink()

        probe = store.probe(key)
        assert probe.level == "partial" and probe.warm
        assert probe.shards_present == probe.shards_total - 1

        # With every shard gone the manifest alone offers no warmth.
        for _, sha in groups[1:]:
            store._shard_path(sha).unlink()
        assert store.probe(key).level == "none"

    def test_spec_key_round_trip(self, store):
        assert store.load_spec_key("ab" * 8) is None
        store.save_spec_key("ab" * 8, "deadbeef" * 8)
        assert store.load_spec_key("ab" * 8) == "deadbeef" * 8

    def test_spec_key_self_heals_on_remap(self, store):
        # A generator change survived by the store: the next analysis
        # overwrites the stale mapping instead of misrouting forever.
        store.save_spec_key("ab" * 8, "old0" * 16)
        store.save_spec_key("ab" * 8, "new1" * 16)
        assert store.load_spec_key("ab" * 8) == "new1" * 16

    def test_gc_and_describe_cover_the_specmap(self, store):
        apk = build_heyzap()
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        store.save_spec_key("ab" * 8, store_key(apk.disassembly))

        inventory = store.describe()
        assert inventory.files_by_kind["specmap"] == 1
        result = store.gc()
        assert result.entries_removed == 1 and result.bytes_reclaimed > 0
        assert store.load_spec_key("ab" * 8) is None
        assert store.describe().files_by_kind == {}

    def test_analyze_spec_records_the_spec_mapping(self, tmp_path):
        spec = benchmark_app_spec(0, scale=0.05)
        config = BackDroidConfig(
            search_backend="indexed", store_dir=str(tmp_path / "store")
        )
        assert analyze_spec(spec, config).ok
        from repro.workload.generator import spec_fingerprint

        store = config.artifact_store()
        key = store.load_spec_key(spec_fingerprint(spec))
        assert key == store_key(generate_app(spec).apk.disassembly)
        assert store.probe(key).warm


class TestVerify:
    def _populate(self, store, apk):
        store.save_index(
            apk.disassembly, TokenIndex.for_disassembly(apk.disassembly)
        )
        return store_key(apk.disassembly)

    def test_intact_store_verifies_clean(self, store):
        keys = {
            self._populate(store, build_heyzap()),
            self._populate(store, build_palcomp3()),
        }
        results = store.verify()
        assert {entry.key for entry in results} == keys
        assert all(entry.status == "ok" and entry.ok for entry in results)

    def test_tampered_postings_detected(self, store):
        # CRC-clean bytes whose posting lists lie: decode, shift every
        # line in one posting, re-encode under the same content address.
        apk = build_heyzap()
        self._populate(store, apk)
        path = _only_shard_path(store, apk.disassembly)
        payload = decode_shard(path.read_bytes())
        payload["postings"][0] = [line + 1 for line in payload["postings"][0]]
        path.write_bytes(encode_shard(payload, payload["key"]))

        (entry,) = store.verify()
        assert entry.status == "mismatch" and not entry.ok
        assert "postings" in entry.detail

    def test_shard_swap_breaks_the_content_address(self, store):
        # A shard replaced by *another group's valid content* passes the
        # mini-index parity check but fails the content-address replay.
        apk = build_heyzap()
        other = build_palcomp3()
        self._populate(store, apk)
        self._populate(store, other)
        target = _only_shard_path(store, apk.disassembly)
        impostor = _only_shard_path(store, other.disassembly)
        payload = decode_shard(impostor.read_bytes())
        target.write_bytes(
            encode_shard(payload, store._groups(apk.disassembly)[0][1])
        )

        statuses = {entry.key: entry for entry in store.verify()}
        bad = statuses[store_key(apk.disassembly)]
        assert bad.status == "mismatch" and "content address" in bad.detail
        assert statuses[store_key(other.disassembly)].status == "ok"

    def test_unreadable_shard_reported_corrupt(self, store):
        apk = build_heyzap()
        self._populate(store, apk)
        _only_shard_path(store, apk.disassembly).write_text("{torn")
        (entry,) = store.verify()
        assert entry.status == "corrupt" and not entry.ok

    def test_missing_shard_flagged(self, store):
        apk = build_heyzap()
        self._populate(store, apk)
        _only_shard_path(store, apk.disassembly).unlink()
        (entry,) = store.verify()
        assert entry.status == "missing-shard" and not entry.ok

    def test_shifted_manifest_offset_detected(self, store):
        # Shards verify clean individually; a corrupted start_line would
        # compose postings onto the wrong absolute lines, so verify must
        # check that group offsets tile.
        lib = LibrarySpec(package="org.tiled.sdk", seed=5, classes=4)
        apk = generate_app(
            AppSpec(package="com.tiled.host", seed=1, libraries=(lib,))
        ).apk
        key = store_key(apk.disassembly)
        store.save_index(apk.disassembly, TokenIndex.for_disassembly(apk.disassembly))
        path = store._manifest_path(key)
        payload = json.loads(path.read_text())
        assert len(payload["groups"]) >= 2
        payload["groups"][1]["start_line"] += 3
        path.write_text(json.dumps(payload))

        entries = {e.key: e for e in store.verify()}
        assert entries[key].status == "mismatch"
        assert "tile" in entries[key].detail

    def test_torn_manifest_reported_corrupt(self, store):
        key = self._populate(store, build_heyzap())
        store._manifest_path(key).write_text("{torn")
        (entry,) = store.verify()
        assert entry.status == "corrupt" and not entry.ok
        assert "manifest" in entry.detail

    def test_outcome_only_entry_skipped(self, store):
        apk = build_heyzap()
        store.save_outcome(apk.disassembly, "cfg", {"package": "x"})
        (entry,) = store.verify()
        assert entry.status == "no-index" and entry.ok

    def test_stale_format_version_is_a_skip_not_a_failure(self, store):
        # A store written by an older format (e.g. restored from a CI
        # cache prefix) is rebuilt by live runs, never "corruption".
        key = self._populate(store, build_heyzap())
        path = store._manifest_path(key)
        payload = json.loads(path.read_text())
        # v1 predates the compat window (v2 JSON is still readable).
        payload["version"] = 1
        path.write_text(json.dumps(payload))

        (entry,) = store.verify()
        assert entry.status == "stale" and entry.ok
