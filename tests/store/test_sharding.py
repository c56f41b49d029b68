"""Cross-app shard dedup: partitioning, sharing, refcounted gc, parity.

The contracts under test, in the order the satellite checklist names
them: two apps embedding one library persist its shard exactly once; gc
never sweeps a shard any live manifest still references; a manifest
pointing at a missing shard reads as a miss (and the index path patches
only the damaged group); and a shard-composed index is byte-identical
to a freshly built one.
"""

import os
import time

import pytest

from repro.core import BackDroidConfig, analyze_spec, run_batch
from repro.search.backends.indexed import TokenIndex
from repro.store import (
    ArtifactStore,
    group_label,
    partition_disassembly,
    shard_key,
    store_key,
)
from repro.store.artifacts import FORMAT_VERSION
from repro.store.sharding import compose_index, fold_group, shard_payload
from repro.workload.generator import AppSpec, LibrarySpec, generate_app
from repro.workload.paperapps import build_heyzap, build_lg_tv_plus

SHARED_LIB = LibrarySpec(
    package="org.sharedsdk", seed=7, classes=10, methods_per_class=5
)


def _app(package, seed, libraries=(SHARED_LIB,)):
    return AppSpec(
        package=package, seed=seed, libraries=libraries, filler_classes=4
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestPartitioning:
    def test_groups_tile_the_class_sections(self):
        disassembly = generate_app(_app("com.alpha", 1)).apk.disassembly
        groups = partition_disassembly(disassembly)
        assert len(groups) >= 2  # the app's own prefix plus the library
        spans = disassembly.class_spans
        assert groups[0].start_line == spans[0].start_line
        assert groups[-1].end_line == spans[-1].end_line
        for first, second in zip(groups, groups[1:]):
            assert first.end_line == second.start_line
        assert {g.label for g in groups} == {
            group_label(s.class_name) for s in spans
        }

    def test_every_token_lands_in_exactly_one_group(self):
        disassembly = build_lg_tv_plus().disassembly
        groups = partition_disassembly(disassembly)
        recomposed = [
            (g.start_line + rel, kind, text)
            for g in groups
            for rel, kind, text in g.tokens
        ]
        assert recomposed == [
            (t.line_no, t.kind, t.text) for t in disassembly.tokens
        ]

    def test_spanless_disassembly_degrades_to_one_group(self):
        disassembly = build_heyzap().disassembly
        disassembly.class_spans = []
        (group,) = partition_disassembly(disassembly)
        assert group.label == "app"
        assert group.start_line == 0
        assert group.line_count == len(disassembly.lines)
        assert len(group.tokens) == len(disassembly.tokens)

    def test_shard_key_is_position_independent(self):
        # The same library lands at different absolute lines in each
        # app, yet hashes to the same shard.
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        two = generate_app(
            AppSpec(package="com.zulu", seed=9, libraries=(SHARED_LIB,),
                    filler_classes=9)
        ).apk.disassembly
        lib_one = next(
            g for g in partition_disassembly(one) if g.label == "org.sharedsdk"
        )
        lib_two = next(
            g for g in partition_disassembly(two) if g.label == "org.sharedsdk"
        )
        assert lib_one.start_line != lib_two.start_line
        assert shard_key(lib_one) == shard_key(lib_two)

    def test_different_library_shape_changes_the_shard_key(self):
        # The shard key addresses exactly what the shard stores: the
        # group's searchable tokens and line span.  A library variant
        # with different members (here: one more method per class, so
        # different signatures and line counts) must hash differently.
        lib_b = LibrarySpec(package="org.sharedsdk", seed=7, classes=10,
                            methods_per_class=6)
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        two = generate_app(_app("com.alpha", 1, (lib_b,))).apk.disassembly
        keys = [
            shard_key(
                next(g for g in partition_disassembly(d)
                     if g.label == "org.sharedsdk")
            )
            for d in (one, two)
        ]
        assert keys[0] != keys[1]


class TestCrossAppDedup:
    def test_shared_library_persists_once(self, store):
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        two = generate_app(_app("com.beta", 2)).apk.disassembly
        store.save_index(one, TokenIndex.for_disassembly(one))
        shards_after_first = store.describe().shards
        store.save_index(two, TokenIndex.for_disassembly(two))
        inventory = store.describe()

        # Only the second app's own group was new.
        assert inventory.shards == shards_after_first + 1
        assert store.stats.shards_shared >= 1
        assert inventory.shard_refs == inventory.shards + 1
        assert inventory.bytes_saved > 0
        assert inventory.dedup_ratio > 1.0

    def test_identical_rebuild_shares_every_shard(self, store):
        # "Two apps sharing every shard": a byte-identical rebuild of
        # the same app publishes nothing new — every group is shared.
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(one, TokenIndex.for_disassembly(one))
        writes_before = store.stats.writes
        shared_before = store.stats.shards_shared
        rebuilt = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(rebuilt)
        assert store.stats.shards_shared - shared_before == \
            len(store._groups(rebuilt))
        # Only the manifest was rewritten.
        assert store.stats.writes == writes_before + 1

    def test_second_app_warm_starts_off_the_first_apps_library(self, store):
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(one, TokenIndex.for_disassembly(one))

        # The second app was never saved, yet its library group is
        # already on disk: the restore composes it and patches only the
        # app's own groups.
        two = generate_app(_app("com.beta", 2)).apk.disassembly
        restored = store.load_index(two)
        fresh = TokenIndex(two)
        assert restored is not None
        assert 0 < restored.patched_groups < len(store._groups(two))
        assert store.stats.partial_hits == 1
        assert restored.vocab == fresh.vocab
        assert restored.postings == fresh.postings
        assert restored.containing == fresh.containing


class TestRefcountedGc:
    def _age(self, *paths, seconds=7200.0):
        stamp = time.time() - seconds
        for path in paths:
            os.utime(path, (stamp, stamp))

    def test_live_reference_protects_a_shared_shard(self, store):
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        two = generate_app(_app("com.beta", 2)).apk.disassembly
        store.save_index(one, TokenIndex.for_disassembly(one))
        store.save_index(two, TokenIndex.for_disassembly(two))

        # Age the first app's entry and every shard; the second app's
        # manifest stays fresh and must keep the shared library shard
        # alive regardless of its age.
        self._age(*store.entry_dir(store_key(one)).iterdir())
        self._age(*store._shard_files())
        result = store.gc(max_age_seconds=3600.0)

        assert result.entries_removed == 1
        assert result.shards_removed >= 1  # the first app's own groups
        survivors = {p.stem for p in store._shard_files()}
        assert survivors == {sha for _, sha in store._groups(two)}
        # The surviving entry still restores whole.
        restored = store.load_index(two)
        assert restored is not None and restored.patched_groups == 0

    def test_unreferenced_shards_swept_once_last_manifest_dies(self, store):
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(one, TokenIndex.for_disassembly(one))
        self._age(*store.entry_dir(store_key(one)).iterdir())
        self._age(*store._shard_files())
        result = store.gc(max_age_seconds=3600.0)
        assert result.entries_removed == 1
        assert result.shards_removed == len(store._groups(one))
        assert store.describe().shards == 0

    def test_sharing_a_shard_refreshes_its_age(self, store):
        # A writer that *shares* an old shard (publishes only a manifest
        # reference) must re-arm gc's age gate on it, so the shard stays
        # protected even in the window before the manifest lands.
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(one, TokenIndex.for_disassembly(one))
        lib_sha = next(
            sha for group, sha in store._groups(one)
            if group.label == "org.sharedsdk"
        )
        self._age(store._shard_path(lib_sha))
        old_mtime = store._shard_path(lib_sha).stat().st_mtime

        two = generate_app(_app("com.beta", 2)).apk.disassembly
        store.save_index(two, TokenIndex.for_disassembly(two))
        assert store._shard_path(lib_sha).stat().st_mtime > old_mtime

    def test_fresh_unreferenced_shard_survives_an_aged_sweep(self, store):
        # A concurrent writer publishes shards before its manifest; an
        # aged gc must not reclaim them mid-publish.
        one = generate_app(_app("com.alpha", 1)).apk.disassembly
        for group, sha in store._groups(one):
            store._write_json(
                store._shard_path(sha),
                shard_payload(group, sha, FORMAT_VERSION),
            )
        result = store.gc(max_age_seconds=3600.0)
        assert result.shards_removed == 0
        assert store.describe().shards == len(store._groups(one))


class TestComposeParity:
    def _parity(self, restored, fresh):
        assert restored.vocab == fresh.vocab
        assert restored.postings == fresh.postings
        assert restored.exact == fresh.exact
        assert restored.containing == fresh.containing
        assert restored._string_ids == fresh._string_ids
        assert restored.posting_entries == fresh.posting_entries

    def test_composed_index_matches_fresh_build(self, store):
        for build in (build_heyzap, build_lg_tv_plus):
            disassembly = build().disassembly
            store.save_index(disassembly, TokenIndex.for_disassembly(disassembly))
            restored = store.load_index(build().disassembly)
            assert restored is not None and restored.restored
            assert restored.build_seconds == 0.0
            self._parity(restored, TokenIndex.for_disassembly(disassembly))

    def test_patched_composition_is_still_byte_identical(self, store):
        disassembly = generate_app(_app("com.alpha", 1)).apk.disassembly
        store.save_index(disassembly, TokenIndex.for_disassembly(disassembly))
        victim = store._groups(disassembly)[-1][1]
        store._shard_path(victim).unlink()

        rebuilt = generate_app(_app("com.alpha", 1)).apk.disassembly
        restored = store.load_index(rebuilt)
        assert restored is not None and restored.patched_groups == 1
        self._parity(restored, TokenIndex(disassembly))

    def test_compose_from_raw_payloads_matches_token_fold(self):
        # The composition primitive itself, without any store I/O.
        disassembly = build_lg_tv_plus().disassembly
        parts = []
        for group in partition_disassembly(disassembly):
            sha = shard_key(group)
            parts.append(
                (group.start_line, shard_payload(group, sha, FORMAT_VERSION))
            )
        composed = compose_index(parts)
        self._parity(composed, TokenIndex(disassembly))

    def test_fold_group_matches_token_index_fold(self):
        disassembly = build_heyzap().disassembly
        triples = [(t.line_no, t.kind, t.text) for t in disassembly.tokens]
        vocab, postings, string_ids, containing = fold_group(triples)
        fresh = TokenIndex(disassembly)
        assert vocab == fresh.vocab
        assert postings == fresh.postings
        assert string_ids == fresh._string_ids
        assert containing == fresh.containing


class TestPipelineIntegration:
    def _config(self, tmp_path, **kwargs):
        return BackDroidConfig(
            search_backend="indexed",
            store_dir=str(tmp_path / "store"),
            **kwargs,
        )

    def test_analyze_spec_reports_patched_shards(self, tmp_path):
        config = self._config(tmp_path)
        first = analyze_spec(_app("com.alpha", 1), config)
        assert first.ok and first.shards_patched == 0

        # A different app sharing the library: its first-ever analysis
        # is already warm-partial thanks to cross-app dedup.
        second = analyze_spec(_app("com.beta", 2), config)
        assert second.ok
        assert second.index_restored
        assert second.shards_patched >= 1

    def test_batch_aggregates_partial_restores(self, tmp_path):
        config = self._config(tmp_path)
        specs = [_app("com.alpha", 1), _app("com.beta", 2),
                 _app("com.gamma", 3)]
        result = run_batch(specs, config, executor="serial",
                           session_cache_size=0)
        assert not result.failures
        # Apps after the first ride the shared library shard.
        assert result.partial_restores >= 2
        assert result.shards_patched >= 2
        assert "partial" in result.render()
        payload = result.as_dict()
        assert payload["aggregate"]["store"]["partial_restores"] >= 2

    def test_probe_classifies_sibling_app_partial_after_specmap(self, tmp_path):
        from repro.core.batch import probe_spec

        config = self._config(tmp_path)
        store = config.artifact_store()
        spec = _app("com.beta", 2)
        assert analyze_spec(_app("com.alpha", 1), config).ok
        assert analyze_spec(spec, config).ok

        # Drop the beta app's own shard: the next probe sees a partial
        # entry and still schedules it warm.
        disassembly = generate_app(spec).apk.disassembly
        own = next(
            sha for group, sha in store._groups(disassembly)
            if group.label != "org.sharedsdk"
        )
        store._shard_path(own).unlink()
        key, level = probe_spec(spec, store, None)
        assert key == store_key(disassembly)
        assert level == "partial"
        from repro.core.batch import level_is_warm

        assert level_is_warm(level, config)
