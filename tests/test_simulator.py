from __future__ import annotations

import json
import shutil

import pytest

from synctrail.acquisition import ingest_cloud_log, ingest_device_dump
from synctrail.correlation import (
    digest_index,
    estimate_clock_skew,
    match_synced_artifacts,
    zero_skew,
)
from synctrail.errors import EmptyBundle
from synctrail.preservation import load_sealed_manifest, seal_dump, verify_chain, write_sealed_manifest
from synctrail.simulator import Lcg64, SimParams, generate_case, inject_tamper


def bundle_bytes(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestLcg64:
    def test_documented_constants(self):
        rng = Lcg64(0)
        assert rng.next_u64() == 1442695040888963407
        assert rng.next_u64() == (
            1442695040888963407 * 6364136223846793005 + 1442695040888963407
        ) % 2**64

    def test_same_seed_same_stream(self):
        a, b = Lcg64(99), Lcg64(99)
        assert [a.randint(0, 100) for _ in range(50)] == [b.randint(0, 100) for _ in range(50)]

    def test_randrange_bounds(self):
        rng = Lcg64(7)
        draws = [rng.randrange(10) for _ in range(200)]
        assert min(draws) >= 0 and max(draws) <= 9
        assert len(set(draws)) > 1


class TestGenerateCase:
    def test_all_counts_zero_gives_empty_case(self, tmp_path):
        params = SimParams(seed=1, n_apps=0, n_messages=0, n_calls=0, n_uploads=0)
        case = generate_case(params, tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        assert dump.records == ()
        assert dump.ledger == ()
        assert ingest_cloud_log(case.cloud_log) == []
        assert case.ground_truth.true_links == ()
        assert case.ground_truth.uninstalled_packages == ()

    def test_same_seed_byte_identical(self, tmp_path):
        params = SimParams(seed=1234, n_uploads=5, skew_seconds=-300)
        case_a = generate_case(params, tmp_path / "a")
        case_b = generate_case(params, tmp_path / "b")
        assert bundle_bytes(case_a.bundle_dir) == bundle_bytes(case_b.bundle_dir)
        assert case_a.cloud_log.read_bytes() == case_b.cloud_log.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate_case(SimParams(seed=1), tmp_path / "a")
        b = generate_case(SimParams(seed=2), tmp_path / "b")
        assert bundle_bytes(a.bundle_dir) != bundle_bytes(b.bundle_dir)

    def test_ingests_with_zero_ledger_and_round_trips(self, tmp_path):
        case = generate_case(SimParams(seed=321, n_uploads=6), tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        written = sum(
            len(path.read_bytes().splitlines()) for path in case.bundle_dir.glob("*.jsonl")
        )
        assert dump.ledger == ()
        assert len(dump.records) + len(dump.ledger) == written > 0

    def test_link_count_equals_uploads_when_digest_logged(self, tmp_path):
        case = generate_case(SimParams(seed=55, n_uploads=9, digest_logging=True), tmp_path)
        assert len(case.ground_truth.true_links) == 9
        events = ingest_cloud_log(case.cloud_log)
        assert sum(1 for e in events if e.content_digest is not None) == 9

    def test_no_digest_logging_forces_metadata_matches(self, tmp_path):
        case = generate_case(
            SimParams(seed=56, n_uploads=6, digest_logging=False, skew_seconds=0), tmp_path
        )
        dump = ingest_device_dump(case.bundle_dir)
        events = ingest_cloud_log(case.cloud_log)
        assert all(e.content_digest is None for e in events)
        links = match_synced_artifacts(dump.records, events, zero_skew())
        assert links
        assert all(link["tier"] == "MetadataWindow" for link in links)

    def test_pipeline_recovers_all_links(self, tmp_path):
        case = generate_case(SimParams(seed=42, n_uploads=10, skew_seconds=300), tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        events = ingest_cloud_log(case.cloud_log)
        skew, short = estimate_clock_skew(digest_index(dump.records, events))
        assert short is None
        links = match_synced_artifacts(dump.records, events, skew)
        exact = {
            (l["device_record_id"], l["cloud_event_id"])
            for l in links
            if l["tier"] == "ExactDigest"
        }
        assert exact == set(case.ground_truth.true_links)
        assert len(case.ground_truth.true_links) == 10

    def test_uninstalled_packages_mirrored_in_cloud(self, tmp_path):
        case = generate_case(SimParams(seed=60, n_apps=10, uninstall_fraction=0.4), tmp_path)
        assert len(case.ground_truth.uninstalled_packages) == 4
        events = ingest_cloud_log(case.cloud_log)
        for package in case.ground_truth.uninstalled_packages:
            kinds = {e.kind.value for e in events if e.package_or_object == package}
            assert kinds == {"Install", "Uninstall"}

    def test_ground_truth_file_matches_object(self, tmp_path):
        case = generate_case(SimParams(seed=61, n_uploads=3), tmp_path)
        data = json.loads((tmp_path / "ground_truth.json").read_text())
        assert list(data) == ["true_links", "true_skew_seconds", "uninstalled_packages"]
        assert [tuple(x) for x in data["true_links"]] == list(case.ground_truth.true_links)
        assert data["true_skew_seconds"] == case.ground_truth.true_skew_seconds
        assert data["uninstalled_packages"] == list(case.ground_truth.uninstalled_packages)


class TestInjectTamper:
    def seal(self, case):
        dump = ingest_device_dump(case.bundle_dir)
        write_sealed_manifest(seal_dump(dump), case.bundle_dir)

    def test_verify_flags_reported_index(self, tmp_path):
        case = generate_case(SimParams(seed=70), tmp_path)
        self.seal(case)
        _, index = inject_tamper(case.bundle_dir, seed=5)
        report = verify_chain(
            load_sealed_manifest(case.bundle_dir),
            ingest_device_dump(case.bundle_dir).records,
        )
        assert report["verdict"] == "Tampered"
        assert report["first_divergent_index"] == index

    def test_fixed_seed_fixed_flip(self, tmp_path):
        case = generate_case(SimParams(seed=71), tmp_path / "x")
        copy_a = tmp_path / "a"
        copy_b = tmp_path / "b"
        shutil.copytree(case.bundle_dir, copy_a)
        shutil.copytree(case.bundle_dir, copy_b)
        _, index_a = inject_tamper(copy_a, seed=9)
        _, index_b = inject_tamper(copy_b, seed=9)
        assert index_a == index_b
        assert bundle_bytes(copy_a) == bundle_bytes(copy_b)

    def test_single_record_bundle_tampers_index_zero(self, tmp_path):
        bundle = tmp_path / "one"
        bundle.mkdir()
        (bundle / "manifest.json").write_text(
            json.dumps(
                {"dump_id": "one", "collected_at": "2016-05-12T10:00:00Z", "zone_offset_minutes": 0}
            )
        )
        (bundle / "messages.jsonl").write_text('{"id":"m1","peer":"+1","body":"hello"}\n')
        _, index = inject_tamper(bundle, seed=1)
        assert index == 0

    def test_empty_bundle_rejected(self, tmp_path):
        params = SimParams(seed=72, n_apps=0, n_messages=0, n_calls=0, n_uploads=0)
        case = generate_case(params, tmp_path)
        with pytest.raises(EmptyBundle):
            inject_tamper(case.bundle_dir, seed=2)

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_lines_are_split_as_ingest_splits_them(self, tmp_path, ending):
        # str.splitlines also breaks at U+2028, U+0085 and U+2029, which
        # ingest keeps inside a line; a CRLF file must keep its endings.
        params = SimParams(seed=74, n_apps=1, n_messages=6, n_calls=1, n_uploads=1)
        case = generate_case(params, tmp_path / "case")
        messages = case.bundle_dir / "messages.jsonl"
        rows = [json.loads(line) for line in messages.read_bytes().splitlines()]
        rows[0]["body"] = "one\u2028two\u0085three\u2029four"
        messages.write_bytes(b"".join(
            json.dumps(row, ensure_ascii=False).encode("utf-8") + b"\n" for row in rows
        ))
        for path in case.bundle_dir.glob("*.jsonl"):
            path.write_bytes(path.read_bytes().replace(b"\n", ending))
        before = ingest_device_dump(case.bundle_dir)
        original = bundle_bytes(case.bundle_dir)
        hit_messages = 0
        for seed in range(12):
            copy = tmp_path / str(seed)
            shutil.copytree(case.bundle_dir, copy)
            _, index = inject_tamper(copy, seed=seed)
            tampered = bundle_bytes(copy)
            changed = [name for name in original if tampered[name] != original[name]]
            assert len(changed) == 1, seed
            old_lines = original[changed[0]].splitlines(keepends=True)
            new_lines = tampered[changed[0]].splitlines(keepends=True)
            assert len(new_lines) == len(old_lines)
            differ = [i for i, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b]
            assert len(differ) == 1 and new_lines[differ[0]].endswith(ending), seed
            after = ingest_device_dump(copy)
            assert after.ledger == before.ledger == ()
            assert [r.record_id for r in after.records] == [r.record_id for r in before.records]
            for i, (old, new) in enumerate(zip(before.records, after.records)):
                if i != index:
                    assert new == old, (seed, i)
            old_attrs, new_attrs = before.records[index].attributes, after.records[index].attributes
            keys = [key for key in old_attrs if old_attrs[key] != new_attrs[key]]
            assert len(keys) == 1 and old_attrs.keys() == new_attrs.keys(), seed
            old_value, new_value = old_attrs[keys[0]], new_attrs[keys[0]]
            assert len(old_value) == len(new_value)
            assert sum(a != b for a, b in zip(old_value, new_value)) == 1, seed
            hit_messages += changed[0] == "messages.jsonl"
        assert hit_messages >= 3

    def test_tampered_bundle_still_ingests_cleanly(self, tmp_path):
        case = generate_case(SimParams(seed=73), tmp_path)
        self.seal(case)
        inject_tamper(case.bundle_dir, seed=3)
        dump = ingest_device_dump(case.bundle_dir)
        assert dump.ledger == ()  # mutation must hit a hash, not the parser
