from __future__ import annotations

import hashlib
import json
import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synctrail.acquisition import DeviceDump, ingest_device_dump
from synctrail.cli import run
from synctrail.errors import DeviceMismatch, RecordCountMismatch, UnsupportedAlgorithm
from synctrail.evidence import (
    ArtifactCategory,
    EvidenceRecord,
    canonical_encode,
)
from synctrail.preservation import (
    IsolationMethod,
    chain_digest,
    diff_acquisitions,
    load_sealed_manifest,
    manifest_header_bytes,
    seal_dump,
    verify_chain,
    write_sealed_manifest,
)
from synctrail.simulator import SimParams, generate_case, inject_tamper


def record(rid: str, **attrs: str) -> EvidenceRecord:
    return EvidenceRecord(
        record_id=rid,
        category=ArtifactCategory.MESSAGE,
        timestamp=None,
        attributes=attrs,
    )


HEADER_FIELDS = {
    "dump_id": "d-1",
    "collected_at": "2016-05-12T10:00:00Z",
    "examiner": "jdoe",
    "digest_algorithm": "sha-256",
}
HEADER = manifest_header_bytes(HEADER_FIELDS)


def mutate_record(original: EvidenceRecord, key: str, position: int) -> EvidenceRecord:
    value = original.attributes[key]
    flipped = "x" if value[position] != "x" else "y"
    attrs = dict(original.attributes)
    attrs[key] = value[:position] + flipped + value[position + 1 :]
    return EvidenceRecord(
        record_id=original.record_id,
        category=original.category,
        timestamp=original.timestamp,
        attributes=attrs,
    )


class TestChainDigest:
    def test_empty_chain_is_header_digest(self):
        head, links = chain_digest(HEADER, [])
        assert links == []
        assert head == hashlib.sha256(HEADER).digest()

    def test_single_record_against_external_tool(self, tmp_path):
        tool = shutil.which("sha256sum")
        assert tool
        r = record("r1", body="hello")
        head, links = chain_digest(HEADER, [r])
        h0 = hashlib.sha256(HEADER).digest()
        blob = tmp_path / "link.bin"
        blob.write_bytes(h0 + canonical_encode(r))
        out = subprocess.run([tool, str(blob)], capture_output=True, text=True, check=True)
        assert out.stdout.split()[0] == head.hex() == links[0].hex()

    def test_permutation_changes_head(self):
        a, b = record("r1", k="1"), record("r2", k="2")
        head_ab, _ = chain_digest(HEADER, [a, b])
        head_ba, _ = chain_digest(HEADER, [b, a])
        assert head_ab != head_ba

    def test_links_prefix_property(self):
        records = [record(f"r{i}", k=str(i)) for i in range(5)]
        head, links = chain_digest(HEADER, records)
        assert links[-1] == head
        for n in range(5):
            prefix_head, prefix_links = chain_digest(HEADER, records[:n])
            assert prefix_links == links[:n]


class TestVerifyChain:
    def make_sealed(self, records) -> dict:
        head, links = chain_digest(HEADER, records)
        return {
            **HEADER_FIELDS,
            "isolation_method": IsolationMethod.AIRPLANE_MODE.value,
            "record_count": len(records),
            "chain_head": head.hex(),
            "record_links": [link.hex() for link in links],
        }

    def test_unmodified_is_intact(self):
        records = [record(f"r{i}", k=str(i)) for i in range(8)]
        report = verify_chain(self.make_sealed(records), records)
        assert report["verdict"] == "Intact"
        assert report["first_divergent_index"] is None
        assert report["expected"] is None and report["actual"] is None

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_flip_localized_to_index(self, k):
        records = [record(f"r{i}", k=f"value-{i}") for i in range(8)]
        manifest = self.make_sealed(records)
        tampered = list(records)
        tampered[k] = mutate_record(records[k], "k", 2)
        report = verify_chain(manifest, tampered)
        assert report["verdict"] == "Tampered"
        assert report["first_divergent_index"] == k
        assert report["expected"] is not None and report["actual"] is not None

    def test_altered_head_with_every_link_intact_is_tampered_at_index_0(self):
        records = [record(f"r{i}", k=str(i)) for i in range(8)]
        manifest = self.make_sealed(records)
        head = manifest["chain_head"]
        manifest["chain_head"] = "0" * 64
        assert verify_chain(manifest, records) == {
            "verdict": "Tampered",
            "first_divergent_index": 0,
            "expected": "0" * 64,
            "actual": head,
        }

    def test_an_edited_stored_link_is_tampered_at_its_index(self):
        records = [record(f"r{i}", k=str(i)) for i in range(8)]
        manifest = self.make_sealed(records)
        stored = manifest["record_links"][3]
        manifest["record_links"][3] = "0" * 64
        assert verify_chain(manifest, records) == {
            "verdict": "Tampered",
            "first_divergent_index": 3,
            "expected": "0" * 64,
            "actual": stored,
        }

    def test_appended_record_is_count_mismatch(self):
        records = [record("r1", k="1")]
        manifest = self.make_sealed(records)
        with pytest.raises(RecordCountMismatch):
            verify_chain(manifest, records + [record("r2", k="2")])

    def test_unsupported_algorithm(self):
        records = [record("r1", k="1")]
        manifest = self.make_sealed(records)
        manifest["digest_algorithm"] = "md5"
        with pytest.raises(UnsupportedAlgorithm):
            verify_chain(manifest, records)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tamper_completeness_random_mutations(self, data):
        records = [record(f"r{i}", payload=f"payload-{i:03d}") for i in range(6)]
        manifest = self.make_sealed(records)
        k = data.draw(st.integers(min_value=0, max_value=5))
        pos = data.draw(st.integers(min_value=0, max_value=len("payload-000") - 1))
        tampered = list(records)
        tampered[k] = mutate_record(records[k], "payload", pos)
        report = verify_chain(manifest, tampered)
        assert report["verdict"] == "Tampered"
        assert report["first_divergent_index"] == k


class TestSealAndLoad:
    def test_round_trip_through_sealed_file(self, tmp_path):
        case = generate_case(SimParams(seed=11, n_uploads=3), tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        manifest = seal_dump(dump, examiner="jdoe", isolation_method=IsolationMethod.POWERED_OFF)
        path = write_sealed_manifest(manifest, case.bundle_dir)
        assert path.name == "manifest.sealed.json"
        loaded = load_sealed_manifest(case.bundle_dir)
        assert loaded == manifest
        assert verify_chain(loaded, dump.records)["verdict"] == "Intact"

    def test_sealed_file_carries_hex_fields(self, tmp_path):
        case = generate_case(SimParams(seed=12, n_uploads=1), tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        write_sealed_manifest(seal_dump(dump), case.bundle_dir)
        data = json.loads((case.bundle_dir / "manifest.sealed.json").read_text())
        assert data["digest_algorithm"] == "sha-256"
        assert len(data["chain_head"]) == 64
        assert len(data["record_links"]) == data["record_count"] == len(dump.records)


def rewrite_sealed(bundle, change) -> None:
    """Apply ``change`` to the parsed sealed manifest and write it back."""
    path = bundle / "manifest.sealed.json"
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data, indent=2) + "\n")


def uppercase_digests(data: dict) -> None:
    data["chain_head"] = data["chain_head"].upper()
    data["record_links"] = [link.upper() for link in data["record_links"]]


class TestSealedManifestAsWritten:
    """What verify accepts of a sealed manifest edited by hand, and what it reports."""

    def sealed_case(self, tmp_path):
        case = generate_case(SimParams(seed=31, n_uploads=3), tmp_path / "case")
        assert run(["seal", str(case.bundle_dir)]) == 0
        return case.bundle_dir

    def test_uppercase_head_and_links_verify_intact(self, tmp_path):
        bundle = self.sealed_case(tmp_path)
        rewrite_sealed(bundle, uppercase_digests)
        assert run(["verify", str(bundle)]) == 0

    def test_uppercase_divergent_link_is_reported_in_lowercase(self, tmp_path):
        bundle = self.sealed_case(tmp_path)
        links = json.loads((bundle / "manifest.sealed.json").read_text())["record_links"]
        rewrite_sealed(bundle, uppercase_digests)
        _, index = inject_tamper(bundle, seed=7)
        out = tmp_path / "out"
        assert run(["verify", str(bundle), "--out", str(out)]) == 3
        verification = json.loads((out / "verification.json").read_text())
        assert verification["verdict"] == "Tampered"
        assert verification["first_divergent_index"] == index
        assert verification["expected"] == links[index]
        assert verification["expected"] == verification["expected"].lower()

    def test_offset_form_of_collected_at_verifies_intact(self, tmp_path):
        bundle = self.sealed_case(tmp_path)

        def offset_form(data: dict) -> None:
            assert data["collected_at"].endswith("Z")
            data["collected_at"] = data["collected_at"][:-1] + "+00:00"

        rewrite_sealed(bundle, offset_form)
        assert run(["verify", str(bundle)]) == 0


class TestDiffAcquisitions:
    def test_reflexive_diff_is_empty(self, tmp_path):
        case = generate_case(SimParams(seed=21), tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        diff = diff_acquisitions(dump, dump)
        assert diff["added"] == diff["removed"] == diff["changed"] == []
        assert diff["identical_count"] == len(dump.records)

    def test_appended_message_shows_as_added(self, tmp_path):
        case = generate_case(SimParams(seed=22), tmp_path)
        second = tmp_path / "second"
        shutil.copytree(case.bundle_dir, second)
        with open(second / "messages.jsonl", "a", encoding="utf-8") as handle:
            handle.write(
                '{"id":"msg-9999","peer":"+353870000001","body":"late",'
                '"direction":"Incoming","delivered_at":"2016-05-14T12:00:00Z"}\n'
            )
        a = ingest_device_dump(case.bundle_dir)
        b = ingest_device_dump(second)
        diff = diff_acquisitions(a, b)
        assert diff["added"] == ["msg-9999"]
        assert diff["removed"] == [] and diff["changed"] == []

    def test_modified_timestamp_shows_as_changed(self, tmp_path):
        case = generate_case(SimParams(seed=23, n_apps=4), tmp_path)
        second = tmp_path / "second"
        shutil.copytree(case.bundle_dir, second)
        path = second / "installed_apps.jsonl"
        lines = path.read_text().splitlines()
        fields = json.loads(lines[0])
        fields["installed"] = "01/01/2016 01:01:01 AM"
        lines[0] = json.dumps(fields, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        diff = diff_acquisitions(
            ingest_device_dump(case.bundle_dir), ingest_device_dump(second)
        )
        assert diff["changed"] == [json.loads(lines[0])["id"]]
        assert diff["added"] == [] and diff["removed"] == []

    def test_device_mismatch_requires_override(self, tmp_path):
        case_a = generate_case(SimParams(seed=24), tmp_path / "a")
        case_b = generate_case(SimParams(seed=25), tmp_path / "b")
        a = ingest_device_dump(case_a.bundle_dir)
        b = ingest_device_dump(case_b.bundle_dir)
        with pytest.raises(DeviceMismatch):
            diff_acquisitions(a, b)
        diff = diff_acquisitions(a, b, allow_device_mismatch=True)
        assert diff["identical_count"] >= 0

    @pytest.mark.parametrize(
        "imei_a, imei_b, reason",
        [
            (None, None, "neither dump states an IMEI, so the dumps cannot be shown to come "
                         "from one device"),
            (None, "356938035643809", "the first dump states no IMEI, so the dumps cannot be "
                                      "shown to come from one device"),
            ("356938035643809", None, "the second dump states no IMEI, so the dumps cannot be "
                                      "shown to come from one device"),
            ("356938035643809", "356938035643810",
             "dumps claim different devices (imei '356938035643809' vs '356938035643810')"),
        ],
    )
    def test_a_refusal_names_its_reason(self, golden_bundle, imei_a, imei_b, reason):
        dump = ingest_device_dump(golden_bundle)
        a, b = (
            DeviceDump(dump.dump_id, dump.collected_at, dump.zone_offset_minutes, dump.tool_name,
                       dump.tool_version, {**dump.device, "imei": imei}, dump.records)
            for imei in (imei_a, imei_b)
        )
        with pytest.raises(DeviceMismatch) as raised:
            diff_acquisitions(a, b)
        assert str(raised.value) == f"{reason}; pass the override flag to diff anyway"

    def test_symmetry_up_to_swapping(self, tmp_path):
        case = generate_case(SimParams(seed=26), tmp_path)
        second = tmp_path / "second"
        shutil.copytree(case.bundle_dir, second)
        with open(second / "calls.jsonl", "a", encoding="utf-8") as handle:
            handle.write(
                '{"id":"call-9999","peer":"+353870000002","direction":"Outgoing",'
                '"at":"2016-05-14T13:00:00Z"}\n'
            )
        a = ingest_device_dump(case.bundle_dir)
        b = ingest_device_dump(second)
        ab = diff_acquisitions(a, b)
        ba = diff_acquisitions(b, a)
        assert ab["added"] == ba["removed"]
        assert ab["removed"] == ba["added"]
        assert ab["changed"] == ba["changed"]
        assert ab["identical_count"] == ba["identical_count"]
