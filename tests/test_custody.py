"""Custody over every file ingest reads: the sealed file table, head and locale.

A seal records the length and SHA-256 of `manifest.json` and of each
category file ingest read, the names of unrecognized `*.jsonl` files,
the isolation method and the locale, and a chain head over all of them
and every record link. `verify` decides an intact bundle from that table
alone, and reads and walks the bundle only when something differs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synctrail import cli, preservation
from synctrail.acquisition import file_table, ingest_device_dump
from synctrail.cli import run
from synctrail.errors import FileTableMismatch
from synctrail.evidence import Locale
from synctrail.preservation import (
    check_file_table,
    head_digest,
    load_sealed_manifest,
    seal_dump,
    sealed_header_bytes,
    verify_chain,
)
from synctrail.simulator import inject_tamper

DATA_DIR = Path(__file__).parent / "data"
TAMPERED = "chain verdict: Tampered"
LEGACY_NOTE = (
    "note: manifest.sealed.json seals no file table, so only the bundle's records are verified"
)
MONTH_FIRST_NOTE = (
    "note: the bundle was sealed reading --locale day-first; its custody is verified with that "
    "locale, not month-first"
)


def sealed_copy(tmp: Path, name: str = "golden") -> Path:
    bundle = tmp / name
    shutil.copytree(DATA_DIR / name / "bundle", bundle)
    assert run(["seal", str(bundle)]) == 0
    return bundle


def verify(bundle: Path, capsys, *extra: str) -> tuple[int, list[str]]:
    capsys.readouterr()
    code = run(["verify", str(bundle), *extra])
    return code, capsys.readouterr().err.splitlines()


def rewrite_sealed(bundle: Path, change) -> None:
    path = bundle / "manifest.sealed.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    change(data)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestEachHoleTheTableCloses:
    """Each edit left `verify` at Intact, exit 0, before seals held a file table."""

    def test_zone_offset_changed_in_manifest_json(self, tmp_path, capsys):
        bundle = sealed_copy(tmp_path)
        path = bundle / "manifest.json"
        sealed = (path.stat().st_size, digest(path))
        path.write_text(
            path.read_text().replace('"zone_offset_minutes": 0', '"zone_offset_minutes": 600')
        )
        assert verify(bundle, capsys) == (3, [
            f"verification failed: manifest.json is {path.stat().st_size} bytes with SHA-256 "
            f"{digest(path)}; sealed {sealed[0]} bytes with SHA-256 {sealed[1]}",
            TAMPERED,
        ])

    def test_isolation_method_edited_in_the_sealed_manifest(self, tmp_path, capsys):
        bundle = sealed_copy(tmp_path)
        rewrite_sealed(bundle, lambda data: data.update(isolation_method="AirplaneMode"))
        assert verify(bundle, capsys) == (3, [
            "verification failed: manifest.sealed.json was edited: its chain head does not "
            "follow from its header and record links",
            TAMPERED,
        ])

    @pytest.mark.parametrize("edit", ["delete", "add"])
    def test_a_ledgered_line_deleted_or_added(self, tmp_path, capsys, edit):
        bundle = sealed_copy(tmp_path, "comm_shapes")
        path = bundle / "messages.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        assert lines[-1] == b"[1,2]\n"
        path.write_bytes(b"".join(lines[:-1] if edit == "delete" else [*lines, b"[1,2]\n"]))
        code, stderr = verify(bundle, capsys)
        assert (code, stderr[1:]) == (3, [TAMPERED])
        assert stderr[0].startswith("verification failed: messages.jsonl is ")

    def test_an_unrecognized_jsonl_file_added(self, tmp_path, capsys):
        bundle = sealed_copy(tmp_path)
        (bundle / "notes.jsonl").write_text('{"id":"n1"}\n')
        assert verify(bundle, capsys) == (3, [
            "verification failed: notes.jsonl was not in the bundle when it was sealed",
            TAMPERED,
        ])

    def test_run_all_sees_a_deleted_ledgered_line_too(self, tmp_path, capsys):
        bundle = sealed_copy(tmp_path, "comm_shapes")
        path = bundle / "messages.jsonl"
        path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))
        out = tmp_path / "out"
        log = DATA_DIR / "comm_shapes" / "cloud_events.jsonl"
        assert run(["run-all", str(bundle), str(log), "--out", str(out)]) == 3
        assert json.loads((out / "verification.json").read_text()) == {
            "verdict": "Tampered", "first_divergent_index": 0, "expected": None, "actual": None,
        }


def test_seal_refuses_a_sealed_bundle(tmp_path, capsys):
    """Sealing again would launder an edit made since the first seal."""
    bundle = sealed_copy(tmp_path)
    manifest = bundle / "manifest.sealed.json"
    sealed = manifest.read_bytes()
    with open(bundle / "running_apps.jsonl", "ab") as handle:
        handle.write(b'{"id":"run-0009","name":"Late"}\n')
    capsys.readouterr()
    assert run(["seal", str(bundle)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"error: {manifest} already exists; remove it before sealing again"
    ]
    assert manifest.read_bytes() == sealed
    code, stderr = verify(bundle, capsys)
    assert (code, stderr[-1]) == (3, TAMPERED)


class TestSealedLocale:
    def test_verify_with_another_locale_is_intact_with_one_note(self, tmp_path, capsys):
        bundle = sealed_copy(tmp_path)
        assert verify(bundle, capsys, "--locale", "month-first") == (
            0, [MONTH_FIRST_NOTE, "chain verdict: Intact"]
        )

    def test_run_all_with_another_locale_is_intact_with_one_note(self, tmp_path, capsys):
        bundle = sealed_copy(tmp_path)
        out = tmp_path / "out"
        log = DATA_DIR / "golden" / "cloud_events.jsonl"
        capsys.readouterr()
        argv = ["run-all", str(bundle), str(log), "--out", str(out), "--locale", "month-first"]
        assert run(argv) == 0
        stderr = capsys.readouterr().err.splitlines()
        assert [line for line in stderr if "locale" in line] == [MONTH_FIRST_NOTE]
        assert "chain verdict: Intact" in stderr

    def test_a_tampered_bundle_is_walked_with_the_sealed_locale(self, tmp_path, capsys):
        bundle = sealed_copy(tmp_path)
        _, index = inject_tamper(bundle, 3)
        out = tmp_path / "out"
        code, stderr = verify(bundle, capsys, "--locale", "month-first", "--out", str(out))
        assert (code, stderr) == (3, [MONTH_FIRST_NOTE, TAMPERED])
        assert json.loads((out / "verification.json").read_text())["first_divergent_index"] == index

    def test_run_all_with_another_locale_walks_a_tampered_bundle_with_the_sealed_one(
        self, tmp_path, capsys
    ):
        bundle = sealed_copy(tmp_path)
        _, index = inject_tamper(bundle, 3)
        out = tmp_path / "out"
        log = DATA_DIR / "golden" / "cloud_events.jsonl"
        argv = ["run-all", str(bundle), str(log), "--out", str(out), "--locale", "month-first"]
        assert run(argv) == 3
        assert json.loads((out / "verification.json").read_text())["first_divergent_index"] == index


class TestLegacyManifest:
    """A golden copy sealed before seals held a file table, committed as it was written."""

    def legacy_copy(self, tmp: Path) -> Path:
        bundle = tmp / "legacy"
        shutil.copytree(DATA_DIR / "legacy_sealed" / "bundle", bundle)
        return bundle

    def test_it_verifies_intact_with_exactly_one_note(self, tmp_path, capsys):
        assert verify(self.legacy_copy(tmp_path), capsys) == (
            0, [LEGACY_NOTE, "chain verdict: Intact"]
        )

    def test_a_tampered_copy_reports_the_index_it_always_did(self, tmp_path, capsys):
        bundle = self.legacy_copy(tmp_path)
        _, index = inject_tamper(bundle, 3)
        out = tmp_path / "out"
        assert verify(bundle, capsys, "--out", str(out)) == (3, [LEGACY_NOTE, TAMPERED])
        assert (out / "verification.json").read_text() == (
            '{"verdict":"Tampered","first_divergent_index":3,'
            '"expected":"c11cd06de9ec14513af4d6f30eea5d891c3e26f210fb4d27d6e9e530e1a74eb1",'
            '"actual":"c4af2068966c78e9966198f029767722916d79bb8f2b8c54e9988230072e672b"}\n'
        )
        assert index == 3

    def test_the_library_still_reads_and_verifies_it(self, tmp_path):
        bundle = self.legacy_copy(tmp_path)
        manifest = load_sealed_manifest(bundle)
        assert "files" not in manifest and "locale" not in manifest
        records = ingest_device_dump(bundle).records
        assert verify_chain(manifest, records)["verdict"] == "Intact"
        links = bytes.fromhex("".join(manifest["record_links"]))
        assert head_digest(manifest, links) == links[-32:]
        assert links[-32:].hex() == manifest["chain_head"]

    def test_a_manifest_stripped_of_its_table_is_tampered(self, tmp_path, capsys):
        bundle = sealed_copy(tmp_path)

        def strip(data: dict) -> None:
            for key in ("locale", "files", "unrecognized_files"):
                del data[key]

        rewrite_sealed(bundle, strip)
        code, stderr = verify(bundle, capsys)
        assert (code, stderr) == (3, [LEGACY_NOTE, TAMPERED])


class CountingCalls:
    def __init__(self, monkeypatch):
        self.calls: dict[str, int] = {}
        for module, name in ((cli, "ingest_device_dump"), (cli, "verify_chain"),
                             (preservation, "chain_digest")):
            monkeypatch.setattr(module, name, self.counted(name, getattr(module, name)))

    def counted(self, name, fn):
        self.calls[name] = 0

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


class TestWhatVerifyReads:
    def test_an_intact_bundle_is_neither_parsed_nor_walked(self, tmp_path, monkeypatch):
        bundle = sealed_copy(tmp_path, "comm_shapes")
        counting = CountingCalls(monkeypatch)
        assert run(["verify", str(bundle)]) == 0
        assert counting.calls == {"ingest_device_dump": 0, "verify_chain": 0, "chain_digest": 0}

    def test_a_tampered_bundle_is_parsed_and_walked_once(self, tmp_path, monkeypatch):
        bundle = sealed_copy(tmp_path, "comm_shapes")
        inject_tamper(bundle, 5)
        counting = CountingCalls(monkeypatch)
        assert run(["verify", str(bundle)]) == 3
        assert counting.calls == {"ingest_device_dump": 1, "verify_chain": 1, "chain_digest": 1}

    def test_run_all_walks_no_chain_on_a_bundle_it_just_sealed(self, tmp_path, monkeypatch):
        bundle = tmp_path / "bundle"
        shutil.copytree(DATA_DIR / "golden" / "bundle", bundle)
        log = DATA_DIR / "golden" / "cloud_events.jsonl"
        counting = CountingCalls(monkeypatch)
        assert run(["run-all", str(bundle), str(log), "--out", str(tmp_path / "out")]) == 0
        assert counting.calls == {"ingest_device_dump": 1, "verify_chain": 0, "chain_digest": 1}

    @pytest.mark.parametrize("name", ["golden", "sync_shapes", "comm_shapes"])
    def test_the_hashing_pass_gives_the_table_ingest_records(self, tmp_path, name):
        bundle = tmp_path / name
        shutil.copytree(DATA_DIR / name / "bundle", bundle)
        (bundle / "zz.jsonl").write_text("not read\n")
        (bundle / ".hidden.jsonl").write_text("")
        dump = ingest_device_dump(bundle)
        assert file_table(bundle) == (list(dump.files), list(dump.unrecognized_files))
        assert dump.unrecognized_files == (".hidden.jsonl", "zz.jsonl")
        assert [row["name"] for row in dump.files][0] == "manifest.json"
        for row in dump.files:
            assert row == {
                "name": row["name"],
                "bytes": (bundle / row["name"]).stat().st_size,
                "sha256": digest(bundle / row["name"]),
            }


class TestHeadAndTable:
    def test_the_head_commits_to_the_header_and_every_link(self, golden_bundle):
        dump = ingest_device_dump(golden_bundle)
        manifest = seal_dump(dump)
        links = b"".join(bytes.fromhex(link) for link in manifest["record_links"])
        assert manifest["chain_head"] == hashlib.sha256(
            sealed_header_bytes(manifest) + links
        ).hexdigest()
        assert verify_chain(manifest, dump.records)["verdict"] == "Intact"

    @pytest.mark.parametrize("separator", ["\x1f", "\x1e"])
    def test_a_separator_in_a_name_cannot_shift_bytes_between_fields(self, separator):
        row = {"bytes": 1, "sha256": "ab" * 32}
        base = {
            "dump_id": "d", "collected_at": "2016-05-12T10:00:00Z", "examiner": "e",
            "isolation_method": "None", "digest_algorithm": "sha-256", "locale": "day-first",
        }
        one = {**base, "files": [{"name": f"a{separator}b", **row}], "unrecognized_files": []}
        two = {**base, "files": [{"name": "a", **row}], "unrecognized_files": [f"b{separator}"]}
        three = {**base, "files": [], "unrecognized_files": [f"a{separator}b"]}
        encodings = {sealed_header_bytes(m) for m in (one, two, three)}
        assert len(encodings) == 3
        assert all(separator.encode() not in encoded for encoded in encodings)

    def test_check_file_table_names_the_first_differing_file(self, golden_bundle):
        manifest = seal_dump(ingest_device_dump(golden_bundle))
        (golden_bundle / "sim.jsonl").write_text("")
        (golden_bundle / "running_apps.jsonl").unlink()
        dump = ingest_device_dump(golden_bundle)
        with pytest.raises(FileTableMismatch) as raised:
            check_file_table(manifest, dump.files, dump.unrecognized_files)
        assert str(raised.value) == "sim.jsonl was not in the bundle when it was sealed"
        (golden_bundle / "sim.jsonl").unlink()
        dump = ingest_device_dump(golden_bundle)
        with pytest.raises(FileTableMismatch) as raised:
            check_file_table(manifest, dump.files, dump.unrecognized_files)
        assert str(raised.value) == "running_apps.jsonl was sealed but is missing from the bundle"

    def test_the_seal_records_the_locale_it_read_with(self, golden_bundle):
        dump = ingest_device_dump(golden_bundle, Locale.MONTH_FIRST)
        assert seal_dump(dump)["locale"] == "month-first"


# A sealed copy of comm_shapes (six category files, a ledgered line in
# each of several files) and the files ingest reads from it.
_COMM_FILES = sorted(p.name for p in (DATA_DIR / "comm_shapes" / "bundle").iterdir())


def _sealed_scratch(tmp: str) -> Path:
    bundle = Path(tmp) / "bundle"
    shutil.copytree(DATA_DIR / "comm_shapes" / "bundle", bundle)
    assert run(["seal", str(bundle)]) == 0
    return bundle


@st.composite
def byte_edits(draw):
    name = draw(st.sampled_from(_COMM_FILES))
    size = (DATA_DIR / "comm_shapes" / "bundle" / name).stat().st_size
    kind = draw(st.sampled_from(["flip", "insert", "delete"]))
    position = draw(st.integers(0, size - 1 if kind != "insert" else size))
    value = draw(st.integers(0, 255))
    return name, kind, position, value


def _other_hex(text: str, position: int, step: int) -> str:
    digits = "0123456789abcdef"
    new = digits[(digits.index(text[position].lower()) + step) % 16]
    return text[:position] + new + text[position + 1:]


@st.composite
def manifest_edits(draw):
    """One changed field of manifest.sealed.json, as a function of its parsed JSON."""
    field = draw(st.sampled_from([
        "dump_id", "collected_at", "examiner", "isolation_method", "digest_algorithm", "locale",
        "record_count", "chain_head", "record_links", "files.name", "files.bytes", "files.sha256",
        "unrecognized_files",
    ]))
    index = draw(st.integers(0, 40))
    step = draw(st.integers(1, 15))
    text = draw(st.text(min_size=1, max_size=3))

    def change(data: dict) -> None:
        if field in ("dump_id", "examiner", "digest_algorithm"):
            data[field] += text
        elif field == "collected_at":
            data[field] = "2016-05-12T10:00:01Z" if step % 2 else data[field] + text
        elif field == "isolation_method":
            data[field] = "AirplaneMode" if step % 2 else "Faraday"
        elif field == "locale":
            data[field] = "month-first" if step % 2 else "any"
        elif field == "record_count":
            data[field] += step if index % 2 else -1
        elif field == "chain_head":
            data[field] = _other_hex(data[field], index, step)
        elif field == "record_links":
            i = index % len(data[field])
            data[field][i] = _other_hex(data[field][i], index, step)
        elif field == "unrecognized_files":
            data[field].append(text)
        else:
            row = data["files"][index % len(data["files"])]
            key = field.split(".")[1]
            if key == "name":
                row[key] += text
            elif key == "bytes":
                row[key] += step
            else:
                row[key] = _other_hex(row[key], index, step)

    return field, change


class TestNoEditIsIntact:
    @given(edit=byte_edits())
    @settings(max_examples=60, deadline=None)
    def test_a_byte_flipped_inserted_or_deleted_in_a_read_file(self, edit):
        name, kind, position, value = edit
        with tempfile.TemporaryDirectory() as tmp:
            bundle = _sealed_scratch(tmp)
            path = bundle / name
            data = bytearray(path.read_bytes())
            if kind == "flip":
                data[position] ^= value or 0x20
            elif kind == "insert":
                data.insert(position, value)
            else:
                del data[position]
            path.write_bytes(bytes(data))
            assert run(["verify", str(bundle)]) in (3, 4)

    @given(edit=manifest_edits())
    @settings(max_examples=60, deadline=None)
    def test_any_changed_field_of_the_sealed_manifest(self, edit):
        _, change = edit
        with tempfile.TemporaryDirectory() as tmp:
            bundle = _sealed_scratch(tmp)
            rewrite_sealed(bundle, change)
            assert run(["verify", str(bundle)]) in (3, 4)
