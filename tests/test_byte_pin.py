"""Byte pins: the SHA-256 of every file `run-all` writes, on five fixed inputs.

Each input runs through `run-all` once per report format into one
output directory. The pins cover every stage file, the json, md and
html reports, the sealed manifest, and the stderr of the three runs
with the temporary directory's path replaced by ``<tmp>``. A change
that keeps the program's output keeps every pin; a change meant to
alter output updates the pins it moves and says why.

The stepwise pins hold the exact bytes, exit code and stderr of the
custody commands that `run-all` never reaches on these inputs: `verify`
of a tampered and of a shortened copy, and `diff`.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

from synctrail.cli import run

DATA_DIR = Path(__file__).parent / "data"


def golden(tmp: Path) -> tuple[Path, Path, list[str]]:
    bundle = tmp / "bundle"
    shutil.copytree(DATA_DIR / "golden" / "bundle", bundle)
    return bundle, DATA_DIR / "golden" / "cloud_events.jsonl", []


def simulated(tmp: Path) -> tuple[Path, Path, list[str]]:
    argv = ["simulate", "--seed", "21", "--skew-seconds", "300", "--uploads", "12",
            "--messages", "10", "--calls", "6", "--out", str(tmp / "case")]
    assert run(argv) == 0
    return tmp / "case" / "bundle", tmp / "case" / "cloud_events.jsonl", []


def simulated_metadata_only(tmp: Path) -> tuple[Path, Path, list[str]]:
    """No digests logged: the skew falls back, every link is a MetadataWindow link."""
    argv = ["simulate", "--seed", "22", "--no-digest-logging", "--skew-seconds", "120",
            "--uploads", "12", "--messages", "10", "--calls", "6", "--out", str(tmp / "case")]
    assert run(argv) == 0
    return tmp / "case" / "bundle", tmp / "case" / "cloud_events.jsonl", []


def sync_shapes(tmp: Path) -> tuple[Path, Path, list[str]]:
    """A measured nonzero skew, Download links on both tiers, an undated record
    linked by digest, size-less objects on both sides, an orphan cloud install,
    and peers repeated across messages and calls."""
    source = DATA_DIR / "sync_shapes"
    bundle = tmp / "bundle"
    shutil.copytree(source / "bundle", bundle)
    return bundle, source / "cloud_events.jsonl", []


def comm_shapes(tmp: Path) -> tuple[Path, Path, list[str]]:
    """Every malformed messages, calls, contacts and configured-emails shape, and a geo table."""
    source = DATA_DIR / "comm_shapes"
    bundle = tmp / "bundle"
    shutil.copytree(source / "bundle", bundle)
    return bundle, source / "cloud_events.jsonl", ["--geo-table", str(source / "geo.csv")]


def run_all_hashes(make_input, tmp: Path, capsys) -> dict[str, str]:
    """SHA-256 of each file written and of the stderr of `run-all` in each format."""
    bundle, cloud_log, extra = make_input(tmp)
    out = tmp / "out"
    capsys.readouterr()
    codes = [
        run(["run-all", str(bundle), str(cloud_log), "--out", str(out), "--format", fmt, *extra])
        for fmt in ("json", "md", "html")
    ]
    assert codes == [0, 0, 0]
    stderr = capsys.readouterr().err.replace(str(tmp), "<tmp>")
    files = sorted(out.iterdir()) + [bundle / "manifest.sealed.json"]
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files}
    hashes["stderr"] = hashlib.sha256(stderr.encode("utf-8")).hexdigest()
    return hashes


PINS = {
    "golden": (golden, {
        "cloud_log.json": "2c69f6ab903e9e5833624f569b2f9c3f5a7ae79c8f0708095c4359a9a1fa782f",
        "dump.json": "b0056b586a2d247a2f52e21c3c6309c7c2e6aa66879a551415268d59601abda6",
        "findings.json": "e612f9a9311c85175b2afe385ae757e1057f4d88ba46c82ed33d2068f5aa8ede",
        "geo.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "golden-lgd802.report.html": "17cbf247e8e224f7086ab0ca49299aa340b923ef736ce65c920084e069d3e986",
        "golden-lgd802.report.json": "27d84a8820e07474b1289a9f4888eb80fbdfdbc054f6ab3e449d98ec64fc4413",
        "golden-lgd802.report.md": "3fd192374a53913e565b897b643025a8efd28f81ecbbf62027c6991c19dd5594",
        "identity_graph.json": "abbbfb47098474bd0d478558b8155778186e01016ee5127395ad1c5a2d3dbfb3",
        "links.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "parameters.json": "461c7b80fdc33af167e13dceef0b955b95abba32c1a1b8da0c6df9144b50bc76",
        "skew.json": "38885eb8176156bf1fa0fadb06c592ffc0bfae277c6780abcebf25ab5540c4e8",
        "timeline.json": "2333851e0fe78205a52f1e9b1aaae6675114c5c6dca8170c4ab354495d8f0443",
        "verification.json": "4c36a75241e2520dd0641c22b49657c435e46bc1e682330c0ef784db99dd3360",
        "manifest.sealed.json": "9d3897c3e851e0afd2fe6ce7d4da046ed251165af6b7bdec732c6e3e5b1f959a",
        "stderr": "f71e04677b36d426ef5914149bdac6ae79be9788d16b4c0bf04ca2326a153a6e",
    }),
    "simulated": (simulated, {
        "cloud_log.json": "897ab55886061313e5dfb9200c3fc3f21235c42acee26d301b247a6798a0da2f",
        "dump.json": "75fd8e1b6c39f311903e5dfffbb57cb29b8ee132e214fe1c90d6468956a5a1c0",
        "findings.json": "3df4313480e8797f1e25131c8bf502d4d19feb33c10ef06a09e711d18e786710",
        "geo.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "identity_graph.json": "526eb0999ac9b3ddbee586deefbb5892252d601d2f0b3e3535cf65e47c9a8c86",
        "links.json": "abbb4cd6d3bbaa6fa751f3cab840bf67c00515186110a96e987b248e1f39997a",
        "parameters.json": "461c7b80fdc33af167e13dceef0b955b95abba32c1a1b8da0c6df9144b50bc76",
        "sim-21.report.html": "677f432509d0484765fd71b18b56afceac5568bea9f94662e10e94255ef65989",
        "sim-21.report.json": "d6089e2fec5c4012741905213af5a86199140a196926a3b0b76fdf8908eabd3f",
        "sim-21.report.md": "6bca750b74ba7be54ffce48ba2b9cc038c56ed6b438466487ad9ad6a9f6b6151",
        "skew.json": "44aedde6aa676ae66094b5577475e6761e5402f570385861dfc3c5c2de262480",
        "timeline.json": "46c23acf11796607c2fbbeac3db0de144426dc636e7e320b1362d5f5c763d5e4",
        "verification.json": "4c36a75241e2520dd0641c22b49657c435e46bc1e682330c0ef784db99dd3360",
        "manifest.sealed.json": "8f29cd01fc84680e150c938fc5a9595b6b179ba003cfbb08b9eaa522c8b6b2a1",
        "stderr": "227d26a394cdb34cb7662d5aa92e86c122e9ef95afd75f1f8b61e3e772493314",
    }),
    "simulated_metadata_only": (simulated_metadata_only, {
        "cloud_log.json": "897ab55886061313e5dfb9200c3fc3f21235c42acee26d301b247a6798a0da2f",
        "dump.json": "5ba5dff58b3f1fe4a4d8547765409bb93b818b0c2863fc5be88bd7d2e094fda2",
        "findings.json": "c8e7fb4ed965aa356245d6fd82b19caeceda45b6cbd4568efe7c3273fc8a0750",
        "geo.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "identity_graph.json": "7b9f06ec6ccfac5bde792204d5fa5125e382d732411898926517132ee56d3772",
        "links.json": "dbd507a19e87119d5f409bcd7a002c26391f218208796c854838c4a0c36982ed",
        "parameters.json": "461c7b80fdc33af167e13dceef0b955b95abba32c1a1b8da0c6df9144b50bc76",
        "sim-22.report.html": "3baad38a688fae1f1df3bed5a39ac50d767748f4de5bc3fe097ca60200d1d2b6",
        "sim-22.report.json": "2e30ac9590db53b288efc8e9e3196ddbf22e3f93f46c79a4b7ea14aa67fb8ace",
        "sim-22.report.md": "fe7ac58d89e09813daeeca0a1e4e221a3592ed4e585219523920790eb669253d",
        "skew.json": "38885eb8176156bf1fa0fadb06c592ffc0bfae277c6780abcebf25ab5540c4e8",
        "timeline.json": "32c68c0545ec1f3da600b512705afb8bf72e4218cac1391da579344268aca39d",
        "verification.json": "4c36a75241e2520dd0641c22b49657c435e46bc1e682330c0ef784db99dd3360",
        "manifest.sealed.json": "94f42d7b5bb8d3b1a983a3b119aa7815c1e4e2cc9bf9bdf2f6cfa11b2738211e",
        "stderr": "e215ea83b15095ac539c0202782ed81ad8dc95f071ce9cad2e28bf8179608847",
    }),
    "sync_shapes": (sync_shapes, {
        "cloud_log.json": "ffb98959d6cd2bd9e91fb7f10cca350c2a6d8cd89afc23e16cf9718fc1372669",
        "dump.json": "4f3d382dd86de2b03b8d779537e6250f608af5093f27f7a3613f78d7b0c5b2ca",
        "findings.json": "6b93bc9e4d8db4fd30b311d66c58be864081cc3bb02c51bf9e047f3d34cb27c5",
        "geo.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "identity_graph.json": "14b86e0eb3ef51348f860b5b6e37b8b38785e6153b1fa15734ead4718d1cc352",
        "links.json": "23a3368e80f98c3e7e0a0885ed7ad1403585adb0d9bd7a57757884a33555af06",
        "parameters.json": "461c7b80fdc33af167e13dceef0b955b95abba32c1a1b8da0c6df9144b50bc76",
        "skew.json": "8474a3058d54ac52769fe8c55a0835762a01c296355ca63454ce0121f2e05a00",
        "sync-shapes.report.html": "5a7a3f7b41d660cad8f8fc2c7c9425ed36ca7402bf5802ac583a7287f4899e99",
        "sync-shapes.report.json": "7810bca7575bc8e5017f310ea3f6a754b8a1026bf5692fe242b0f68d5398a81d",
        "sync-shapes.report.md": "b97c8b9aed9944396fdb1560a477cb0effce418d84e2a42a13c8a190dc9851d2",
        "timeline.json": "7b44cd4de3a3a95cd0d03c0a34236381979fa878a1cdb551801854ebd46e2ce2",
        "verification.json": "4c36a75241e2520dd0641c22b49657c435e46bc1e682330c0ef784db99dd3360",
        "manifest.sealed.json": "d0ad7069e76157a7c1fa1cf63453ec8d4bf8f776c30c0d445f5d6cca77534016",
        "stderr": "f5507f0acaa19a2532f1f2e8f9d817fcd2ee6d7233a5ea9b28c3a36fdc54bcbf",
    }),
    "comm_shapes": (comm_shapes, {
        "cloud_log.json": "a535418085b9fe419abad0bcb4ebff342b3a49b0dc30fac4c43c6e67f22b7e8e",
        "comm-shapes.report.html": "b266997512f7f52a5068addb2713158a7be888efd3698e73215c55766bf1d726",
        "comm-shapes.report.json": "0ee6ed95ca4403d409dcd9618b882b1797cb8839a37818a1f61f29982278b439",
        "comm-shapes.report.md": "dd8a3d44417bc7044df94bb3f4516551f53595ae55a180a426b10b84338e620a",
        "dump.json": "8d781c4273471c2a9ada515055c9a3beb7937897b974cd18b7904e6237915285",
        "findings.json": "0be33ab2a7989aa941943ce08bc543f15d3fa25c14413e8778b52ba6180574da",
        "geo.json": "6cb537435364bcecaebc1ff278492daa4a90aa77792f1ae58fd4d966eb56d998",
        "identity_graph.json": "243f543da9d5ba2b0e93fa77af69ac432173cacd932aea3538f9afd4601ab20f",
        "links.json": "d008bb8fc5a75f8d8abbe6e26f64ea7260e2385d48eea3463635a72aa3681752",
        "parameters.json": "461c7b80fdc33af167e13dceef0b955b95abba32c1a1b8da0c6df9144b50bc76",
        "skew.json": "38885eb8176156bf1fa0fadb06c592ffc0bfae277c6780abcebf25ab5540c4e8",
        "timeline.json": "5f099499fc47cb4cd054da5ac31d2d81f077c6ed92bc8c712bc8b46a8b547efa",
        "verification.json": "4c36a75241e2520dd0641c22b49657c435e46bc1e682330c0ef784db99dd3360",
        "manifest.sealed.json": "2a86d7a37d08ff4bc8d71649949183c5592953716dadc7713c0a15f43b937b4d",
        "stderr": "1498dfe756e3a75bf46021d2ec642b5e5ce93195cad68ea251c21ceab6e612ad",
    }),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_run_all_bytes_are_pinned(tmp_path, capsys, name):
    make_input, pinned = PINS[name]
    assert run_all_hashes(make_input, tmp_path, capsys) == pinned


# Stepwise pins: the custody commands' outputs, exit codes and stderr on
# golden-bundle copies that were tampered with, shortened or edited.


def sealed_golden(tmp: Path) -> Path:
    bundle, _, _ = golden(tmp)
    assert run(["seal", str(bundle)]) == 0
    return bundle


def stepwise(argv: list[str], tmp: Path, capsys, written: str) -> tuple[int, str, str]:
    """The exit code of ``argv``, the text of the file it wrote, and its stderr."""
    capsys.readouterr()
    code = run(argv)
    stderr = capsys.readouterr().err.replace(str(tmp), "<tmp>")
    path = tmp / "out" / written
    return code, path.read_text(encoding="utf-8") if path.is_file() else "", stderr


def test_verify_of_a_tampered_copy_is_pinned(tmp_path, capsys):
    from synctrail.simulator import inject_tamper

    bundle = sealed_golden(tmp_path)
    _, index = inject_tamper(bundle, 3)
    argv = ["verify", str(bundle), "--out", str(tmp_path / "out")]
    assert index == 3
    assert stepwise(argv, tmp_path, capsys, "verification.json") == (
        3,
        '{"verdict":"Tampered","first_divergent_index":3,'
        '"expected":"c11cd06de9ec14513af4d6f30eea5d891c3e26f210fb4d27d6e9e530e1a74eb1",'
        '"actual":"c4af2068966c78e9966198f029767722916d79bb8f2b8c54e9988230072e672b"}\n',
        "chain verdict: Tampered\n",
    )


def test_verify_of_a_shortened_copy_is_pinned(tmp_path, capsys):
    bundle = sealed_golden(tmp_path)
    path = bundle / "running_apps.jsonl"
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))
    argv = ["verify", str(bundle), "--out", str(tmp_path / "out")]
    assert stepwise(argv, tmp_path, capsys, "verification.json") == (
        3,
        '{"verdict":"Tampered","first_divergent_index":0,"expected":null,"actual":null}\n',
        "verification failed: manifest sealed 16 records, got 15\nchain verdict: Tampered\n",
    )


def edited_golden_copy(tmp: Path) -> Path:
    """The golden bundle with run-0009 added, run-0008 removed and run-0003 changed.

    Every other record keeps its line, and so its digest, which covers
    the line number.
    """
    bundle = tmp / "edited"
    shutil.copytree(DATA_DIR / "golden" / "bundle", bundle)
    path = bundle / "running_apps.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = b'{"id":"run-0003","name":"Viber Messenger"}\n'
    lines[-1] = b'{"id":"run-0009","name":"Gallery"}\n'
    path.write_bytes(b"".join(lines))
    return bundle


def test_diff_of_an_edited_copy_is_pinned(tmp_path, capsys):
    bundle, _, _ = golden(tmp_path)
    argv = ["diff", str(bundle), str(edited_golden_copy(tmp_path)), "--out", str(tmp_path / "out")]
    assert stepwise([*argv, "--allow-device-mismatch"], tmp_path, capsys, "diff.json") == (
        0,
        '{"added":["run-0009"],"removed":["run-0008"],"changed":["run-0003"],'
        '"identical_count":14}\n',
        "diff: 1 added, 1 removed, 1 changed, 14 identical\n",
    )
    # The golden device reports no IMEI, so without the override the dumps
    # cannot be shown to come from one device.
    (tmp_path / "out" / "diff.json").unlink()
    assert stepwise(argv, tmp_path, capsys, "diff.json") == (
        4,
        "",
        "error: neither dump states an IMEI, so the dumps cannot be shown to come from "
        "one device; pass the override flag to diff anyway\n",
    )
