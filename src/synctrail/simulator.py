"""Seeded generator of paired device dumps and cloud logs.

Emits a bundle, its mirrored cloud event log, and the ground truth
(true sync links, injected skew, uninstalled packages) that the test
suite uses as an oracle. All randomness flows from one 64-bit linear
congruential generator so a seed pins every byte of output, on any
platform. Timestamps land in one fictional week in May 2016 to keep
fixtures human-checkable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .acquisition import CATEGORY_FILES, TIME_FIELDS, ingest_device_dump
from .errors import EmptyBundle, IoFailure
from .evidence import civil_from_epoch, epoch_to_iso

CLOUD_LOG_NAME = "cloud_events.jsonl"
GROUND_TRUTH_NAME = "ground_truth.json"

WEEK_START_EPOCH = 1462752000  # 2016-05-09T00:00:00Z
WEEK_SECONDS = 6 * 86400

_ACCOUNT = "user@example.com"
_PEER_POOL = (
    "+353870000001",
    "+353870000002",
    "+353870000003",
    "+353870000004",
    "+353870000005",
)
_APP_NAMES = (
    "NotesSync",
    "PhotoVault",
    "ChatOrbit",
    "MapMate",
    "FitTracker",
    "NewsBeam",
    "CloudPad",
    "SnapShare",
    "TuneBox",
    "TaskHive",
    "WeatherPeek",
    "ScanDrop",
    "BookNest",
    "PayWave",
    "MailDart",
    "GameForge",
    "VoiceLoop",
    "RideLink",
    "RecipeJar",
    "StarGaze",
)
_TAMPER_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

# One JSON Lines line: json.dumps(row, ensure_ascii=False, separators=(",", ":")).
_LINE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


class Lcg64:
    """64-bit linear congruential generator.

    state' = state * 6364136223846793005 + 1442695040888963407 (mod 2^64),
    draws take the top 31 bits. Chosen so two implementations seeded the
    same way emit identical bundles.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state * self.MULTIPLIER + self.INCREMENT) & self.MASK
        return self.state

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return (self.next_u64() >> 33) % n

    def randint(self, low: int, high: int) -> int:
        return low + self.randrange(high - low + 1)

    def choice(self, seq: Sequence):
        return seq[self.randrange(len(seq))]


@dataclass(frozen=True)
class SimParams:
    seed: int
    n_apps: int = 6
    n_messages: int = 8
    n_calls: int = 4
    n_uploads: int = 10
    skew_seconds: int = 0
    sync_lag_max_s: int = 2
    uninstall_fraction: float = 0.2
    digest_logging: bool = True

    def __post_init__(self) -> None:
        for name in ("n_apps", "n_messages", "n_calls", "n_uploads"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.sync_lag_max_s <= 0:
            raise ValueError("sync_lag_max_s must be positive")
        if not 0.0 <= self.uninstall_fraction <= 1.0:
            raise ValueError("uninstall_fraction must be within [0, 1]")


@dataclass(frozen=True)
class GroundTruth:
    true_links: tuple[tuple[str, str], ...]
    true_skew_seconds: int
    uninstalled_packages: tuple[str, ...]
    tamper_index: Optional[int] = None


@dataclass(frozen=True)
class SimCase:
    """A generated case: paths on disk plus the in-memory truth."""

    bundle_dir: Path
    cloud_log: Path
    ground_truth: GroundTruth


def _legacy_text(epoch: int) -> str:
    """Day-first DD/MM/YYYY hh:mm:ss AM/PM rendering."""
    y, mo, d, h, mi, s = civil_from_epoch(epoch)
    meridiem = "AM" if h < 12 else "PM"
    h12 = h % 12 or 12
    return f"{d:02d}/{mo:02d}/{y:04d} {h12:02d}:{mi:02d}:{s:02d} {meridiem}"


def _json_lines(rows: list[dict]) -> str:
    """``rows`` as JSON Lines text: one compact line per row, each ending in a newline."""
    return "".join([_LINE.encode(row) + "\n" for row in rows])


def generate_case(params: SimParams, out_dir: Path | str) -> SimCase:
    """Write a device bundle, cloud log, and ground truth under out_dir.

    Every upload yields a device artifact and a cloud Upload event whose
    clocks differ by skew plus a uniform lag in [0, sync_lag_max_s];
    uninstalled apps show up in the device inventory and as cloud
    Install plus Uninstall events. Identical params give identical bytes.
    """
    rng = Lcg64(params.seed)
    out = Path(out_dir)
    bundle = out / "bundle"
    dump_id = f"sim-{params.seed}"

    lines: dict[str, list[dict]] = {name: [] for name, _ in CATEGORY_FILES}
    events: list[dict] = []
    true_links: list[tuple[str, str]] = []
    uninstalled: list[str] = []
    event_seq = 0

    def next_event_id() -> str:
        nonlocal event_seq
        event_seq += 1
        return f"e{event_seq:05d}"

    def device_time() -> int:
        return WEEK_START_EPOCH + rng.randrange(WEEK_SECONDS)

    def cloud_time(device_epoch: int) -> int:
        return device_epoch + params.skew_seconds + rng.randint(0, params.sync_lag_max_s)

    total = params.n_apps + params.n_messages + params.n_calls + params.n_uploads
    if total > 0:
        lines["device_info.jsonl"].append(
            {
                "id": "dev-0001",
                "model": "SIM-PHONE-1",
                "device_name": "Simulated Handset",
                "android_version": "4.4.2",
                "sdk_level": "19",
                "brand": "simbrand",
                "manufacturer": "SIMCO",
                "kernel_name": "sim.kernel",
                "wifi_mac": "02:00:00:00:00:01",
                "imei": f"35{params.seed % 10**13:013d}",
                "battery_percent": rng.randint(5, 100),
                "device_clock": epoch_to_iso(WEEK_START_EPOCH + WEEK_SECONDS),
            }
        )
        lines["phone_state.jsonl"].append(
            {
                "id": "state-0001",
                "screen_lock_enabled": bool(rng.randrange(2)),
                "screen_saver_enabled": bool(rng.randrange(2)),
                "developer_option_enabled": bool(rng.randrange(2)),
                "flight_mode_on": False,
            }
        )
        lines["sim.jsonl"].append(
            {
                "id": "simcard-0001",
                "status": "Ready",
                "operator_number": "27201",
                "country": "ie",
                "serial": f"89353{params.seed % 10**10:010d}",
                "sim_type": "USIM",
            }
        )
        lines["configured_emails.jsonl"].append(
            {"id": "email-0001", "address_or_number": _ACCOUNT}
        )
        for index, peer in enumerate(_PEER_POOL[:3], start=1):
            lines["contacts.jsonl"].append(
                {"id": f"contact-{index:04d}", "name": f"Contact {index}", "numbers": [peer]}
            )
        lines["contacts.jsonl"].append(
            {"id": "contact-0099", "name": "Group Chat", "numbers": list(_PEER_POOL[:3])}
        )
        for index in range(1, 3):
            lines["wifi_history.jsonl"].append(
                {
                    "id": f"wifi-{index:04d}",
                    "ssid": f"homenet-{index}",
                    "last_connected": epoch_to_iso(device_time()),
                }
            )
            lines["browser_history.jsonl"].append(
                {
                    "id": f"web-{index:04d}",
                    "url": f"https://news.example.org/story/{rng.randrange(1000)}",
                    "title": f"Story {index}",
                    "visited_at": epoch_to_iso(device_time()),
                }
            )
        for index, name in enumerate(("Home", "System UI", "Camera"), start=1):
            lines["running_apps.jsonl"].append({"id": f"run-{index:04d}", "name": name})

    n_uninstalled = int(params.n_apps * params.uninstall_fraction + 0.5)
    order = list(range(params.n_apps))
    for i in range(len(order) - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    uninstall_set = set(order[:n_uninstalled])

    for index in range(params.n_apps):
        base_name = _APP_NAMES[index % len(_APP_NAMES)]
        name = base_name if index < len(_APP_NAMES) else f"{base_name}{index}"
        package = f"com.example.{name.lower()}"
        installed_epoch = device_time()
        status = "Uninstalled" if index in uninstall_set else "All"
        lines["installed_apps.jsonl"].append(
            {
                "id": f"app-{index + 1:04d}",
                "name": name,
                "package": package,
                "status": status,
                "installed": _legacy_text(installed_epoch),
            }
        )
        if index in uninstall_set:
            uninstalled.append(package)
            events.append(
                {
                    "id": next_event_id(),
                    "kind": "Install",
                    "ts": epoch_to_iso(cloud_time(installed_epoch)),
                    "account": _ACCOUNT,
                    "object": package,
                }
            )
            removed_epoch = installed_epoch + rng.randint(3600, 2 * 86400)
            events.append(
                {
                    "id": next_event_id(),
                    "kind": "Uninstall",
                    "ts": epoch_to_iso(cloud_time(removed_epoch)),
                    "account": _ACCOUNT,
                    "object": package,
                }
            )

    for index in range(params.n_messages):
        lines["messages.jsonl"].append(
            {
                "id": f"msg-{index + 1:04d}",
                "peer": rng.choice(_PEER_POOL),
                "body": f"note {index + 1}",
                "direction": rng.choice(("Incoming", "Outgoing")),
                "delivered_at": epoch_to_iso(device_time()),
            }
        )
    for index in range(params.n_calls):
        lines["calls.jsonl"].append(
            {
                "id": f"call-{index + 1:04d}",
                "peer": rng.choice(_PEER_POOL),
                "direction": rng.choice(("Incoming", "Outgoing")),
                "duration_s": rng.randint(5, 600),
                "at": epoch_to_iso(device_time()),
            }
        )

    for index in range(params.n_uploads):
        record_id = f"up-{index + 1:04d}"
        object_name = f"IMG_{index + 1:04d}.jpg"
        content = f"sim-content-{params.seed}-{index}".encode("utf-8")
        digest_hex = hashlib.sha256(content).hexdigest()
        size = rng.randint(10_000, 2_000_000)
        sent_epoch = device_time()
        lines["messages.jsonl"].append(
            {
                "id": record_id,
                "peer": rng.choice(_PEER_POOL),
                "body": "",
                "direction": "Outgoing",
                "delivered_at": epoch_to_iso(sent_epoch),
                "object": object_name,
                "size_bytes": size,
                "content_digest": digest_hex,
            }
        )
        event_id = next_event_id()
        event: dict = {
            "id": event_id,
            "kind": "Upload",
            "ts": epoch_to_iso(cloud_time(sent_epoch)),
            "account": _ACCOUNT,
            "object": object_name,
            "size": size,
        }
        if params.digest_logging:
            event["digest"] = digest_hex
        events.append(event)
        true_links.append((record_id, event_id))

    if total > 0:
        for _ in range(2):
            events.append(
                {
                    "id": next_event_id(),
                    "kind": "Login",
                    "ts": epoch_to_iso(cloud_time(device_time())),
                    "account": _ACCOUNT,
                    "object": "session",
                }
            )

    truth = GroundTruth(
        true_links=tuple(true_links),
        true_skew_seconds=params.skew_seconds,
        uninstalled_packages=tuple(sorted(uninstalled)),
    )

    try:
        bundle.mkdir(parents=True, exist_ok=True)
        manifest = {
            "dump_id": dump_id,
            "collected_at": epoch_to_iso(WEEK_START_EPOCH + WEEK_SECONDS),
            "zone_offset_minutes": 0,
            "tool_name": "synctrail-simulator",
            "tool_version": "1",
        }
        (bundle / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        for file_name, _ in CATEGORY_FILES:
            rows = lines[file_name]
            if not rows:
                continue
            (bundle / file_name).write_text(_json_lines(rows), encoding="utf-8")
        cloud_log = out / CLOUD_LOG_NAME
        cloud_log.write_text(_json_lines(events), encoding="utf-8")
        (out / GROUND_TRUTH_NAME).write_text(
            json.dumps(
                {
                    "true_links": [list(pair) for pair in truth.true_links],
                    "true_skew_seconds": truth.true_skew_seconds,
                    "uninstalled_packages": list(truth.uninstalled_packages),
                    "tamper_index": truth.tamper_index,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        raise IoFailure(f"could not write case under {out}: {exc}") from exc
    return SimCase(bundle_dir=bundle, cloud_log=cloud_log, ground_truth=truth)


def inject_tamper(bundle_path: Path | str, seed: int) -> tuple[Path, int]:
    """Flip one pseudo-random attribute character in a sealed bundle.

    Picks a record (uniformly, then scanning forward to one with a
    mutable string field), swaps a single character of one attribute
    value for a different one, and rewrites that line in place. The line
    stays valid JSON so verification fails on the hash, not the parse.
    Returns the bundle path and the chain index of the mutated record.
    """
    bundle = Path(bundle_path)
    dump = ingest_device_dump(bundle)
    if not dump.records:
        raise EmptyBundle(f"{bundle} has no records to tamper with")
    rng = Lcg64(seed)
    start = rng.randrange(len(dump.records))
    for offset in range(len(dump.records)):
        index = (start + offset) % len(dump.records)
        record = dump.records[index]
        file_name = record.attributes["_file"]
        line_no = int(record.attributes["_line"])
        category = dict(CATEGORY_FILES)[file_name]
        time_field = TIME_FIELDS.get(category)

        path = bundle / file_name
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        fields = json.loads(raw_lines[line_no - 1])
        mutable = sorted(
            key
            for key, value in fields.items()
            if key not in ("id", time_field) and isinstance(value, str) and value
        )
        if not mutable:
            continue
        target = mutable[rng.randrange(len(mutable))]
        value = fields[target]
        position = rng.randrange(len(value))
        alphabet = _TAMPER_ALPHABET.replace(value[position], "")
        fields[target] = value[:position] + alphabet[rng.randrange(len(alphabet))] + value[position + 1 :]
        raw_lines[line_no - 1] = _LINE.encode(fields)
        path.write_text("\n".join(raw_lines) + "\n", encoding="utf-8")
        return bundle, index
    raise EmptyBundle(f"{bundle} has no mutable attribute values")
