"""synctrail: prove a device's use of cloud services.

Ingests mobile device artifact dumps and cloud-side event logs,
preserves them under verifiable hash chains, and correlates
synchronized artifacts on one skew-corrected timeline.
"""

__version__ = "0.1.0"

from .acquisition import (
    AppRecord,
    AppStatus,
    CloudEvent,
    DeviceDump,
    DeviceProfile,
    EventKind,
    LedgerEntry,
    ingest_cloud_log,
    ingest_device_dump,
    parse_app_inventory,
)
from .correlation import (
    SkewEstimate,
    build_timeline,
    derive_cloud_usage_findings,
    detect_uninstall_evidence,
    estimate_clock_skew,
    match_synced_artifacts,
)
from .evidence import (
    ArtifactCategory,
    Digest256,
    EvidenceRecord,
    Locale,
    Source,
    UtcTimestamp,
    canonical_encode,
    normalize_timestamp,
    record_digest,
)
from .osint import build_identity_graph, load_geo_table, resolve_ip
from .preservation import (
    AcquisitionDiff,
    AcquisitionManifest,
    VerificationReport,
    chain_digest,
    diff_acquisitions,
    seal_dump,
    verify_chain,
)
from .reporting import ReportFormat, build_case_report, redact, render_report
from .simulator import GroundTruth, SimParams, generate_case, inject_tamper

__all__ = [
    "__version__",
    "AcquisitionDiff",
    "AcquisitionManifest",
    "AppRecord",
    "AppStatus",
    "ArtifactCategory",
    "CloudEvent",
    "DeviceDump",
    "DeviceProfile",
    "Digest256",
    "EventKind",
    "EvidenceRecord",
    "GroundTruth",
    "LedgerEntry",
    "Locale",
    "ReportFormat",
    "SimParams",
    "SkewEstimate",
    "Source",
    "UtcTimestamp",
    "VerificationReport",
    "build_case_report",
    "build_identity_graph",
    "build_timeline",
    "canonical_encode",
    "chain_digest",
    "derive_cloud_usage_findings",
    "detect_uninstall_evidence",
    "diff_acquisitions",
    "estimate_clock_skew",
    "generate_case",
    "ingest_cloud_log",
    "ingest_device_dump",
    "inject_tamper",
    "load_geo_table",
    "match_synced_artifacts",
    "normalize_timestamp",
    "parse_app_inventory",
    "record_digest",
    "redact",
    "render_report",
    "resolve_ip",
    "seal_dump",
    "verify_chain",
]
