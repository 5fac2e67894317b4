"""synctrail: prove a device's use of cloud services.

Ingests mobile device artifact dumps and cloud-side event logs,
preserves them under verifiable hash chains, and correlates
synchronized artifacts on one skew-corrected timeline.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each public name. A module is imported the
# first time one of its names is read (PEP 562), so a process loads only
# the code it runs: `python -m synctrail verify` never loads the
# simulator or the report renderers' dependencies it does not call.
_EXPORTS = {
    "CloudEvent": "acquisition",
    "DeviceDump": "acquisition",
    "EventKind": "acquisition",
    "ingest_cloud_log": "acquisition",
    "ingest_device_dump": "acquisition",
    "parse_app_inventory": "acquisition",
    "build_timeline": "correlation",
    "derive_cloud_usage_findings": "correlation",
    "detect_uninstall_evidence": "correlation",
    "estimate_clock_skew": "correlation",
    "match_synced_artifacts": "correlation",
    "ArtifactCategory": "evidence",
    "EvidenceRecord": "evidence",
    "Locale": "evidence",
    "UtcTimestamp": "evidence",
    "canonical_encode": "evidence",
    "normalize_timestamp": "evidence",
    "build_identity_graph": "osint",
    "load_geo_table": "osint",
    "resolve_ip": "osint",
    "chain_digest": "preservation",
    "diff_acquisitions": "preservation",
    "seal_dump": "preservation",
    "verify_chain": "preservation",
    "ReportFormat": "reporting",
    "build_case_report": "reporting",
    "render_report": "reporting",
    "GroundTruth": "simulator",
    "SimParams": "simulator",
    "generate_case": "simulator",
    "inject_tamper": "simulator",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

