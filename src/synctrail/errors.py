"""Exception hierarchy shared by every stage of the pipeline.

Fatal errors are reserved for conditions that would corrupt custody
(identity collisions, missing manifests, unverifiable chains). Anything
recoverable is recorded in an error ledger or returned as a value
instead of raised. Only ``preservation.verify_bundle`` turns one of
these, RecordCountMismatch, into an outcome: a Tampered verdict. Any
other that escapes a stage ends the run with exit 4.
"""

from __future__ import annotations


class ForensicsError(Exception):
    """Base class for all tool-specific failures."""


class UnparseableTimestamp(ForensicsError):
    """Raw timestamp text matches neither supported grammar."""


class ImpossibleDate(ForensicsError):
    """Timestamp text parsed but names a date that cannot exist."""


class MissingManifest(ForensicsError):
    """Bundle directory lacks a readable manifest.json."""


class MalformedManifest(ForensicsError):
    """manifest.json or manifest.sealed.json is present but not well formed."""


class MalformedStageFile(ForensicsError):
    """A stage file that `report` reads back is truncated or not what it should hold."""


class UnsafeCaseId(ForensicsError):
    """A case id from the dump cannot name a report file inside the output directory."""


class DuplicateRecordId(ForensicsError):
    """Two records in one dump claim the same record id."""


class DuplicateEventId(ForensicsError):
    """Two cloud log lines claim the same event id."""


class RecordCountMismatch(ForensicsError):
    """Sealed record count disagrees with the records presented."""


class UnsupportedAlgorithm(ForensicsError):
    """Sealed manifest names a digest algorithm this tool cannot verify."""


class DeviceMismatch(ForensicsError):
    """Two acquisitions do not claim the same device and no override was given."""


class MalformedTable(ForensicsError):
    """Geolocation range table is unsorted or has overlapping ranges."""


class EmptyBundle(ForensicsError):
    """Operation needs at least one record but the bundle has none."""


class IoFailure(ForensicsError):
    """Filesystem write or read failed while emitting a case."""
