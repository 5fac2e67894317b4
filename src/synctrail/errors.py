"""The one fatal error type, and the three kinds of it the package catches.

Every failure that ends a run is a ForensicsError whose one-line
message names the input and the problem; ``cli`` prints that line and
exits 4. Anything recoverable is recorded in an error ledger or
returned as a value instead of raised. A subclass exists only where
the package itself catches it by name: ingest turns UnparseableTimestamp
and ImpossibleDate into ledger entries, and ``load_sealed_manifest``
into a message naming the field; ``preservation.verify_bundle`` turns
RecordCountMismatch into a Tampered verdict.
"""

from __future__ import annotations


class ForensicsError(Exception):
    """A failure that ends the run, with a message naming the input and the problem."""


class UnparseableTimestamp(ForensicsError):
    """Raw timestamp text matches neither supported grammar."""


class ImpossibleDate(ForensicsError):
    """Timestamp text parsed but names a date that cannot exist."""


class RecordCountMismatch(ForensicsError):
    """Sealed record count disagrees with the records presented."""
