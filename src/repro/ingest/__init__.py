"""Hardened streaming trace ingestion.

Bounded-memory readers for two interchange formats — DRAMSim2 k6/mase
text (optionally gzipped) and the RIB1 fixed-width binary record —
decoding straight into the columnar chunks the batched engine
consumes, under a typed input-fault taxonomy with three policies:

* ``strict`` fails at the first malformed record with a
  fault-specific exit code (format 14, truncated 15, checksum 16);
* ``lenient`` skips and counts, up to a bounded error budget (17);
* ``quarantine`` is lenient plus a ``.quarantine`` JSONL sidecar of
  every skipped raw record.

A checksummed :class:`TraceRegistry` binds trace names to blake2b
content signatures so simulation cache keys are content-addressed by
trace file, and a tampered file refuses to run at all.  See
``docs/ingestion.md``.
"""

from repro.ingest.binary import (
    BinaryTraceWriter,
    ingest_binary,
    iter_binary_wire,
    stream_binary_columns,
    write_binary,
)
from repro.ingest.convert import (
    BINARY,
    FORMATS,
    K6,
    convert_trace,
    detect_format,
    ingest_file,
    validate_format,
)
from repro.ingest.k6 import (
    K6_READ_IP,
    K6_WRITE_IP,
    ingest_k6,
    iter_k6_wire,
    stream_k6_columns,
    write_k6,
)
from repro.ingest.policies import (
    CHECKSUM,
    DEFAULT_MAX_ERRORS,
    FORMAT,
    LENIENT,
    POLICIES,
    QUARANTINE,
    STRICT,
    TRUNCATED,
    IngestFault,
    IngestReport,
    QuarantineWriter,
    read_quarantine,
    validate_policy,
)
from repro.ingest.registry import (
    TraceRegistry,
    file_signature,
    load_registered_trace,
)

__all__ = [
    "BINARY",
    "BinaryTraceWriter",
    "CHECKSUM",
    "DEFAULT_MAX_ERRORS",
    "FORMAT",
    "FORMATS",
    "IngestFault",
    "IngestReport",
    "K6",
    "K6_READ_IP",
    "K6_WRITE_IP",
    "LENIENT",
    "POLICIES",
    "QUARANTINE",
    "QuarantineWriter",
    "STRICT",
    "TRUNCATED",
    "TraceRegistry",
    "convert_trace",
    "detect_format",
    "file_signature",
    "ingest_binary",
    "ingest_file",
    "ingest_k6",
    "iter_binary_wire",
    "iter_k6_wire",
    "load_registered_trace",
    "read_quarantine",
    "stream_binary_columns",
    "stream_k6_columns",
    "validate_format",
    "validate_policy",
    "write_binary",
    "write_k6",
]
