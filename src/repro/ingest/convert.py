"""Streaming trace conversion between the interchange formats.

``convert_trace`` pipes wire records — ``(kind, ip, addr, dep,
cycle)`` — from a source reader straight into a destination writer,
one record at a time, so a multi-gigabyte conversion holds one I/O
block plus one record in memory.  The cycle field rides through both
directions, which is what makes the k6 → binary → k6 round trip
bit-identical for canonically-formatted input: nothing is synthesized
on the way back out.

Conversions *into* the binary format are resumable.  Every
``chunk_records`` appended records, the converter checkpoints
``{offset, written}`` through a :class:`~repro.resilience.journal.
CheckpointJournal` — the source's decompressed byte offset at a record
boundary and the destination record count.  After a crash, the
destination is an unfinalized RIB1 file (sentinel count, no footer);
resume truncates it back to the last checkpointed record count,
re-hashes the surviving payload (:meth:`BinaryTraceWriter.resume`)
and re-enters the source at the checkpointed offset — work already
journaled is never re-read, let alone re-written.

Text (k6) destinations are not resumable: appending to a gzip member
mid-stream has no safe seek story, and a text re-run is cheap.  An
interrupted k6-bound conversion simply restarts.
"""

from __future__ import annotations

import gzip
import os
import struct

from repro.errors import ConfigurationError
from repro.ingest.binary import (
    COUNT_UNKNOWN,
    HEADER_SIZE,
    MAGIC,
    RECORD_SIZE,
    BinaryTraceWriter,
    ingest_binary,
    iter_binary_wire,
)
from repro.ingest.k6 import (
    DEFAULT_CHUNK_RECORDS,
    K6_CYCLE_STEP,
    _COMMAND_FOR,
    ingest_k6,
    iter_k6_wire,
    make_report,
)
from repro.ingest.policies import DEFAULT_MAX_ERRORS, IngestReport, STRICT
from repro.ingest.stream import GZIP_MAGIC
from repro.resilience.journal import CheckpointJournal
from repro.sim.trace import Trace

K6 = "k6"
BINARY = "binary"

FORMATS = (K6, BINARY)

_WIRE_ITERS = {K6: iter_k6_wire, BINARY: iter_binary_wire}
_INGESTERS = {K6: ingest_k6, BINARY: ingest_binary}


def detect_format(path: str) -> str:
    """Detect a trace file's format from its magic bytes.

    Gzip magic means a compressed k6 text trace (RIB1 files are never
    gzipped — the format carries its own integrity envelope and random
    access matters more than ratio); RIB1 magic means binary; anything
    else is taken as plain k6 text.
    """
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head[:2] == GZIP_MAGIC:
        return K6
    if head == MAGIC:
        return BINARY
    return K6


def ingest_file(path: str, *, fmt: str | None = None,
                name: str | None = None,
                max_records: int | None = None,
                ) -> tuple[Trace, IngestReport]:
    """Ingest a k6 or RIB1 file under the strict policy.

    ``fmt`` defaults to :func:`detect_format`.  A damaged file raises
    its typed input fault (format 14, truncated 15, checksum 16).
    """
    ingest = _INGESTERS[fmt or detect_format(path)]
    return ingest(path, name=name, policy=STRICT, max_records=max_records)


def validate_format(fmt: str) -> str:
    """Return ``fmt`` or raise :class:`ConfigurationError`."""
    if fmt not in FORMATS:
        raise ConfigurationError(
            f"unknown trace format {fmt!r}; expected one of {FORMATS}"
        )
    return fmt


def _journal_chunks(journal: CheckpointJournal, prefix: str) -> list[dict]:
    """Contiguous checkpointed chunk entries ``prefix:chunk:0..n``."""
    chunks = []
    while True:
        entry = journal.entries.get(f"{prefix}:chunk:{len(chunks)}")
        if entry is None:
            return chunks
        chunks.append(entry)


def _binary_resumable(path: str, written: int) -> bool:
    """True if ``path`` is an unfinalized RIB1 file holding >= written."""
    try:
        size = os.path.getsize(path)
        if size < HEADER_SIZE + written * RECORD_SIZE:
            return False
        with open(path, "rb") as fh:
            header = fh.read(HEADER_SIZE)
    except OSError:
        return False
    if len(header) < HEADER_SIZE:
        return False
    magic = header[:4]
    (count,) = struct.unpack_from("<Q", header, 8)
    return magic == MAGIC and count == COUNT_UNKNOWN


def convert_trace(src: str, dst: str, *,
                  src_format: str | None = None,
                  dst_format: str | None = None,
                  policy: str = STRICT,
                  max_errors: int = DEFAULT_MAX_ERRORS,
                  quarantine_path: str | None = None,
                  chunk_records: int = DEFAULT_CHUNK_RECORDS,
                  journal: CheckpointJournal | None = None,
                  label: str | None = None,
                  ) -> tuple[IngestReport, int]:
    """Convert ``src`` to ``dst``; returns ``(report, records_written)``.

    Formats default to :func:`detect_format` for the source and
    extension inference for the destination (``.k6``/``.k6.gz`` → k6,
    everything else → binary).  ``journal`` enables checkpointed
    resume for binary destinations (see module docstring).
    """
    if src_format is None:
        src_format = detect_format(src)
    if dst_format is None:
        dst_format = K6 if dst.endswith((".k6", ".k6.gz")) else BINARY
    validate_format(src_format)
    validate_format(dst_format)
    report = make_report(src, src_format, policy, max_errors=max_errors,
                         quarantine_path=quarantine_path, label=label)
    wire_iter = _WIRE_ITERS[src_format]
    try:
        if dst_format == BINARY:
            written = _convert_to_binary(src, dst, wire_iter, report,
                                         chunk_records, journal)
        else:
            written = _convert_to_k6(src, dst, wire_iter, report)
    finally:
        report.close()
    return report, written


def _convert_to_binary(src, dst, wire_iter, report, chunk_records,
                       journal: CheckpointJournal | None) -> int:
    prefix = f"ingest:{os.path.basename(dst)}"
    start_offset = 0
    writer = None
    chunk = 0
    if journal is not None:
        chunks = _journal_chunks(journal, prefix)
        if chunks and _binary_resumable(dst, int(chunks[-1]["written"])):
            written = int(chunks[-1]["written"])
            start_offset = int(chunks[-1]["offset"])
            chunk = len(chunks)
            # Drop any records appended after the last checkpoint (they
            # were written but never journaled) and re-hash the rest.
            with open(dst, "r+b") as fh:
                fh.truncate(HEADER_SIZE + written * RECORD_SIZE)
            writer = BinaryTraceWriter.resume(dst)
    if writer is None:
        writer = BinaryTraceWriter(dst)
    since_checkpoint = 0
    try:
        for wire in wire_iter(src, report, start_offset=start_offset):
            writer.append(wire)
            since_checkpoint += 1
            if journal is not None and since_checkpoint >= chunk_records:
                journal.record_done(f"{prefix}:chunk:{chunk}",
                                    offset=report.bytes_consumed,
                                    written=writer.count)
                chunk += 1
                since_checkpoint = 0
        writer.finalize()
    finally:
        writer.close()
    return writer.count


def _convert_to_k6(src, dst, wire_iter, report) -> int:
    opener = gzip.open if dst.endswith(".gz") else open
    written = 0
    with opener(dst, "wt", encoding="ascii") as fh:
        for kind, _ip, addr, _dep, cycle in wire_iter(src, report):
            command = _COMMAND_FOR.get(kind)
            if command is None:
                # Non-memory records have no k6 representation.
                continue
            fh.write(f"0x{addr:x} {command} {cycle}\n")
            written += 1
    return written


def canonical_cycle(index: int) -> int:
    """The cycle :func:`~repro.ingest.k6.write_k6` synthesizes."""
    return index * K6_CYCLE_STEP
