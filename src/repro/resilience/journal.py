"""Append-only checkpoint journal for interruptible sweeps.

A :class:`CheckpointJournal` records, one JSON line per event, the
resolution of every job in a long run: ``done`` lines name cache keys
whose payloads were published to the :class:`~repro.runner.cache.
ResultCache`, ``failed`` lines carry the failure taxonomy for cells
that exhausted their retry budget.  Lines are flushed as they are
written, so the journal is crash-consistent by construction — killing
the process mid-run loses at most the jobs that were literally in
flight.

On resume, a runner pointed at the same journal and cache re-simulates
*nothing* that already resolved: ``done`` keys are cache hits, and in
degraded mode ``failed`` keys surface immediately as
:class:`~repro.resilience.policy.JobFailure` cells without burning a
fresh attempt budget on a known-fatal cell.

A half-written trailing line (the writer was SIGKILLed mid-append) is
skipped on load rather than treated as corruption, and so are runs of
NUL bytes: journalling filesystems that replay a metadata-only commit
after power loss can leave a pre-allocated tail of ``\\x00`` where the
flushed data never hit the platter.  Both cases are counted in
:attr:`CheckpointJournal.skipped_lines` so a resume can report how
much of the journal was unreadable.  The first append after such a
restart starts on a fresh line: fused with the torn fragment, it would
be skipped, and so lost, on the next load.

These file rules live once, in :class:`JsonLinesJournal`;
:class:`CheckpointJournal` and the service's lifecycle journal
(:mod:`repro.service.journal`) add only their status vocabularies.
"""

from __future__ import annotations

import json
import os
import weakref

from repro.errors import CheckpointError
from repro.resilience.policy import JobFailure

DONE = "done"
FAILED = "failed"

# Open journals, so the CLI can flush every one of them on
# KeyboardInterrupt regardless of which command object holds them.
_ACTIVE: "weakref.WeakSet[JsonLinesJournal]" = weakref.WeakSet()


def flush_active_journals() -> int:
    """Flush every open journal (returns how many were flushed)."""
    count = 0
    for journal in list(_ACTIVE):
        journal.flush()
        count += 1
    return count


class JsonLinesJournal:
    """One append-only JSON-lines journal file: open, load, append, sync.

    The file rules live here; a subclass supplies only its status
    vocabulary, by folding each loaded or appended entry into
    :attr:`entries` in :meth:`_apply`.

    * Opening creates the parent directory; any failure to create,
      read or open raises :class:`~repro.errors.CheckpointError`.
    * Loading strips NUL runs from both edges of every line and skips
      torn lines, counting both in :attr:`skipped_lines`.
    * Appending writes one ``sort_keys`` JSON line and flushes it to
      the OS; :meth:`flush` and :meth:`close` add the ``fsync``.
    * A file whose last line is unterminated (a writer killed
      mid-append) gets a newline before the first append, so the new
      entry never fuses with the torn fragment.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.entries: dict[str, dict] = {}
        self.skipped_lines = 0
        self._unterminated = False
        directory = os.path.dirname(path)
        if directory:
            try:
                os.makedirs(directory, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as error:
                raise CheckpointError(
                    f"journal directory {directory!r} is not writable"
                ) from error
        if os.path.exists(path):
            self._load()
        try:
            self._fh = open(path, "a", encoding="utf-8")
        except OSError as error:
            raise CheckpointError(
                f"cannot open journal {path!r}: {error}"
            ) from error
        _ACTIVE.add(self)

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as error:
            raise CheckpointError(
                f"cannot read journal {self.path!r}: {error}"
            ) from error
        self._unterminated = bool(text) and not text.endswith("\n")
        for raw in text.splitlines():
            # NUL runs come from crash-replayed filesystem pre-allocation
            # (see module docstring); strip them from both edges so an
            # entry that survived next to a padded tail still loads.
            line = raw.strip().strip("\x00").strip()
            if not line:
                if raw.strip():  # pure NUL padding, not a blank line
                    self.skipped_lines += 1
                continue
            try:
                entry = json.loads(line)
                entry["key"], entry["status"]  # both must be present
            except (ValueError, TypeError, KeyError):
                # A writer killed mid-append leaves a torn final line;
                # everything before it is still a valid checkpoint.
                self.skipped_lines += 1
                continue
            self._apply(entry)

    def _apply(self, entry: dict) -> None:
        """Fold one well-formed entry into :attr:`entries`."""
        raise NotImplementedError

    def _write(self, entry: dict) -> None:
        self._apply(entry)
        line = json.dumps(entry, sort_keys=True) + "\n"
        if self._unterminated:
            line = "\n" + line
            self._unterminated = False
        self._fh.write(line)
        self._fh.flush()

    def flush(self) -> None:
        """Flush and fsync buffered lines to disk."""
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush and close the journal file."""
        if not self._fh.closed:
            self.flush()
            self._fh.close()
        _ACTIVE.discard(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CheckpointJournal(JsonLinesJournal):
    """Append-only record of resolved cache keys for one sweep."""

    def _apply(self, entry: dict) -> None:
        if entry["status"] in (DONE, FAILED):
            self.entries[entry["key"]] = entry

    def record_done(self, key: str, **extra) -> None:
        """Mark a key as resolved and published to the cache.

        ``extra`` fields ride along in the journal entry — the ingest
        converter checkpoints per-chunk byte offsets this way so a
        resumed conversion can seek instead of re-reading.
        """
        entry = dict(extra)
        entry["key"] = key
        entry["status"] = DONE
        self._write(entry)

    def record_failed(self, key: str, failure: JobFailure) -> None:
        """Mark a key as terminally failed (with its taxonomy)."""
        self._write({
            "key": key,
            "status": FAILED,
            "error_type": failure.error_type,
            "message": failure.message,
            "attempts": failure.attempts,
        })

    def failure_for(self, key: str) -> JobFailure | None:
        """The recorded failure for a key, if it terminally failed."""
        entry = self.entries.get(key)
        if entry is None or entry.get("status") != FAILED:
            return None
        return JobFailure(
            key=key,
            error_type=entry.get("error_type", "JobError"),
            message=entry.get("message", ""),
            attempts=int(entry.get("attempts", 0)),
        )

    @property
    def done_keys(self) -> set[str]:
        return {key for key, entry in self.entries.items()
                if entry.get("status") == DONE}

    @property
    def failed_keys(self) -> set[str]:
        return {key for key, entry in self.entries.items()
                if entry.get("status") == FAILED}
