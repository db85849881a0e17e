"""Append-only lifecycle journal: the service's drain/resume substrate.

Where the runner's :class:`~repro.resilience.CheckpointJournal` records
only *resolutions*, a long-running service must also remember what it
**accepted**: a SIGTERM drain checkpoints every in-flight job by
construction because the job was journaled at submission, before any
worker touched it.  One JSON line per lifecycle event::

    {"status": "submitted", "key": ..., "tenant": ..., "spec": {...}}
    {"status": "attached",  "key": ..., "tenant": ...}
    {"status": "done",      "key": ...}
    {"status": "failed",    "key": ..., "error": ...}
    {"status": "cancelled", "key": ...}

``submitted`` carries the full wire spec, so a restarted service can
re-enqueue pending work with zero client involvement; ``attached``
records single-flight dedup attachments so resumed quota accounting
stays faithful.  A key may cycle: a terminal line followed by a fresh
``submitted`` line re-opens it (failed-job resubmission).

The file itself is a :class:`~repro.resilience.journal.JsonLinesJournal`:
lines are flushed as written (crash-consistent), NUL padding and a torn
trailing line from a killed writer are skipped on load, and the first
append after a restart starts on a fresh line — the same rules as the
checkpoint journal, from the same code.
"""

from __future__ import annotations

from repro.resilience.journal import JsonLinesJournal

SUBMITTED = "submitted"
ATTACHED = "attached"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_TERMINAL = (DONE, FAILED, CANCELLED)


class ServiceJournal(JsonLinesJournal):
    """Append-only JSONL record of every job lifecycle transition.

    :attr:`entries` maps each key to ``{"spec": wire, "tenants": [..],
    "terminal": status | None}``.
    """

    def _apply(self, event: dict) -> None:
        status, key = event["status"], event["key"]
        if status == SUBMITTED:
            entry = self.entries.get(key)
            if entry is None or entry["terminal"] is not None:
                entry = {"spec": None, "tenants": [], "terminal": None}
                self.entries[key] = entry
            entry["spec"] = event.get("spec", entry["spec"])
            entry["tenants"].append(event.get("tenant", "default"))
        elif status == ATTACHED:
            entry = self.entries.get(key)
            if entry is not None and entry["terminal"] is None:
                entry["tenants"].append(event.get("tenant", "default"))
        elif status in _TERMINAL:
            entry = self.entries.get(key)
            if entry is not None:
                entry["terminal"] = status

    def record_submitted(self, key: str, spec_wire: dict,
                         tenant: str) -> None:
        """A new job was accepted (spec checkpointed for resume)."""
        self._write({"status": SUBMITTED, "key": key, "tenant": tenant,
                     "spec": spec_wire})

    def record_attached(self, key: str, tenant: str) -> None:
        """A duplicate submission attached to an in-flight job."""
        self._write({"status": ATTACHED, "key": key, "tenant": tenant})

    def record_done(self, key: str) -> None:
        """The job resolved; its payload is in the result cache."""
        self._write({"status": DONE, "key": key})

    def record_failed(self, key: str, error: str) -> None:
        """The job terminally failed."""
        self._write({"status": FAILED, "key": key, "error": error})

    def record_cancelled(self, key: str) -> None:
        """Every attachment of a queued job was cancelled."""
        self._write({"status": CANCELLED, "key": key})

    def pending(self) -> list[tuple[str, dict, list[str]]]:
        """``(key, spec_wire, tenants)`` for every non-terminal job.

        Journal insertion order, so a resumed service re-enqueues in
        the order clients originally submitted.
        """
        return [
            (key, entry["spec"], list(entry["tenants"]))
            for key, entry in self.entries.items()
            if entry["terminal"] is None and entry["spec"] is not None
        ]

    @property
    def done_keys(self) -> set[str]:
        """Keys whose jobs completed (payload expected in the cache)."""
        return {key for key, entry in self.entries.items()
                if entry["terminal"] == DONE}
