"""End-to-end tests for the simulation job service.

Proves the service contract layer by layer: wire forms preserve
content addressing, the queue/quota/journal substrates enforce their
bounds, and the assembled :class:`~repro.service.JobService` delivers
the headline semantics — single-flight dedup (one execution, N
deliveries), retryable backpressure at the queue bound, per-tenant
quota rejection, graceful drain with zero lost jobs, and resume from
the journal — both in-process and over the HTTP front end.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    ServiceError,
)
from repro.params import SystemParams
from repro.runner.job import (
    alone_ipc_job,
    levels_job,
    mix_job,
    trace_job,
)
from repro.service import (
    JobService,
    QuotaLedger,
    ServiceClient,
    ServiceJournal,
    ShardedJobQueue,
    result_digest,
    result_to_wire,
    serve,
    spec_from_wire,
    spec_to_wire,
)
from repro.service.metrics import ServiceMetrics, nearest_rank

from conftest import make_stream_trace


def tiny_trace(name="svc-stream", ip=0x400_101, base=0x1000_0000, seed=0):
    return make_stream_trace(n_loads=150, alu_per_load=2, name=name,
                             ip=ip, base=base + seed * 0x10_0000)


def tiny_spec(config="ipcp", seed=1, name="svc-stream"):
    return levels_job(tiny_trace(name=name, seed=seed), config)


def gated_execute(release: threading.Event, started: threading.Event,
                  calls: list):
    """An execute hook that parks until released (timing control)."""

    def execute(spec, attempt):
        calls.append(spec.cache_key())
        started.set()
        assert release.wait(30), "gate never released"
        return {"key": spec.cache_key(), "attempt": attempt}

    return execute


# ----------------------------------------------------------------------
# wire forms
# ----------------------------------------------------------------------

class TestWire:
    def test_levels_spec_round_trips_to_same_cache_key(self):
        spec = tiny_spec()
        rebuilt = spec_from_wire(spec_to_wire(spec))
        assert rebuilt.cache_key() == spec.cache_key()

    def test_trace_and_alone_and_mix_kinds_round_trip(self):
        trace = tiny_trace()
        params = SystemParams()
        specs = [
            trace_job(trace, "ipcp", warmup=100, max_instructions=300),
            alone_ipc_job(trace, params, 100, 300, seed=7),
            mix_job([tiny_trace(name="a"), tiny_trace(name="b", seed=2)],
                    "ipcp", warmup=100, roi=200, seed=3),
        ]
        for spec in specs:
            rebuilt = spec_from_wire(spec_to_wire(spec))
            assert rebuilt.cache_key() == spec.cache_key()
            assert rebuilt.kind == spec.kind

    def test_submitted_signature_is_ignored(self):
        # A client cannot alias records onto another job's cache slot:
        # the signature is recomputed server-side from the records.
        wire = spec_to_wire(tiny_spec())
        wire["trace_sig"] = "f" * 32
        rebuilt = spec_from_wire(wire)
        assert rebuilt.cache_key() == tiny_spec().cache_key()

    @pytest.mark.parametrize("mutate", [
        lambda w: w.update(kind="bogus"),
        lambda w: w.update(trace_name=""),
        lambda w: w.update(records=[]),
        lambda w: w.update(records=[[1, 2, 3]]),
        lambda w: w.update(records=[[1, "ip", 3, 0]]),
        lambda w: w.update(warmup="soon"),
        lambda w: w.update(params=[1, 2]),
    ])
    def test_malformed_wire_raises_configuration_error(self, mutate):
        wire = spec_to_wire(tiny_spec())
        mutate(wire)
        with pytest.raises(ConfigurationError):
            spec_from_wire(wire)

    def test_non_object_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            spec_from_wire([1, 2, 3])

    def test_result_wire_carries_bit_identity_digest(self):
        payload = {"ipc": 1.5, "rows": list(range(10))}
        wire = result_to_wire(payload)
        assert wire["digest"] == result_digest(payload)
        assert wire["type"] == "dict"
        assert result_to_wire({"ipc": 1.5})["digest"] != wire["digest"]


# ----------------------------------------------------------------------
# queue / quota / journal / metrics substrates
# ----------------------------------------------------------------------

class TestShardedQueue:
    def test_bound_is_global_across_shards(self):
        queue = ShardedJobQueue(bound=3, shards=4)
        for index in range(3):
            queue.push(f"{index:032x}")
        with pytest.raises(QueueFullError) as excinfo:
            queue.push(f"{99:032x}")
        assert excinfo.value.retry_after > 0
        assert excinfo.value.exit_code == 12

    def test_force_push_bypasses_bound_for_resume(self):
        queue = ShardedJobQueue(bound=1, shards=2)
        queue.push("0" * 32)
        queue.push("f" * 32, force=True)
        assert len(queue) == 2

    def test_push_is_idempotent_per_key(self):
        queue = ShardedJobQueue(bound=4)
        queue.push("0" * 32)
        queue.push("0" * 32)
        assert len(queue) == 1

    def test_pop_drains_every_shard(self):
        queue = ShardedJobQueue(bound=16, shards=4)
        keys = {f"{index:032x}" for index in range(10)}
        for key in keys:
            queue.push(key)
        popped = {queue.pop() for _ in range(10)}
        assert popped == keys
        assert queue.pop() is None

    def test_remove_unqueues_a_key(self):
        queue = ShardedJobQueue(bound=4)
        queue.push("0" * 32)
        assert queue.remove("0" * 32)
        assert not queue.remove("0" * 32)
        assert queue.pop() is None


class TestQuotaLedger:
    def test_limit_enforced_per_tenant(self):
        ledger = QuotaLedger(limit=2)
        ledger.charge("alice")
        ledger.charge("alice")
        with pytest.raises(QuotaExceededError) as excinfo:
            ledger.charge("alice")
        assert excinfo.value.exit_code == 13
        ledger.charge("bob")  # other tenants unaffected

    def test_release_frees_budget(self):
        ledger = QuotaLedger(limit=1)
        ledger.charge("alice")
        ledger.release("alice")
        ledger.charge("alice")
        assert ledger.inflight("alice") == 1

    def test_force_charge_bypasses_limit_on_resume(self):
        ledger = QuotaLedger(limit=1)
        ledger.charge("alice")
        ledger.charge("alice", force=True)
        assert ledger.inflight("alice") == 2


class TestServiceJournal:
    def test_pending_survives_restart(self, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        wire = spec_to_wire(tiny_spec())
        with ServiceJournal(path) as journal:
            journal.record_submitted("k1", wire, "alice")
            journal.record_attached("k1", "bob")
            journal.record_submitted("k2", wire, "alice")
            journal.record_done("k2")
        reloaded = ServiceJournal(path)
        pending = reloaded.pending()
        assert [key for key, _, _ in pending] == ["k1"]
        assert pending[0][2] == ["alice", "bob"]
        assert reloaded.done_keys == {"k2"}
        reloaded.close()

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        with ServiceJournal(path) as journal:
            journal.record_submitted("k1", {"kind": "levels"}, "t")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"status": "done", "key": "k1"')  # torn write
        reloaded = ServiceJournal(path)
        assert [key for key, _, _ in reloaded.pending()] == ["k1"]
        reloaded.close()

    def test_submit_after_torn_tail_survives_restart(self, tmp_path):
        # A job accepted after a crash restart must still be pending at
        # the following restart: drain/resume loses no job.
        path = str(tmp_path / "svc.jsonl")
        with ServiceJournal(path) as journal:
            journal.record_submitted("k1", {"kind": "levels"}, "t")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"status": "done", "key": "k1"')  # torn write
        with ServiceJournal(path) as journal:
            journal.record_submitted("k2", {"kind": "levels"}, "t")
        reloaded = ServiceJournal(path)
        assert [key for key, _, _ in reloaded.pending()] == ["k1", "k2"]
        assert reloaded.skipped_lines == 1
        reloaded.close()

    def test_entry_padded_with_nuls_still_loads(self, tmp_path):
        # NUL runs around an intact entry must not hide it.
        path = str(tmp_path / "svc.jsonl")
        with open(path, "wb") as fh:
            fh.write(b'\x00\x00{"key": "k1", "spec": {"kind": "levels"}, '
                     b'"status": "submitted", "tenant": "t"}\x00\x00\n')
        reloaded = ServiceJournal(path)
        assert [key for key, _, _ in reloaded.pending()] == ["k1"]
        assert reloaded.skipped_lines == 0
        reloaded.close()

    def test_terminal_then_submitted_reopens_key(self, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        with ServiceJournal(path) as journal:
            journal.record_submitted("k1", {"kind": "levels"}, "t")
            journal.record_failed("k1", "boom")
            journal.record_submitted("k1", {"kind": "levels"}, "t")
        reloaded = ServiceJournal(path)
        assert [key for key, _, _ in reloaded.pending()] == ["k1"]
        reloaded.close()

    def test_unwritable_journal_raises_checkpoint_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        with pytest.raises(CheckpointError):
            ServiceJournal(str(blocker / "svc.jsonl"))


class TestMetrics:
    def test_nearest_rank_quantiles(self):
        values = [float(v) for v in range(1, 101)]
        assert nearest_rank(values, 0.50) == 50.0
        assert nearest_rank(values, 0.95) == 95.0
        assert nearest_rank([], 0.95) == 0.0

    def test_snapshot_shape(self):
        metrics = ServiceMetrics()
        metrics.submitted = 3
        metrics.cache_lookups = 2
        metrics.cache_hits = 1
        metrics.record_latency(0.2)
        snapshot = metrics.snapshot(queued=1, running=1)
        assert snapshot["jobs"]["submitted"] == 3
        assert snapshot["cache"]["hit_rate"] == 0.5
        assert snapshot["latency"]["p95_s"] == pytest.approx(0.2)

    def test_corrupt_evictions_surface_in_metrics(self, tmp_path):
        # A fresh service pointed at a cache holding a corrupted entry
        # detects, evicts and recomputes on the worker's cache lookup —
        # and the eviction shows up in the metrics snapshot.
        from repro.runner import ResultCache

        cache_dir = str(tmp_path / "cache")
        spec = tiny_spec()
        service = JobService(workers=1, cache_dir=cache_dir).start()
        try:
            service.submit(spec)
            service.wait(spec.cache_key(), timeout=60)
            assert (service.metrics_snapshot()["runner"]
                    ["corrupt_evictions"]) == 0
        finally:
            service.stop()

        entry = ResultCache(cache_dir)._entry_path(spec.cache_key())
        with open(entry, "wb") as fh:
            fh.write(b"RPRC1\n" + b"\x00" * 16 + b"garbage")

        service = JobService(workers=1, cache_dir=cache_dir).start()
        try:
            service.submit(spec)
            service.wait(spec.cache_key(), timeout=60)
            snapshot = service.metrics_snapshot()
            assert snapshot["runner"]["corrupt_evictions"] == 1
        finally:
            service.stop()


# ----------------------------------------------------------------------
# the assembled service core
# ----------------------------------------------------------------------

class TestJobServiceLifecycle:
    def test_submit_executes_and_resolves_done(self, tmp_path):
        service = JobService(workers=1,
                             cache_dir=str(tmp_path / "cache")).start()
        try:
            spec = tiny_spec()
            info = service.submit(spec)
            assert info["state"] in ("queued", "running")
            done = service.wait(spec.cache_key(), timeout=60)
            assert done["state"] == "done"
            assert done["result"]["type"] == "SimResult"
            assert done["result"]["ipc"] > 0
        finally:
            service.stop()

    def test_result_digest_matches_local_run(self, tmp_path):
        # Bit-identity over the service: the digest the service reports
        # is the digest of a plain local run of the same spec.
        from repro.runner import SimulationRunner

        spec = tiny_spec()
        local = SimulationRunner().run_one(spec)
        service = JobService(workers=1,
                             cache_dir=str(tmp_path / "cache")).start()
        try:
            service.submit(spec)
            done = service.wait(spec.cache_key(), timeout=60)
            assert done["result"]["digest"] == result_digest(local)
        finally:
            service.stop()

    def test_single_flight_dedup_one_execution_n_deliveries(self):
        release, started, calls = threading.Event(), threading.Event(), []
        service = JobService(
            workers=1, execute=gated_execute(release, started, calls),
        ).start()
        try:
            spec = tiny_spec()
            first = service.submit(spec, tenant="t0")
            assert not first["deduped"]
            assert started.wait(30)
            duplicates = [service.submit(spec, tenant=f"t{n}")
                          for n in range(1, 6)]
            assert all(info["deduped"] for info in duplicates)
            assert service.metrics.deduped == 5
            release.set()
            done = service.wait(spec.cache_key(), timeout=30)
            assert done["state"] == "done"
            assert calls == [spec.cache_key()]  # exactly one execution
            snapshot = service.metrics_snapshot()
            assert snapshot["jobs"]["submitted"] == 6
            assert snapshot["jobs"]["accepted"] == 1
            assert snapshot["jobs"]["deduped"] == 5
            assert snapshot["runner"]["simulations_run"] == 1
        finally:
            release.set()
            service.stop()

    def test_done_job_resubmission_is_answered_from_record(self, tmp_path):
        service = JobService(workers=1,
                             cache_dir=str(tmp_path / "cache")).start()
        try:
            spec = tiny_spec()
            service.submit(spec)
            service.wait(spec.cache_key(), timeout=60)
            again = service.submit(spec)
            assert again["state"] == "done"
            assert again["cached"]
            assert service.metrics_snapshot()["runner"][
                "simulations_run"] == 1
        finally:
            service.stop()

    def test_read_through_cache_hit_skips_queue(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = tiny_spec()
        warm = JobService(workers=1, cache_dir=cache_dir).start()
        warm.submit(spec)
        warm.wait(spec.cache_key(), timeout=60)
        warm.stop()

        cold = JobService(workers=0, cache_dir=cache_dir)
        info = cold.submit(spec)
        assert info["state"] == "done"
        assert info["cached"]
        snapshot = cold.metrics_snapshot()
        assert snapshot["cache"]["hits"] == 1
        assert snapshot["jobs"]["queued"] == 0
        cold.stop()

    def test_backpressure_rejects_at_queue_bound(self):
        release, started, calls = threading.Event(), threading.Event(), []
        service = JobService(
            workers=1, queue_bound=2,
            execute=gated_execute(release, started, calls),
        ).start()
        try:
            service.submit(tiny_spec(seed=0, name="a"))
            assert started.wait(30)  # worker busy; queue now empty
            service.submit(tiny_spec(seed=1, name="b"))
            service.submit(tiny_spec(seed=2, name="c"))
            with pytest.raises(QueueFullError) as excinfo:
                service.submit(tiny_spec(seed=3, name="d"))
            assert excinfo.value.retry_after > 0
            assert service.metrics.rejected_queue_full == 1
            # The rejected submission must not leak quota accounting.
            assert service._quota.inflight("default") == 3
        finally:
            release.set()
            service.stop()

    def test_quota_rejects_per_tenant(self):
        service = JobService(workers=0, quota=2)
        service.submit(tiny_spec(seed=0, name="a"), tenant="alice")
        service.submit(tiny_spec(seed=1, name="b"), tenant="alice")
        with pytest.raises(QuotaExceededError):
            service.submit(tiny_spec(seed=2, name="c"), tenant="alice")
        assert service.metrics.rejected_quota == 1
        # Another tenant still has budget.
        service.submit(tiny_spec(seed=3, name="d"), tenant="bob")
        service.stop()

    def test_quota_released_when_jobs_resolve(self):
        service = JobService(workers=0, quota=1, execute=lambda s, a: {})
        spec = tiny_spec()
        service.submit(spec, tenant="alice")
        assert service.step() == spec.cache_key()
        service.submit(tiny_spec(seed=9, name="z"), tenant="alice")
        service.stop()

    def test_cancel_detaches_and_cancels_last_attachment(self):
        service = JobService(workers=0, execute=lambda s, a: {})
        spec = tiny_spec()
        service.submit(spec, tenant="alice")
        service.submit(spec, tenant="bob")
        partial = service.cancel(spec.cache_key(), tenant="alice")
        assert partial["state"] == "queued"  # bob still attached
        final = service.cancel(spec.cache_key(), tenant="bob")
        assert final["state"] == "cancelled"
        assert service.step() is None  # nothing left to run
        assert service.metrics.cancelled == 1
        service.stop()

    def test_draining_service_rejects_submissions(self):
        service = JobService(workers=1).start()
        service.drain()
        with pytest.raises(ServiceError) as excinfo:
            service.submit(tiny_spec())
        assert not isinstance(excinfo.value, (QueueFullError,
                                              QuotaExceededError))
        assert service.metrics.rejected_draining == 1
        service.stop()

    def test_failed_job_reports_error_not_exception(self):
        def explode(spec, attempt):
            raise ValueError("synthetic failure")

        from repro.resilience.policy import RetryPolicy

        service = JobService(workers=1, execute=explode,
                             retry=RetryPolicy(max_attempts=1)).start()
        try:
            spec = tiny_spec()
            service.submit(spec)
            done = service.wait(spec.cache_key(), timeout=30)
            assert done["state"] == "failed"
            assert "synthetic failure" in done["error"]
            assert service.metrics.failed == 1
        finally:
            service.stop()

    def test_unknown_key_polls_none(self):
        service = JobService(workers=0)
        assert service.poll("no-such-key") is None
        assert service.wait("no-such-key", timeout=0.05) is None
        assert service.cancel("no-such-key") is None
        assert not service.add_done_callback("no-such-key", lambda i: None)
        service.stop()


class TestDrainResume:
    def test_drain_checkpoints_queued_jobs_and_resume_runs_them(
            self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "svc.jsonl")
        specs = [tiny_spec(seed=index, name=f"w{index}")
                 for index in range(3)]

        first = JobService(workers=0, cache_dir=cache_dir, journal=journal)
        for spec in specs:
            first.submit(spec, tenant="alice")
        first.drain()
        first.stop()  # nothing executed: all three still pending

        second = JobService(workers=1, cache_dir=cache_dir,
                            journal=journal, quota=1).start()
        try:
            assert second.metrics.resumed == 3
            # Resume bypasses the quota bound: accepted work is never
            # retroactively rejected.
            for spec in specs:
                done = second.wait(spec.cache_key(), timeout=60)
                assert done["state"] == "done"
        finally:
            second.stop()

    def test_running_job_finishes_before_drain_returns(self, tmp_path):
        release, started, calls = threading.Event(), threading.Event(), []
        journal = str(tmp_path / "svc.jsonl")
        service = JobService(
            workers=1, journal=journal,
            execute=gated_execute(release, started, calls),
        ).start()
        spec = tiny_spec()
        service.submit(spec)
        assert started.wait(30)
        drainer = threading.Thread(target=service.drain)
        drainer.start()
        time.sleep(0.05)
        assert drainer.is_alive()  # drain waits on the running job
        release.set()
        drainer.join(30)
        assert not drainer.is_alive()
        assert service.poll(spec.cache_key())["state"] == "done"
        service.stop()
        # The journal agrees: nothing pending after a clean drain.
        reloaded = ServiceJournal(journal)
        assert reloaded.pending() == []
        reloaded.close()

    def test_resume_answers_done_jobs_from_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "svc.jsonl")
        spec = tiny_spec()
        first = JobService(workers=1, cache_dir=cache_dir,
                           journal=journal).start()
        first.submit(spec)
        done = first.wait(spec.cache_key(), timeout=60)
        first.stop()

        second = JobService(workers=0, cache_dir=cache_dir,
                            journal=journal)
        rehydrated = second.poll(spec.cache_key())
        assert rehydrated is not None
        assert rehydrated["state"] == "done"
        assert rehydrated["result"]["digest"] == done["result"]["digest"]
        second.stop()

    def test_resume_reruns_done_job_whose_cache_entry_was_lost(
            self, tmp_path):
        """A journaled-done job with no cached payload must re-run.

        The journal can say ``done`` while the cache entry is gone —
        evicted as corrupt, or the cache directory did not survive the
        restart.  Dropping the job would strand every waiter on an
        unknown key; the service must re-enqueue it instead.
        """
        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "svc.jsonl")
        spec = tiny_spec()
        first = JobService(workers=1, cache_dir=cache_dir,
                           journal=journal).start()
        first.submit(spec)
        done = first.wait(spec.cache_key(), timeout=60)
        assert done is not None and done["state"] == "done"
        first.stop()

        # Corrupt the published entry so the resume probe evicts it.
        from repro.runner import ResultCache
        entry = ResultCache(cache_dir)._entry_path(spec.cache_key())
        with open(entry, "wb") as fh:
            fh.write(b"RPRC1\n" + b"\x00" * 16 + b"garbage")

        second = JobService(workers=1, cache_dir=cache_dir,
                            journal=journal).start()
        try:
            assert second.metrics.requeued_lost == 1
            assert second.metrics.resumed == 0
            rerun = second.wait(spec.cache_key(), timeout=60)
            assert rerun is not None and rerun["state"] == "done"
            assert rerun["result"]["digest"] == done["result"]["digest"]
        finally:
            second.stop()


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------

@pytest.fixture
def http_service(tmp_path):
    """A served JobService; yields (client, service, server)."""
    service = JobService(workers=2, cache_dir=str(tmp_path / "cache"),
                         journal=str(tmp_path / "svc.jsonl"),
                         queue_bound=32)
    ready = threading.Event()
    holder = {}

    def on_ready(server):
        holder["server"] = server
        ready.set()

    thread = threading.Thread(target=serve, args=(service,),
                              kwargs={"on_ready": on_ready}, daemon=True)
    thread.start()
    assert ready.wait(30), "server never came up"
    client = ServiceClient("127.0.0.1", holder["server"].port)
    yield client, service, holder["server"]
    holder["server"].request_stop()
    thread.join(30)
    assert not thread.is_alive()


class TestHttpService:
    def test_submit_wait_poll_roundtrip(self, http_service):
        client, _, _ = http_service
        spec = tiny_spec()
        info = client.submit(spec)
        assert info["key"] == spec.cache_key()
        done = client.wait(info["key"], timeout=60)
        assert done["state"] == "done"
        assert done["result"]["ipc"] > 0
        assert client.poll(info["key"])["state"] == "done"

    def test_stream_delivers_every_key(self, http_service):
        client, _, _ = http_service
        specs = [tiny_spec(seed=index, name=f"s{index}")
                 for index in range(3)]
        keys = [client.submit(spec)["key"] for spec in specs]
        lines = list(client.stream(keys + ["missing-key"], timeout=60))
        states = {line["key"]: line["state"] for line in lines}
        assert states["missing-key"] == "unknown"
        assert all(states[key] == "done" for key in keys)
        metrics = client.metrics()
        assert metrics["jobs"]["streamed"] == 3

    def test_dedup_counter_over_http(self, http_service):
        client, _, _ = http_service
        spec = tiny_spec(name="dedup-http")
        wire = spec_to_wire(spec)
        n = 5
        infos = [client.submit(wire) for _ in range(n)]
        client.wait(spec.cache_key(), timeout=60)
        metrics = client.metrics()
        # First submission executes (or is answered by the cache if it
        # settled before a duplicate landed); every later one is a
        # dedup attach or a cache answer — never a second execution.
        assert metrics["jobs"]["submitted"] >= n
        assert (metrics["jobs"]["deduped"]
                + metrics["cache"]["hits"]) >= n - 1
        assert metrics["runner"]["simulations_run"] == 1
        assert len({info["key"] for info in infos}) == 1

    def test_malformed_spec_maps_to_configuration_error(self, http_service):
        client, _, _ = http_service
        with pytest.raises(ConfigurationError):
            client.submit({"kind": "nope"})

    def test_unknown_key_maps_to_404(self, http_service):
        client, _, _ = http_service
        with pytest.raises(ReproError) as excinfo:
            client.poll("feedfacefeedfacefeedfacefeedface")
        assert "404" in str(excinfo.value)

    def test_healthz_and_metrics_endpoints(self, http_service):
        client, _, _ = http_service
        health = client.healthz()
        assert health["ok"] and not health["draining"]
        metrics = client.metrics()
        assert "jobs" in metrics and "latency" in metrics
        assert metrics["queue"]["bound"] == 32

    def test_drain_endpoint_flips_to_503(self, http_service):
        client, _, _ = http_service
        assert client.drain() == {"drained": True}
        assert client.healthz()["draining"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(tiny_spec())
        assert not isinstance(excinfo.value, (QueueFullError,
                                              QuotaExceededError))

    def test_wait_timeout_returns_current_state(self, tmp_path):
        release, started, calls = threading.Event(), threading.Event(), []
        service = JobService(
            workers=1, execute=gated_execute(release, started, calls),
        )
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            ready.set()

        thread = threading.Thread(target=serve, args=(service,),
                                  kwargs={"on_ready": on_ready},
                                  daemon=True)
        thread.start()
        assert ready.wait(30)
        client = ServiceClient("127.0.0.1", holder["server"].port)
        try:
            spec = tiny_spec()
            client.submit(spec)
            assert started.wait(30)
            stuck = client.wait(spec.cache_key(), timeout=0.1)
            assert stuck["state"] == "running"
            release.set()
            done = client.wait(spec.cache_key(), timeout=30)
            assert done["state"] == "done"
        finally:
            release.set()
            holder["server"].request_stop()
            thread.join(30)


class TestHttpBackpressure:
    def test_queue_full_maps_to_retryable_error(self):
        release, started, calls = threading.Event(), threading.Event(), []
        service = JobService(
            workers=1, queue_bound=1,
            execute=gated_execute(release, started, calls),
        )
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            ready.set()

        thread = threading.Thread(target=serve, args=(service,),
                                  kwargs={"on_ready": on_ready},
                                  daemon=True)
        thread.start()
        assert ready.wait(30)
        client = ServiceClient("127.0.0.1", holder["server"].port)
        try:
            client.submit(tiny_spec(seed=0, name="a"))
            assert started.wait(30)
            client.submit(tiny_spec(seed=1, name="b"))
            with pytest.raises(QueueFullError) as excinfo:
                client.submit(tiny_spec(seed=2, name="c"))
            assert excinfo.value.retry_after > 0
        finally:
            release.set()
            holder["server"].request_stop()
            thread.join(30)

    def test_quota_maps_to_retryable_error(self):
        service = JobService(workers=0, quota=1)
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            ready.set()

        thread = threading.Thread(target=serve, args=(service,),
                                  kwargs={"on_ready": on_ready},
                                  daemon=True)
        thread.start()
        assert ready.wait(30)
        client = ServiceClient("127.0.0.1", holder["server"].port,
                               tenant="alice")
        try:
            client.submit(tiny_spec(seed=0, name="a"))
            with pytest.raises(QuotaExceededError):
                client.submit(tiny_spec(seed=1, name="b"))
        finally:
            holder["server"].request_stop()
            thread.join(30)


class TestHttpDrainResume:
    def test_http_drain_then_restart_loses_no_jobs(self, tmp_path):
        """Submit over HTTP, drain before execution, restart, verify."""
        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "svc.jsonl")
        specs = [tiny_spec(seed=index, name=f"r{index}")
                 for index in range(3)]

        # Phase 1: a service whose workers never start (workers=0),
        # so every accepted job is still queued at drain time.
        first = JobService(workers=0, cache_dir=cache_dir, journal=journal)
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            ready.set()

        thread = threading.Thread(target=serve, args=(first,),
                                  kwargs={"on_ready": on_ready},
                                  daemon=True)
        thread.start()
        assert ready.wait(30)
        client = ServiceClient("127.0.0.1", holder["server"].port)
        keys = [client.submit(spec)["key"] for spec in specs]
        holder["server"].request_stop()  # graceful drain
        thread.join(30)
        assert not thread.is_alive()

        # Phase 2: a fresh service on the same journal+cache resumes
        # and completes every checkpointed job — zero lost jobs.
        second = JobService(workers=2, cache_dir=cache_dir,
                            journal=journal).start()
        try:
            assert second.metrics.resumed == len(specs)
            for key in keys:
                assert second.wait(key, timeout=60)["state"] == "done"
        finally:
            second.stop()
