"""Layer spans for the traced run, and the per-layer metric table.

:class:`Tracing` wraps the public functions of each layer with spans
from :mod:`common`.  Pool workers are forked from the traced parent, so
they inherit the wrappers; :func:`traced_execute`, handed to
``SimulationRunner(execute=...)``, times each job in the worker and
appends the worker's new spans to a file that :meth:`Tracing.collect`
reads back when the pass ends.
"""

from __future__ import annotations

import glob
import json
import os
import pickle
from contextlib import ExitStack, contextmanager

from common import (
    SpanRecorder,
    record_count,
    spec_records,
    wrap_functions,
    wrap_methods,
)

#: Every per-layer metric, in output order: (name, unit).  A traced run
#: reports all of them; a layer the workload does not reach reads 0.
PER_LAYER = [
    ("host.calib_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("workloads.gen_s", "s"),
    ("workloads.records", "count"),
    ("workloads.records_per_s", "records/s"),
    ("runner.job.signature_s", "s"),
    ("runner.job.spec_s", "s"),
    ("runner.job.cache_key_s", "s"),
    ("runner.job.spec_bytes", "bytes"),
    ("runner.job.result_bytes", "bytes"),
    ("runner.cache.get_s", "s"),
    ("runner.cache.put_s", "s"),
    ("runner.cache.hits", "count"),
    ("runner.cache.misses", "count"),
    ("runner.cache.hit_ratio", "ratio"),
    ("runner.cache.bytes_read", "bytes"),
    ("runner.cache.bytes_written", "bytes"),
    ("runner.pool.run_s", "s"),
    ("runner.pool.simulations", "count"),
    ("runner.pool.worker_busy_s", "s"),
    ("runner.pool.worker_idle_share", "ratio"),
    ("runner.pool.retries", "count"),
    ("runner.pool.failures", "count"),
    ("sim.simulate_s", "s"),
    ("sim.records", "count"),
    ("sim.records_per_s", "records/s"),
    ("sim.batched_cells", "count"),
    ("sim.scalar_cells", "count"),
    ("sim.core_s", "s"),
    ("memsys.hierarchy_s", "s"),
    ("prefetchers.decide_s", "s"),
    ("sim.multicore.mix_s", "s"),
    ("sim.multicore.alone_ipc_s", "s"),
    ("sim.multicore.records_per_s", "records/s"),
    ("frontend.simulate_s", "s"),
    ("frontend.records_per_s", "records/s"),
    ("paperclaims.cell_s.abl_throttle", "s"),
    ("paperclaims.cell_s.abl_rr", "s"),
    ("paperclaims.cell_s.abl_nl", "s"),
    ("paperclaims.cell_s.abl_gs", "s"),
    ("paperclaims.cell_s.abl_cplx", "s"),
    ("paperclaims.cell_s.abl_path", "s"),
    ("paperclaims.cell_s.frontend", "s"),
    ("paperclaims.evaluate_s", "s"),
    ("service.submit_s", "s"),
    ("service.wire_bytes_per_job", "bytes"),
    ("service.wire_encode_s", "s"),
    ("service.server_latency_p50_s", "s"),
    ("service.transport_s", "s"),
    ("service.journal_bytes", "bytes"),
    ("service.accepted", "count"),
    ("service.deduped", "count"),
    ("service.cache_hits", "count"),
    ("service.rejected", "count"),
    ("ingest.verify_s", "s"),
    ("ingest.k6.load_s", "s"),
    ("ingest.rib1.load_s", "s"),
    ("ingest.k6.records_per_s", "records/s"),
    ("ingest.rib1.records_per_s", "records/s"),
    ("ingest.faults", "count"),
]

#: Trace generators of repro.workloads; their spans make up
#: ``workloads.gen_s`` (outermost spans only, as suites call spec_trace).
GENERATORS = [
    "spec_trace", "memory_intensive_suite", "full_suite", "neural_suite",
    "cloudsuite_suite", "frontend_suite", "frontend_trace", "gap_trace",
    "stream_trace", "mix_trace", "graded_mix", "graded_suite",
    "homogeneous_mix", "heterogeneous_mixes", "compute_dense_trace",
]

# The Tracing object that forked pool workers inherit (see traced_execute).
_ACTIVE: "Tracing | None" = None


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _records_of(record, args, result) -> None:
    record["records"] = record_count(result)


def _first_arg_records(record, args, result) -> None:
    record["records"] = len(args[0])


def _pickled_size(payload) -> int:
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def _cache_get(record, args, result) -> None:
    hit, payload = result
    record["hit"] = hit
    record["bytes"] = _pickled_size(payload) if hit else 0


def _cache_put(record, args, result) -> None:
    record["bytes"] = _pickled_size(args[2])


class Tracing:
    """One traced pass: wrappers installed, spans in memory."""

    def __init__(self, spans_dir: str) -> None:
        self.recorder = SpanRecorder()
        self.spans_dir = spans_dir
        self.parent_pid = os.getpid()
        self.worker_pid: int | None = None
        self.flushed = 0
        os.makedirs(spans_dir, exist_ok=True)

    @contextmanager
    def installed(self, extra_functions=(), extra_methods=()):
        """Install the layer wrappers for the ``with`` body."""
        from repro.ingest.registry import TraceRegistry
        from repro.paperclaims.claims import Claim
        from repro.runner.cache import ResultCache
        from repro.runner.job import JobSpec

        global _ACTIVE
        functions = [("repro.workloads", name, "workloads.gen", _records_of)
                     for name in GENERATORS]
        functions += [
            ("repro.runner.job", "trace_signature", "runner.job.signature",
             None),
            ("repro.runner.job", "levels_job", "runner.job.spec", None),
            ("repro.runner.job", "mix_job", "runner.job.spec", None),
            ("repro.runner.job", "alone_ipc_job", "runner.job.spec", None),
            ("repro.sim.multicore", "compute_alone_ipcs",
             "sim.multicore.alone_ipc", None),
            ("repro.frontend", "simulate_frontend", "frontend.simulate",
             _first_arg_records),
            *extra_functions,
        ]
        methods = [
            (JobSpec, "cache_key", "runner.job.cache_key", None),
            (ResultCache, "get", "runner.cache.get", _cache_get),
            (ResultCache, "put", "runner.cache.put", _cache_put),
            (Claim, "evaluate", "paperclaims.evaluate", None),
            (TraceRegistry, "verify", "ingest.verify", None),
            *extra_methods,
        ]
        _ACTIVE = self
        try:
            with ExitStack() as stack:
                stack.enter_context(
                    wrap_functions(self.recorder, functions))
                stack.enter_context(wrap_methods(self.recorder, methods))
                yield self
        finally:
            _ACTIVE = None

    # -- pool workers ------------------------------------------------ #

    def flush_worker(self) -> None:
        """Append this worker's spans since its last flush to its file."""
        spans = self.recorder.spans
        path = os.path.join(self.spans_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for index in range(self.flushed, len(spans)):
                fh.write(json.dumps({"id": index, **spans[index]}) + "\n")
        self.flushed = len(spans)

    def collect(self) -> None:
        """Merge every worker's spans into the parent recorder."""
        for path in sorted(glob.glob(os.path.join(self.spans_dir,
                                                  "worker-*.jsonl"))):
            mapping: dict[int, int] = {}
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    span = json.loads(line)
                    if span["parent"] is not None:
                        span["parent"] = mapping[span["parent"]]
                    mapping[span.pop("id")] = len(self.recorder.spans)
                    self.recorder.spans.append(span)
            os.remove(path)

    # -- metrics ----------------------------------------------------- #

    def metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer values from the recorded spans (0 where unused)."""
        rec = self.recorder
        values = {name: 0.0 for name, _ in PER_LAYER}

        gen = [s for s in rec.named("workloads.gen")
               if not rec._inside(s, "workloads.gen")]
        gen_s = sum(s["end"] - s["start"] for s in gen)
        gen_records = sum(s["records"] for s in gen)
        values.update({
            "workloads.gen_s": gen_s,
            "workloads.records": gen_records,
            "workloads.records_per_s": _rate(gen_records, gen_s),
            "runner.job.signature_s": rec.total("runner.job.signature"),
            "runner.job.spec_s": rec.total("runner.job.spec"),
            "runner.job.cache_key_s": rec.total("runner.job.cache_key"),
        })

        gets, puts = rec.named("runner.cache.get"), rec.named("runner.cache.put")
        hits = sum(1 for s in gets if s["hit"])
        values.update({
            "runner.cache.get_s": rec.total("runner.cache.get"),
            "runner.cache.put_s": rec.total("runner.cache.put"),
            "runner.cache.hits": hits,
            "runner.cache.misses": len(gets) - hits,
            "runner.cache.hit_ratio": hits / len(gets) if gets else 0.0,
            "runner.cache.bytes_read": sum(s["bytes"] for s in gets),
            "runner.cache.bytes_written": sum(s["bytes"] for s in puts),
        })

        executions = rec.named("runner.execute")
        busy = sum(s["end"] - s["start"] for s in executions)
        run_s = rec.total("runner.pool.run")
        batches = rec.named("runner.pool.run")
        values.update({
            "runner.job.spec_bytes": sum(s["spec_bytes"] for s in executions),
            "runner.job.result_bytes": sum(s["result_bytes"]
                                           for s in executions),
            "runner.pool.run_s": run_s,
            "runner.pool.simulations": sum(s["simulations"] for s in batches),
            "runner.pool.retries": sum(s["retries"] for s in batches),
            "runner.pool.failures": sum(s["failures"] for s in batches),
            "runner.pool.worker_busy_s": busy,
            "runner.pool.worker_idle_share": (
                1.0 - busy / (jobs * run_s) if run_s else 0.0),
        })

        single = [s for s in executions if s["kind"] in ("levels", "trace")]
        mixes = [s for s in executions if s["kind"] == "mix"]
        alone = [s for s in executions if s["kind"] == "alone-ipc"]
        sim_s = sum(s["end"] - s["start"] for s in single)
        sim_records = sum(s["records"] for s in single)
        mix_s = sum(s["end"] - s["start"] for s in mixes)
        values.update({
            "sim.simulate_s": sim_s,
            "sim.records": sim_records,
            "sim.records_per_s": _rate(sim_records, sim_s),
            "sim.batched_cells": sum(1 for s in single if s["fused"]),
            "sim.scalar_cells": sum(1 for s in executions if not s["fused"]),
            "sim.multicore.mix_s": mix_s,
            "sim.multicore.alone_ipc_s": (
                rec.total("sim.multicore.alone_ipc")
                + sum(s["end"] - s["start"] for s in alone)),
            "sim.multicore.records_per_s": _rate(
                sum(s["records"] for s in mixes), mix_s),
        })

        frontend = rec.named("frontend.simulate")
        frontend_s = sum(s["end"] - s["start"] for s in frontend)
        values.update({
            "frontend.simulate_s": frontend_s,
            "frontend.records_per_s": _rate(
                sum(s["records"] for s in frontend), frontend_s),
            "paperclaims.evaluate_s": rec.total("paperclaims.evaluate"),
            "ingest.verify_s": rec.total("ingest.verify"),
        })
        return values


def traced_execute(spec, attempt: int = 1):
    """``SimulationRunner(execute=...)`` hook: time one job, keep spans.

    Runs in the pool worker (or in-process with ``jobs=1``).  The job's
    span carries its kind, record count, the pickled spec and result
    sizes and whether the batched engine fused it; a worker then
    appends its new spans to its own file for :meth:`Tracing.collect`.
    """
    from repro.runner.job import execute_job
    from repro.sim.batched import get_last_run_info

    tracing = _ACTIVE
    in_worker = os.getpid() != tracing.parent_pid
    if in_worker and tracing.worker_pid != os.getpid():
        # A fresh fork: drop the parent's spans copied into this worker.
        tracing.worker_pid = os.getpid()
        tracing.recorder.reset()
        tracing.flushed = 0
    spec_bytes = _pickled_size(spec)
    job = f"{spec.trace_name}/{spec.config_name}"
    with tracing.recorder.span("runner.execute", job=job, kind=spec.kind,
                               records=spec_records(spec),
                               spec_bytes=spec_bytes, result_bytes=0,
                               fused=False) as record:
        payload = execute_job(spec)
    record["result_bytes"] = _pickled_size(payload)
    record["fused"] = bool(spec.engine == "batched"
                           and get_last_run_info().get("fused"))
    if in_worker:
        tracing.flush_worker()
    return payload

