"""The ``service-jobs`` workload: a closed loop against ``repro serve``.

Every pass generates ``memory_intensive_suite(scale=SCALE, seed=...)``
from the run's seed and the pass index, then starts a fresh ``repro
serve --port 0 --workers 2`` subprocess with its own cache and journal.  Two client
threads each submit a job through ``repro.service.client.ServiceClient``
and wait for its terminal result before submitting the next: the
service's callers (``repro submit --wait``, CI scripts) wait for a
reply, so the loop is closed.  The plan holds every (trace, config)
cell once plus seeded resubmissions of cells already sent, so a pass
mixes executions with dedup attachments and cache hits.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import (
    geomean,
    nearest_rank,
    own_cpu_s,
    proc_cpu_s,
    proc_peak_rss_mb,
    repeat_passes,
    result_digest,
)
from layers import Tracing

SCALE = 0.05
CONFIGS = ("none", "ipcp", "bingo")
#: With 19 traces x 3 configs: 80 submissions per pass, 57 of them
#: first sends.  Resubmissions mostly hit the cache and return in
#: milliseconds; keeping them under a third of the plan puts both
#: latency percentiles inside the execution mode instead of on the
#: edge between the two modes, where they would jump from run to run.
RESUBMISSIONS = 23
CLIENTS = 2
WORKERS = 2
SERVER_START_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0


def build_plan(cells: int, seed: int) -> list[int]:
    """Submission order: each cell once, plus resubmissions of sent cells."""
    rng = random.Random(seed)
    firsts = list(range(cells))
    rng.shuffle(firsts)
    plan: list[int] = []
    repeats = RESUBMISSIONS
    while firsts or repeats:
        remaining = len(firsts) + repeats
        if plan and repeats and rng.random() < repeats / remaining:
            plan.append(rng.choice(plan))
            repeats -= 1
        else:
            plan.append(firsts.pop())
    return plan


class Server:
    """One ``repro serve`` subprocess with a private cache and journal."""

    def __init__(self, root: str, workdir: str) -> None:
        self.journal = os.path.join(workdir, "journal.jsonl")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS),
             "--cache-dir", os.path.join(workdir, "cache"),
             "--journal", self.journal],
            cwd=workdir, env=env, stdout=subprocess.PIPE, text=True)
        line = self._read_line(SERVER_START_TIMEOUT)
        handshake = json.loads(line)
        if handshake.get("event") != "serving":
            raise RuntimeError(f"unexpected server handshake {line!r}")
        self.port = handshake["port"]

    def _read_line(self, timeout: float) -> str:
        readable, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if readable else ""
        if not line:
            self.stop()
            raise RuntimeError("repro serve did not report its port")
        return line

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the process to end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def service_pass(root: str, workdir: str, specs: list,
                 plan: list[int]) -> dict:
    """Start a server, run the closed loop over ``plan``, stop it."""
    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    os.makedirs(workdir)
    start = time.perf_counter()
    server = Server(root, workdir)
    setup_s = time.perf_counter() - start
    try:
        client = ServiceClient("127.0.0.1", server.port,
                               timeout=JOB_TIMEOUT)
        outcomes: list[dict | None] = [None] * len(plan)
        cursor = iter(range(len(plan)))
        lock = threading.Lock()

        def worker() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                spec = specs[plan[index]]
                sent = time.perf_counter()
                try:
                    document = client.submit(spec)
                    while document["state"] not in ("done", "failed",
                                                    "cancelled"):
                        document = client.wait(document["key"],
                                               timeout=JOB_TIMEOUT)
                except ReproError as error:
                    # 429/503 refusals and lost connections alike.
                    document = {"state": "refused", "error": str(error)}
                document["latency"] = time.perf_counter() - sent
                outcomes[index] = document

        server_cpu = proc_cpu_s(server.process.pid)
        cpu_start = own_cpu_s()
        start = time.perf_counter()
        threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = (own_cpu_s() - cpu_start
               + proc_cpu_s(server.process.pid) - server_cpu)
        snapshot = client.metrics()
        server_rss = proc_peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    journal_bytes = os.path.getsize(server.journal)
    return {
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
        "outcomes": outcomes,
        "metrics": snapshot, "server_rss_mb": server_rss,
        "journal_bytes": journal_bytes,
    }


def check_pass(outcome: dict, specs: list, plan: list[int],
               reference: dict[int, str]) -> list[str]:
    """Every job done, resubmissions identical, spot checks match."""
    problems = []
    first: dict[int, str] = {}
    for index, document in enumerate(outcome["outcomes"]):
        cell = plan[index]
        if document["state"] != "done":
            problems.append(f"job {index} ({specs[cell].trace_name}/"
                            f"{specs[cell].config_name}) ended "
                            f"{document['state']}: {document.get('error')}")
            continue
        digest = document["result"]["digest"]
        expected = first.setdefault(cell, digest)
        if cell in reference:
            expected = reference[cell]
        if digest != expected:
            problems.append(f"job {index}: digest {digest} != {expected}")
    return problems


def full_pass(root: str, workdir: str, seed: int,
              tracing: Tracing | None = None) -> dict:
    """Generate one seeded suite, serve it, check the answers.

    Set-up (suite generation and server start) is timed apart from the
    closed loop.  The reference is one cell per configuration
    recomputed in process with ``repro.runner.execute_job``.
    """
    from repro.service.client import ServiceClient

    start = time.perf_counter()
    with tracing.installed() if tracing else contextlib.nullcontext():
        # Imported here so the traced run binds the wrapped functions.
        from repro.runner import execute_job, levels_job
        from repro.workloads import memory_intensive_suite

        traces = memory_intensive_suite(scale=SCALE, seed=seed)
        specs = [levels_job(trace, config)
                 for trace in traces for config in CONFIGS]
    generate_s = time.perf_counter() - start
    plan = build_plan(len(specs), seed)
    reference = {index: result_digest(execute_job(specs[index]))
                 for index in range(len(CONFIGS))}

    client_spans = (
        [("repro.service.client", "spec_to_wire", "service.wire_encode",
          None)],
        [(ServiceClient, "submit", "service.submit", None)],
    )
    with (tracing.installed(*client_spans) if tracing
          else contextlib.nullcontext()):
        outcome = service_pass(root, workdir, specs, plan)
    outcome["setup_s"] += generate_s
    outcome["problems"] = check_pass(outcome, specs, plan, reference)
    ipc = {(specs[cell].trace_name, specs[cell].config_name):
           document["result"]["ipc"]
           for cell, document in zip(plan, outcome["outcomes"])
           if document["state"] == "done"}
    outcome["speedup"] = geomean(
        ipc[(trace.name, "ipcp")] / ipc[(trace.name, "none")]
        for trace in traces)
    outcome["jobs"] = sum(document["state"] == "done"
                          for document in outcome["outcomes"])
    outcome["records"] = sum(
        len(specs[cell].records)
        for cell in {cell for cell, document in zip(plan, outcome["outcomes"])
                     if document["state"] == "done"})
    if tracing is not None:
        outcome["layers"] = _service_layers(outcome, specs, tracing)
    return outcome


def run(root: str, workdir: str, workload: str, seed: int,
        seconds: float, trace: bool) -> dict:
    """Run ``service-jobs``; returns the raw outcome.

    Pass ``i`` serves the suite of seed ``seed * 1000 + i``, so the
    medians over passes also average over trace contents.
    """
    passes = repeat_passes(
        lambda index: full_pass(root, os.path.join(workdir, f"pass-{index}"),
                                seed * 1000 + index),
        seconds, trace)

    layers = None
    if trace:
        tracing = Tracing(os.path.join(workdir, "spans"))
        traced = full_pass(root, os.path.join(workdir, "traced"),
                           seed * 1000, tracing)
        layers = tracing.metrics(1)
        layers.update(traced["layers"])
        layers["trace.untraced_wall_s"] = passes[0]["wall_s"]
        layers["trace.wall_s"] = traced["wall_s"]
        passes.append(traced)

    problems = [f"pass {index}: {problem}"
                for index, outcome in enumerate(passes)
                for problem in outcome["problems"]]
    measured = passes[:-1] if trace else passes
    return {
        "setup_s": statistics.median(p["setup_s"] for p in measured),
        "passes": measured,
        "latencies": [doc["latency"] for p in measured
                      for doc in p["outcomes"]],
        "speedup": statistics.median(p["speedup"] for p in measured),
        "attempted": sum(len(p["outcomes"]) for p in passes),
        "failed": len(problems),
        "problems": problems,
        "peak_rss_mb": max(passes[0]["peak_rss_mb"],
                           passes[0]["server_rss_mb"]),
        "layers": layers,
        "tracing": tracing if trace else None,
    }


def _service_layers(outcome: dict, specs: list,
                    tracing: Tracing) -> dict[str, float]:
    from repro.service.wire import spec_to_wire

    jobs = outcome["metrics"]["jobs"]
    server_p50 = outcome["metrics"]["latency"]["p50_s"]
    client_p50 = nearest_rank([d["latency"] for d in outcome["outcomes"]],
                              0.5)
    encodes = tracing.recorder.named("service.wire_encode")
    submits = tracing.recorder.named("service.submit")
    return {
        "service.wire_bytes_per_job": statistics.mean(
            len(json.dumps(spec_to_wire(spec))) for spec in specs),
        "service.wire_encode_s": statistics.mean(
            s["end"] - s["start"] for s in encodes),
        "service.submit_s": statistics.median(
            s["end"] - s["start"] for s in submits),
        "service.server_latency_p50_s": server_p50,
        "service.transport_s": client_p50 - server_p50,
        "service.journal_bytes": outcome["journal_bytes"],
        "service.accepted": jobs["accepted"],
        "service.deduped": jobs["deduped"],
        "service.cache_hits": jobs["cache_hits"],
        "service.rejected": (jobs["rejected_queue_full"]
                             + jobs["rejected_quota"]
                             + jobs["rejected_draining"]),
    }
