"""The ``trace-ingest`` workload: registered traces, verified and loaded.

Set-up writes a seeded corpus of synthetic traces, each file once as
gzip k6 text and once as RIB1 binary (``repro.ingest.write_k6`` and
``write_binary``), and registers every file in a
``repro.ingest.TraceRegistry``.  A pass takes each registered trace as
one job: ``TraceRegistry.load_trace`` re-hashes the file against its
registered checksum and decodes it, then the job runs one short
no-prefetch cell and one IPCP cell on it through a
``repro.runner.SimulationRunner`` with a fresh cache, so the ``reg:``
cache-key path is covered.  Loaded records must equal the generated
ones exactly.
"""

from __future__ import annotations

import contextlib
import os
import random
import statistics
import time

from common import (
    geomean,
    own_cpu_s,
    repeat_passes,
    result_digest,
)
from layers import Tracing, traced_execute

FILES = 20                 # per format
RECORDS = 32_000           # per RIB1 file; k6 keeps the memory records
SETUPS = 2
WARMUP = 200
ROI = 600
FORMATS = (("k6", ".k6.gz"), ("rib1", ".rib"))


def synthetic_records(seed: int) -> list[tuple[int, int, int, int]]:
    """One seeded trace: strided and irregular load/store streams.

    Eight instruction pointers each walk their own 4 MiB region, six
    with a constant stride in cache lines and two at random, between
    runs of non-memory instructions.
    """
    from repro.sim.trace import LOAD, OTHER, STORE

    rng = random.Random(seed)
    streams = []
    for index in range(8):
        stride = rng.choice((1, 2, 3, 4, -1, -2)) if index < 6 else None
        base = (0x1000_0000 + index * 0x40_0000) | rng.randrange(64) * 64
        streams.append([0x40_1000 + index * 0x40, base, stride, 0])
    records = []
    code = 0x50_0000
    while len(records) < RECORDS:
        if rng.random() < 0.7:
            records.append((OTHER, code + (len(records) % 97) * 4, 0, 0))
            continue
        stream = streams[rng.randrange(8)]
        ip, base, stride, step = stream
        if stride is None:
            addr = base + rng.randrange(0x40_0000 // 64) * 64
        else:
            addr = base + (step * stride * 64) % 0x40_0000
            stream[3] += 1
        kind = STORE if rng.random() < 0.2 else LOAD
        records.append((kind, ip, addr, 0))
    return records


def k6_records(records) -> list[tuple[int, int, int, int]]:
    """What the k6 reader yields for ``records``: memory ops only, IPs
    synthesised per direction, no dependencies."""
    from repro.ingest import K6_READ_IP, K6_WRITE_IP
    from repro.sim.trace import LOAD, STORE

    ips = {LOAD: K6_READ_IP, STORE: K6_WRITE_IP}
    return [(kind, ips[kind], addr, 0) for kind, _ip, addr, _dep in records
            if kind in ips]


def write_corpus(directory: str, seed: int) -> tuple[object, dict]:
    """Write, register and return ``(registry, {name: expected records})``."""
    from repro.ingest import TraceRegistry, write_binary, write_k6

    os.makedirs(directory)
    registry = TraceRegistry(os.path.join(directory, "traces.json"))
    expected = {}
    for index in range(FILES):
        records = synthetic_records(seed * 1_000 + index)
        for fmt, suffix in FORMATS:
            name = f"{fmt}-{index:03d}"
            path = os.path.join(directory, name + suffix)
            if fmt == "k6":
                expected[name] = k6_records(records)
                write_k6(expected[name], path)
            else:
                expected[name] = records
                write_binary(records, path)
            registry.register(name, path)
    return registry, expected


def ingest_pass(registry, expected: dict, cache_dir: str,
                tracing: Tracing | None = None) -> dict:
    """Load and simulate every registered trace once."""
    from repro.errors import ReproError
    from repro.runner import ResultCache, SimulationRunner, levels_job

    runner = SimulationRunner(
        jobs=1, cache=ResultCache(cache_dir),
        execute=traced_execute if tracing is not None else None)
    done, problems = [], []
    cpu_start = own_cpu_s()
    start = time.perf_counter()
    for name in sorted(expected):
        begin = time.perf_counter()
        try:
            load_span = (tracing.recorder.span(
                "ingest.load", job=name, fmt=name.split("-")[0])
                if tracing else contextlib.nullcontext())
            with load_span as span:
                trace, report = registry.load_trace(name)
            if span is not None:
                span["records"] = len(trace)
            results = runner.run([
                levels_job(trace, config, warmup=WARMUP,
                           max_instructions=ROI)
                for config in ("none", "ipcp")])
        except ReproError as error:
            problems.append(f"{name}: {type(error).__name__}: {error}")
            continue
        latency = time.perf_counter() - begin
        if report.fault_counts:
            problems.append(f"{name}: ingest faults {report.fault_counts}")
        if list(trace) != expected[name]:
            problems.append(f"{name}: loaded records differ from the "
                            f"generated ones")
        done.append({"name": name, "latency": latency, "results": results,
                     "records": sum(WARMUP + r.instructions
                                    for r in results),
                     "loaded": len(trace)})
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": own_cpu_s() - cpu_start,
            "done": done, "jobs": len(done), "problems": problems,
            "records": sum(job["records"] for job in done)}


def spot_reference(expected: dict) -> dict[str, list[str]]:
    """Result digests for the first file of each format, computed from
    the generated records without going through ingest."""
    from repro.runner import execute_job, levels_job
    from repro.sim.trace import Trace

    reference = {}
    for fmt, _ in FORMATS:
        name = f"{fmt}-000"
        trace = Trace(expected[name], name=name)
        reference[name] = [
            result_digest(execute_job(levels_job(
                trace, config, warmup=WARMUP, max_instructions=ROI)))
            for config in ("none", "ipcp")]
    return reference


def run(root: str, workdir: str, workload: str, seed: int,
        seconds: float, trace: bool) -> dict:
    """Run ``trace-ingest``; returns the raw outcome."""
    setups = []
    for index in range(SETUPS):
        start = time.perf_counter()
        registry, expected = write_corpus(
            os.path.join(workdir, f"corpus-{index}"), seed)
        setups.append(time.perf_counter() - start)
    reference = spot_reference(expected)

    def one_pass(index: int, tracing=None) -> dict:
        cache_dir = os.path.join(workdir, f"cache-{index}")
        if tracing is None:
            return ingest_pass(registry, expected, cache_dir)
        with tracing.installed():
            return ingest_pass(registry, expected, cache_dir, tracing)

    passes = repeat_passes(one_pass, seconds, trace)

    layers = None
    if trace:
        tracing = Tracing(os.path.join(workdir, "spans"))
        traced = one_pass(len(passes), tracing)
        layers = tracing.metrics(1)
        layers.update(_ingest_layers(tracing, traced))
        layers["trace.untraced_wall_s"] = passes[0]["wall_s"]
        layers["trace.wall_s"] = traced["wall_s"]
        passes.append(traced)

    problems, attempted = [], 0
    for index, outcome in enumerate(passes):
        attempted += len(expected)
        problems += [f"pass {index}: {p}" for p in outcome["problems"]]
        for job in outcome["done"]:
            digests = [result_digest(r) for r in job["results"]]
            if digests != reference.get(job["name"], digests):
                problems.append(f"pass {index}: {job['name']} results "
                                f"differ from the in-process reference")
    measured = passes[:-1] if trace else passes
    speedup = geomean(job["results"][1].ipc / job["results"][0].ipc
                      for job in measured[0]["done"])
    return {
        "setup_s": statistics.median(setups),
        "passes": measured,
        "latencies": [job["latency"] for p in measured for job in p["done"]],
        "speedup": speedup,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "layers": layers,
        "tracing": tracing if trace else None,
    }


def _ingest_layers(tracing: Tracing, outcome: dict) -> dict[str, float]:
    recorder = tracing.recorder
    values = {"ingest.faults": float(len(outcome["problems"]))}
    for fmt, _ in FORMATS:
        loads = [s for s in recorder.named("ingest.load") if s["fmt"] == fmt]
        # load_trace verifies the checksum first; those spans nest inside.
        verify = sum(s["end"] - s["start"]
                     for s in recorder.named("ingest.verify")
                     if s["parent"] is not None
                     and recorder.spans[s["parent"]].get("fmt") == fmt)
        seconds = sum(s["end"] - s["start"] for s in loads) - verify
        values[f"ingest.{fmt}.load_s"] = seconds
        values[f"ingest.{fmt}.records_per_s"] = (
            sum(s["records"] for s in loads) / seconds if seconds else 0.0)
    return values
