"""Shared measurement machinery for the benchmark workloads.

Everything here lives outside the program under test: host stamping,
CPU and memory accounting across child processes, result digests, and
the span recorder that the traced run installs around the public
functions of each layer.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------- #
# host stamp
# --------------------------------------------------------------------- #

def calibrate() -> float:
    """Seconds for a fixed pure-Python reference loop (median of 5).

    The loop's work never changes, so a slower reading means a slower
    host, not slower code: later runs divide drift out with it.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def cpu_model() -> str:
    """The CPU model name from /proc/cpuinfo, else the platform string."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_stamp() -> dict:
    """CPU count, CPU model, Python version and the calibration time."""
    return {
        "cpus": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "calib_s": calibrate(),
    }


# --------------------------------------------------------------------- #
# CPU and memory across processes
# --------------------------------------------------------------------- #

def own_cpu_s() -> float:
    """User+sys CPU of this process plus every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def own_peak_rss_mb() -> float:
    """Largest max-RSS of this process or of any reaped child (MiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User+sys CPU of a live process, read from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process (MiB)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# --------------------------------------------------------------------- #
# statistics and digests
# --------------------------------------------------------------------- #

def nearest_rank(values: list[float], quantile: float) -> float:
    """Nearest-rank quantile (``quantile`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def result_digest(payload: object) -> str:
    """blake2b-16 of a result's canonical pickle (as the service uses)."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.blake2b(body, digest_size=16).hexdigest()


def combined_digest(digests) -> str:
    """Order-free digest over a multiset of result digests."""
    digest = hashlib.blake2b(digest_size=16)
    for item in sorted(digests):
        digest.update(item.encode())
    return digest.hexdigest()


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def record_count(value) -> int:
    """Trace records in a Trace, or in any nesting of lists of Traces."""
    from repro.sim.trace import Trace

    if isinstance(value, Trace):
        return len(value)
    if isinstance(value, (list, tuple)):
        return sum(record_count(item) for item in value)
    return 0


def spec_records(spec) -> int:
    """Trace records a job spec simulates (all cores for a mix).

    A cell capped by ``max_instructions`` simulates its warm-up plus at
    most that many ROI records (one record is one instruction).
    """
    from repro.runner.job import KIND_MIX

    if spec.kind == KIND_MIX:
        return sum(len(core) for core in spec.records)
    total = len(spec.records)
    if spec.max_instructions is None:
        return total
    warmup = spec.warmup if spec.warmup is not None else total // 5
    return min(total, warmup + spec.max_instructions)


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #

class SpanRecorder:
    """In-memory spans: name, start, end, parent and job id.

    Each thread keeps its own open-span stack, so a span's parent is
    the innermost span open on the same thread when it started.  Spans
    are written out once, by :meth:`dump`, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Forget every span and open stack (a forked worker starts clean)."""
        self.spans.clear()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, job=None, **attrs):
        """Record one span around the ``with`` body; yields its dict."""
        stack = self._stack()
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": stack[-1] if stack else None,
                  "job": job, "pid": os.getpid(), **attrs}
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def named(self, name: str) -> list[dict]:
        """Every finished span called ``name``."""
        return [s for s in self.spans if s["name"] == name
                and s["end"] is not None]

    def total(self, name: str, outermost: bool = True) -> float:
        """Summed duration of spans called ``name``.

        With ``outermost`` a span nested inside another span of the same
        name is skipped, so recursive layers are not counted twice.
        """
        total = 0.0
        for span in self.named(name):
            if outermost and self._inside(span, name):
                continue
            total += span["end"] - span["start"]
        return total

    def _inside(self, span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **span}) + "\n")


def _span_wrapper(recorder: SpanRecorder | None, name: str, func,
                  on_result=None):
    """``func`` inside a span; then ``on_result(record, args, result)``.

    ``on_result`` runs after the span has closed, so what it computes
    is not charged to the layer.  With no recorder the wrapper only
    calls ``on_result`` (``record=None``), which the untraced run uses
    to collect results.
    """
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if recorder is None:
            result = func(*args, **kwargs)
            on_result(None, args, result)
            return result
        with recorder.span(name) as record:
            result = func(*args, **kwargs)
        if on_result is not None:
            on_result(record, args, result)
        return result
    return wrapper


@contextmanager
def wrap_functions(recorder: SpanRecorder | None, targets):
    """Wrap module-level functions with spans, wherever they are bound.

    ``targets`` holds ``(module, attribute, span_name, on_result)``.
    The original function is replaced under every name a loaded
    ``repro`` module bound it to (``from x import f`` copies count), so
    calls route through the span whichever module makes them.  Every
    binding is restored on exit.
    """
    import importlib

    restore = []
    try:
        for module_name, attr, span_name, on_result in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = _span_wrapper(recorder, span_name, original, on_result)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        restore.append((loaded, name, original))
                        setattr(loaded, name, wrapper)
        yield
    finally:
        for module, name, original in reversed(restore):
            setattr(module, name, original)


@contextmanager
def wrap_methods(recorder: SpanRecorder | None, targets):
    """Wrap class methods with spans: ``(cls, attr, span_name, on_result)``."""
    restore = []
    try:
        for cls, attr, span_name, on_result in targets:
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr,
                    _span_wrapper(recorder, span_name, original, on_result))
        yield
    finally:
        for cls, attr, original in reversed(restore):
            setattr(cls, attr, original)


# --------------------------------------------------------------------- #
# result assembly
# --------------------------------------------------------------------- #

def metric(value: float, unit: str) -> dict:
    """One metric entry of the result line."""
    return {"value": float(value), "unit": unit}


def summarize(outcome: dict) -> dict:
    """Workload-level metrics from a run's passes (medians over passes).

    Each pass carries ``wall_s``, ``cpu_s``, ``jobs`` and ``records``;
    the run carries every job latency and the modelled speedup.
    """
    passes = outcome["passes"]

    def median(key):
        return statistics.median(p[key] for p in passes)

    def rate(key):
        return statistics.median(p[key] / p["wall_s"] for p in passes)

    return {
        "wall_s": metric(median("wall_s"), "s"),
        "cpu_s": metric(median("cpu_s"), "s"),
        "sim_records_per_s": metric(rate("records"), "records/s"),
        "jobs_per_s": metric(rate("jobs"), "1/s"),
        "job_latency_p50_s": metric(
            nearest_rank(outcome["latencies"], 0.5), "s"),
        "job_latency_p90_s": metric(
            nearest_rank(outcome["latencies"], 0.9), "s"),
        "ipcp_speedup_geomean": metric(outcome["speedup"], "ratio"),
    }


def repeat_passes(one_pass, seconds: float, trace: bool) -> list[dict]:
    """Call ``one_pass(index)`` until the passes' ``wall_s`` add up to
    ``seconds`` (set-up time excluded).  A traced run makes one pass,
    the untraced baseline for its traced pass.

    The first pass records ``peak_rss_mb`` as of its end: later passes
    fork pool workers from a parent whose heap the earlier passes have
    grown, and how many passes fit depends on the host's speed.
    """
    passes = [one_pass(0)]
    passes[0]["peak_rss_mb"] = own_peak_rss_mb()
    while not trace and sum(p["wall_s"] for p in passes) < seconds:
        passes.append(one_pass(len(passes)))
    return passes
