"""The ``claims-cold`` and ``claims-warm`` workloads.

Both run one fixed claim subset through ``repro.paperclaims.ClaimEngine``
on a two-worker ``repro.runner.SimulationRunner``.  ``claims-cold``
starts every pass from an empty private cache, so every cell simulates;
``claims-warm`` replays a cache that set-up filled with one cold pass,
so no runner cell simulates.  The claims keep the registry's fixed
scales and seeds (their thresholds are the EXPERIMENTS.md ones), so
``--seed`` does not change these two workloads.

Run ``python3 perfbench/claims.py --write-reference`` to re-record the
reference digests after a change that is meant to alter results.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from common import (
    combined_digest,
    own_cpu_s,
    repeat_passes,
    result_digest,
    spec_records,
    wrap_functions,
)
from layers import Tracing, traced_execute

#: The claim subset.  The full 45-claim cold run takes 75-100 s on a
#: 2-CPU host, too long to repeat as often as a benchmark must; these
#: claims keep every layer busy in an 8-20 s cold pass: IPCP ablations on
#: single-core cells (throttle, RR filter, NL gate, GS/CPLX degree),
#: one four-core mix (multicore engine) and the instruction-side suite
#: (frontend).  ``bench-throughput`` is left out on purpose: it times
#: the host itself and its thr.ipcp / thr.baseline >= 0.2 ratio flipped
#: in 1 of 5 warm runs (values 0.22-0.29).
CLAIM_SET = [
    "abl-throttling", "abl-rr-filter", "abl-nl-gate", "abl-gs-degree",
    "abl-cplx-degree", "abl-pathological-mix", "fe-frontend-bound-suite",
    "fe-ipcp-i-leader", "fe-tlb-ablation", "fe-mana-replay-gap",
]
#: Claim value reported as ``ipcp_speedup_geomean``: IPCP L1+L2 geomean
#: IPC speedup over no prefetching on the ablation traces (modelled).
SPEEDUP_VALUE = "abl.throttle.on"
JOBS = 2
STARTUP_SAMPLES = 3
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def _make_runner(cache_dir: str, tracing: Tracing | None):
    """A SimulationRunner that clocks each cell it resolves."""
    from repro.runner import ResultCache, SimulationRunner

    class ClockedCache(ResultCache):
        """Stamps the time each cell's result becomes available."""

        def get(self, key):
            hit, payload = super().get(key)
            if hit:
                runner.latencies.append(time.perf_counter() - runner.batch_start)
            return hit, payload

        def put(self, key, payload):
            super().put(key, payload)
            runner.latencies.append(time.perf_counter() - runner.batch_start)

    class BenchRunner(SimulationRunner):
        """Records latency, records and payloads of every resolved cell."""

        def run(self, specs, degraded=None):
            self.batch_start = time.perf_counter()
            if tracing is None:
                results = super().run(specs, degraded)
            else:
                before = (self.simulations_run, self.retries, self.failures)
                with tracing.recorder.span("runner.pool.run") as record:
                    results = super().run(specs, degraded)
                record.update(simulations=self.simulations_run - before[0],
                              retries=self.retries - before[1],
                              failures=self.failures - before[2])
                self.specs.extend(specs)
            distinct = {id(payload): (spec, payload)
                        for spec, payload in zip(specs, results)}
            for spec, payload in distinct.values():
                self.records += spec_records(spec)
                self.payloads.append(payload)
            return results

    runner = BenchRunner(
        jobs=JOBS, cache=ClockedCache(cache_dir),
        execute=traced_execute if tracing is not None else None)
    runner.batch_start = time.perf_counter()
    runner.latencies, runner.payloads, runner.specs = [], [], []
    runner.records = 0
    return runner


def _capture_frontend(results: list):
    def keep(_record, _args, result):
        results.append(result)
    return wrap_functions(None, [("repro.frontend", "simulate_frontend",
                                  "", keep)])


def claims_pass(cache_dir: str, tracing: Tracing | None = None) -> dict:
    """One ClaimEngine run over :data:`CLAIM_SET`; timings and checks."""
    from repro.paperclaims import CELLS, CLAIMS, ClaimEngine

    frontend_results: list = []
    cpu_start = own_cpu_s()
    start = time.perf_counter()
    runner = _make_runner(cache_dir, tracing)
    with _capture_frontend(frontend_results):
        if tracing is None:
            report = ClaimEngine(CELLS, CLAIMS, runner).run(only=CLAIM_SET)
        else:
            with tracing.installed():
                report = ClaimEngine(CELLS, CLAIMS, runner).run(
                    only=CLAIM_SET)
    wall = time.perf_counter() - start
    cpu = own_cpu_s() - cpu_start
    digests = {
        "results": combined_digest(
            result_digest(p) for p in runner.payloads + frontend_results),
        "values": result_digest(json.dumps(report.values, sort_keys=True)),
    }
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies": runner.latencies,
        "jobs": len(runner.latencies),
        "records": runner.records,
        "speedup": report.values[SPEEDUP_VALUE],
        "claims": len(report.verdicts),
        "flipped": [v.claim_id for v in report.verdicts if not v.passed],
        "digests": digests,
        "cell_seconds": report.cell_seconds,
        "specs": runner.specs,
    }


def _startup_s(root: str) -> float:
    """Wall time of a fresh interpreter importing the claim harness."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = ("import repro.paperclaims, repro.runner.job as job; "
            "job.code_salt()")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def _engine_split(specs, limit: int = 6) -> dict[str, float]:
    """Differential replays of single-core cells, in process.

    For a sample of configured cells: core timing alone (ideal memory,
    ``simulate_ideal``), hierarchy cost (no prefetcher minus ideal) and
    prefetcher cost (configured minus no prefetcher).
    """
    from repro.prefetchers import make_prefetcher
    from repro.runner.job import KIND_LEVELS
    from repro.sim.engine import simulate, simulate_ideal

    cells = {}
    for spec in specs:
        if spec.kind == KIND_LEVELS and spec.config_name != "none":
            cells.setdefault((spec.trace_name, spec.config_name), spec)
    sample = [cells[key] for key in sorted(cells)[:limit]]
    baselines: dict = {}
    core = hierarchy = decide = 0.0

    def timed(func, *args, **kwargs) -> float:
        start = time.perf_counter()
        func(*args, **kwargs)
        return time.perf_counter() - start

    for spec in sample:
        trace = spec.build_trace()
        window = dict(params=spec.params, warmup=spec.warmup)
        base_key = (spec.trace_name, spec.trace_sig)
        if base_key not in baselines:
            ideal = timed(simulate_ideal, trace, **window)
            bare = timed(simulate, trace, max_instructions=spec.max_instructions,
                         **window)
            baselines[base_key] = (ideal, bare)
            core += ideal
            hierarchy += bare - ideal
        levels = make_prefetcher(spec.config_name)
        configured = timed(
            simulate, trace, max_instructions=spec.max_instructions,
            **{f"{level}_prefetcher": levels[level]()
               for level in ("l1", "l2", "llc") if level in levels},
            **window)
        decide += configured - baselines[base_key][1]
    return {"sim.core_s": core, "memsys.hierarchy_s": hierarchy,
            "prefetchers.decide_s": decide}


def load_reference() -> dict:
    """The recorded digests every claims pass must reproduce."""
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["claims"]


def run(root: str, workdir: str, workload: str, seed: int,
        seconds: float, trace: bool) -> dict:
    """Run ``claims-cold`` or ``claims-warm``; returns the raw outcome."""
    reference = load_reference()
    warm = workload == "claims-warm"
    warm_dir = os.path.join(workdir, "warm-cache")

    def fresh_dir() -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=workdir)

    if warm:
        setup = [claims_pass(warm_dir)["wall_s"]]
    else:
        setup = [_startup_s(root) for _ in range(STARTUP_SAMPLES)]

    def one_pass(_index=0, tracing=None) -> dict:
        cache_dir = warm_dir if warm else fresh_dir()
        try:
            return claims_pass(cache_dir, tracing)
        finally:
            if not warm:
                shutil.rmtree(cache_dir, ignore_errors=True)

    passes = repeat_passes(one_pass, seconds, trace)

    layers = None
    if trace:
        tracing = Tracing(os.path.join(workdir, "spans"))
        traced = one_pass(tracing=tracing)
        tracing.collect()
        layers = tracing.metrics(JOBS)
        for cell_id, seconds_ in traced["cell_seconds"].items():
            layers[f"paperclaims.cell_s.{cell_id}"] = seconds_
        if not warm:
            layers.update(_engine_split(traced["specs"]))
        layers["trace.untraced_wall_s"] = passes[0]["wall_s"]
        layers["trace.wall_s"] = traced["wall_s"]
        passes.append(traced)

    attempted = failed = 0
    problems = []
    for index, outcome in enumerate(passes):
        attempted += outcome["claims"] + len(outcome["digests"])
        failed += len(outcome["flipped"])
        problems += [f"pass {index}: claim {cid} flipped"
                     for cid in outcome["flipped"]]
        for name, digest in outcome["digests"].items():
            if digest != reference[name]:
                failed += 1
                problems.append(f"pass {index}: {name} digest {digest} "
                                f"!= reference {reference[name]}")
    measured = passes[:-1] if trace else passes
    latencies = [value for p in measured for value in p["latencies"]]
    return {
        "setup_s": statistics.median(setup),
        "passes": measured,
        "latencies": latencies,
        "speedup": measured[0]["speedup"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "layers": layers,
        "tracing": tracing if trace else None,
    }


def write_reference() -> None:
    """Record the digests of one cold pass as the reference."""
    root = os.path.dirname(os.path.dirname(REFERENCE))
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-",
                               dir=os.path.join(root, ".perfbench_work"))
    try:
        outcome = claims_pass(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome["flipped"]:
        raise SystemExit(f"claims flipped: {outcome['flipped']}")
    document = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            document = json.load(fh)
    document["claims"] = {"claim_set": CLAIM_SET, **outcome["digests"]}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(document["claims"], indent=2))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit("usage: python3 perfbench/claims.py "
                         "--write-reference")
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    write_reference()
