"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload claims-cold --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``claims-cold``, ``claims-warm``, ``service-jobs`` and
``trace-ingest`` (see perfbench/README.md).  With ``--trace 0`` the
last line of standard output is one JSON object with every end-to-end
metric; with ``--trace 1`` it carries every per-layer metric from a
traced pass instead, and the spans go to
``.perfbench_work/spans-<workload>.jsonl``.  The exit code is 0 only
when every output check passed; a checkout without ``src/repro`` exits
2 before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("claims-cold", "claims-warm", "service-jobs", "trace-ingest")

#: End-to-end metrics every workload reports, in output order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_records_per_s", "records/s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_p90_s", "s"),
    ("ipcp_speedup_geomean", "ratio"),
    ("success_rate", "ratio"),
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time: passes repeat until their "
                             "wall time, set-up excluded, adds up to it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

    from common import host_stamp, metric, summarize
    from layers import PER_LAYER

    host = host_stamp()
    print("host: " + json.dumps(host), flush=True)
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        if args.workload.startswith("claims"):
            import claims as module
        elif args.workload == "service-jobs":
            import service as module
        else:
            import ingest as module
        outcome = module.run(ROOT, workdir, args.workload, args.seed,
                             args.seconds, bool(args.trace))
        if outcome["tracing"] is not None:
            spans = os.path.join(scratch, f"spans-{args.workload}.jsonl")
            outcome["tracing"].recorder.dump(spans)
            print(f"spans: {os.path.relpath(spans, ROOT)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}", flush=True)
    attempted, failed = outcome["attempted"], outcome["failed"]
    if args.trace:
        layers = dict(outcome["layers"], **{"host.calib_s": host["calib_s"]})
        untraced = layers["trace.untraced_wall_s"]
        layers["trace.overhead_share"] = (
            layers["trace.wall_s"] / untraced - 1.0 if untraced else 0.0)
        metrics = {name: metric(layers[name], unit)
                   for name, unit in PER_LAYER}
    else:
        values = summarize(outcome)
        values.update({
            "setup_s": metric(outcome["setup_s"], "s"),
            "peak_rss_mb": metric(outcome["peak_rss_mb"], "MiB"),
            "success_rate": metric(1.0 - failed / attempted, "ratio"),
        })
        metrics = {name: values[name] for name, _ in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{name:>22} = {metrics[name]['value']:.6g} {unit}")
    correct = failed == 0 and not outcome["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
