"""Self-test of the benchmark: every workload, both run modes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all four) it runs ``run.py`` once with
``--trace 0`` and once with ``--trace 1`` at ``--seconds 1`` and checks
that the last line names every metric of BENCHMARK.json with its unit,
that ``success_rate`` is 1 (no failed or refused operation) and that
the exit code is 0.  It also checks that a directory holding only
BENCHMARK.json and perfbench/ makes the benchmark exit non-zero without
a result line.  Takes about five minutes on a 2-CPU host.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check(workload: str, trace: int, spec: dict) -> list[str]:
    done = run(workload, trace)
    lines = done.stdout.strip().splitlines()
    where = f"{workload} --trace {trace}"
    if done.returncode != 0 or not lines:
        return [f"{where}: exit {done.returncode}\n{done.stdout}"
                f"\n{done.stderr}"]
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        errors.append(f"{where}: metric names differ from BENCHMARK.json")
    for entry in wanted:
        value = got.get(entry["name"], {})
        if value.get("unit") != entry["unit"]:
            errors.append(f"{where}: {entry['name']} unit "
                          f"{value.get('unit')!r} != {entry['unit']!r}")
        if not trace and not value.get("value"):
            errors.append(f"{where}: {entry['name']} is 0 or missing")
    if not trace and got["success_rate"]["value"] != 1.0:
        errors.append(f"{where}: success_rate "
                      f"{got['success_rate']['value']}")
    print(f"{where}: {'ok' if not errors else 'FAILED'}", flush=True)
    return errors


def check_without_sources() -> list[str]:
    """A directory with only BENCHMARK.json and perfbench/ must fail."""
    with tempfile.TemporaryDirectory(dir=ROOT,
                                     prefix=".perfbench_bare-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("claims-cold", 0, cwd=bare)
    if done.returncode == 0 or "correct" in done.stdout:
        return ["bare directory: expected a non-zero exit and no result"]
    print("bare directory: ok", flush=True)
    return []


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    errors = check_without_sources()
    for workload in workloads:
        for trace in (0, 1):
            errors += check(workload, trace, spec)
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
