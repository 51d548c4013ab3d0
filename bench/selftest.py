"""Self-test of the benchmark at tiny sizes (one job of each kind, one pass).

    python3 bench/selftest.py

For every workload and both trace modes it checks that the result line names
exactly the metrics of BENCHMARK.json with their units, that every job check
passed, and that the traced work counts repeat exactly on a second run.  It
checks that the span accounting notices a public call left out of
`tracing.SPANS`, and that the benchmark refuses to run, printing no result,
in a directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: str, workload: str, trace: int) -> tuple[int, str]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _missing_span_failures() -> list[str]:
    """Span-accounting failures of a tiny traced joining-solvers run with
    min_cost_transport left untraced; the glue-check job then spends most of
    cli.main outside library spans."""
    import tracing

    names = tracing.SPANS["transport"]
    saved = list(names)
    names.remove("min_cost_transport")
    workload = "joining-solvers"
    runner = run.Runner(workload, 1, tiny=True)
    try:
        run.traced(runner, argparse.Namespace(workload=workload, seed=1, seconds=0))
    finally:
        runner.close()
        names[:] = saved
    return [f for f in runner.failures if f.startswith("span accounting")]


def main() -> int:
    problems: list[str] = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if declared[0] != run.END_TO_END or declared[1] != run.PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from run.py")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    counts = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            code, out = _run(ROOT, workload, trace)
            tag = f"{workload} trace={trace}"
            if code != 0:
                problems.append(f"{tag}: exit code {code}")
                continue
            res = _result(out)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json")
            if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            if trace:
                counts[workload] = {k: v["value"] for k, v in res["metrics"].items()
                                    if v["unit"] == "count"}
            print(f"ok   {tag}: {res['attempted']} jobs checked", flush=True)

    for workload, first in counts.items():
        code, out = _run(ROOT, workload, 1)
        again = {k: v["value"] for k, v in _result(out)["metrics"].items() if v["unit"] == "count"}
        if again != first:
            problems.append(f"{workload}: traced work counts differ between two runs")

    if _missing_span_failures():
        print("ok   span accounting notices an untraced public call")
    else:
        problems.append("span accounting missed an untraced min_cost_transport")

    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, out = _run(bare, workloads.WORKLOADS[0], 0)
        if code == 0 or out.strip():
            problems.append(f"without sources: exit code {code}, stdout {out.strip()[:80]!r}")
        else:
            print(f"ok   refuses to run without sources (exit code {code})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("passed" if not problems else f"failed: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
