"""shiftlab benchmark: four checked workloads over the CLI and the library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout's root; shiftlab is imported from its src/ directory.
Each workload is a seeded list of jobs (one `shiftlab.cli.main([...])` call
or one public library call each) run in this one process, one after another:
a closed loop with one client.  `--trace 0` repeats the whole list for about
`--seconds` (whole passes, at least MIN_PASSES of them and MIN_JOBS jobs),
then prints the end-to-end metrics, with every time taken at reference
speed (see `reference_s`).  `--trace 1` alternates an untraced and
a traced pass over the list for about `--seconds` and prints the per-layer
metrics (work counts from the first traced pass, times per traced pass).  Every job's
result is checked; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_JOBS = 100          # at least 10 samples beyond p90
MIN_PASSES = 5          # jobs_per_s is the median of the passes' rates
SETUP_REPEATS = 7       # set-up phases timed in fresh processes per run
DEFAULT_SEED = 1

# End-to-end times are taken at reference speed.  On the 2-vCPU machine the
# benchmark was defined on, the speed of the same Python code changes by up
# to 1.6x within a second, and differently on each vCPU.  So each stretch of
# about SEGMENT_S of jobs is bracketed by two runs of a fixed pure-Python
# reference loop in the same process, and the jobs' wall times are scaled by
# REF_NOMINAL_S / (the mean of the two).  REF_NOMINAL_S is about the loop's
# time there at the faster speed.  A change to shiftlab leaves the loop alone.
SEGMENT_S = 0.025
REF_SITES = 3000
REF_NOMINAL_S = 0.001

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "configs.value_calls": "count", "configs.value_s": "s", "configs.ball_weights_s": "s",
    "configs.self_s": "s",
    "groups.set_at_calls": "count", "groups.window_sites": "count", "groups.self_s": "s",
    "metrics.upper_density_s": "s", "metrics.dbar_s": "s", "metrics.besicovitch_s": "s",
    "metrics.dprime_s": "s", "metrics.exact_mismatch_s": "s", "metrics.ball_terms": "count",
    "metrics.sites_per_s": "1/s", "metrics.self_s": "s",
    "measures.empirical_s": "s", "measures.empirical_reads": "count",
    "measures.prokhorov_s": "s", "measures.prokhorov_calls": "count",
    "measures.support_pairs": "count", "measures.self_s": "s",
    "transport.simplex_s": "s", "transport.simplex_calls": "count",
    "transport.simplex_cells": "count", "transport.certificate_s": "s",
    "transport.chain_s": "s", "transport.orbit_s": "s", "transport.periodic_oracle_s": "s",
    "transport.glue_s": "s", "transport.oracle_s": "s", "transport.oracle_calls": "count",
    "transport.self_s": "s",
    "examples.construct_s": "s", "examples.block_entropy_s": "s",
    "examples.tiling_check_s": "s", "examples.self_s": "s",
    "cli.errors": "count", "configs.errors": "count", "groups.errors": "count",
    "metrics.errors": "count", "measures.errors": "count", "transport.errors": "count",
    "examples.errors": "count",
    "trace.overhead_frac": "ratio", "trace.wrapper_s": "s",
}


def _note(text: str) -> None:
    print(f"# {text}", flush=True)


def _reference_work() -> Fraction:
    """Tuples, a dict and Fractions: the kinds of work shiftlab does per site."""
    counts: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    for i in range(REF_SITES):
        g = (i % 37, i // 37)
        counts[g] = counts.get(g, 0) + i * i % 7
        if i % 50 == 0:
            acc += Fraction(counts[g], 97)
    return acc


def reference_s(repeats: int = 1) -> float:
    """Median wall time of `repeats` runs of the reference loop."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _reference_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _load_package():
    """Import shiftlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "shiftlab", "__init__.py")):
        raise SystemExit(f"error: no shiftlab sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import shiftlab
    import shiftlab.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(shiftlab.__file__)) != os.path.join(SRC, "shiftlab"):
        raise SystemExit(f"error: shiftlab imported from {shiftlab.__file__}, not {SRC}")
    return shiftlab


class Runner:
    """One workload's job list, built from the seed, and its checked execution."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        import workloads as wl

        self.pkg = _load_package()
        self.out_dir = os.path.join(HERE, "out", f"{workload}-{os.getpid()}")
        os.makedirs(self.out_dir, exist_ok=True)
        ctx = wl.Context(self.pkg, self.out_dir, seed, workload)
        warmup, jobs = wl.build(workload, ctx)
        self.jobs = _one_per_kind(jobs) if tiny else jobs
        self.failures: list[str] = []
        self.attempted = 0
        self.run_checked(warmup)

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _fail(self, job, reason: str) -> None:
        self.failures.append(f"{job.kind} [{job.label}]: {reason}")

    def finish(self, job, raw, error) -> object:
        """Check one job's result (untimed); returns the collected result."""
        self.attempted += 1
        if error is not None:
            self._fail(job, error)
            return None
        try:
            res = job.collect(raw)
            reason = job.check(res)
        except Exception:  # a malformed result counts as a failed job
            self._fail(job, traceback.format_exc(limit=2).strip().splitlines()[-1])
            return None
        if reason is not None:
            self._fail(job, reason)
        return res

    @staticmethod
    def timed(job) -> tuple[object, str | None, float]:
        t0 = perf_counter()
        try:
            raw = job.run()
            error = None
        except Exception:  # the loop keeps going; the job counts as failed
            raw, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        return raw, error, perf_counter() - t0

    def run_checked(self, job) -> float:
        raw, error, dt = self.timed(job)
        self.finish(job, raw, error)
        return dt

    def run_pass(self) -> tuple[list[float], list[float]]:
        """Run every job once, in segments of about SEGMENT_S bracketed by the
        reference loop; check them after their segment.  Returns the jobs'
        wall times and the same times at reference speed."""
        raw: list[float] = []
        scaled: list[float] = []
        segment: list[tuple] = []
        ref_before = reference_s()
        for i, job in enumerate(self.jobs):
            segment.append((job, *self.timed(job)))
            if sum(s[3] for s in segment) < SEGMENT_S and i + 1 < len(self.jobs):
                continue
            scale = REF_NOMINAL_S / ((ref_before + reference_s()) / 2)
            for seg_job, result, error, dt in segment:
                self.finish(seg_job, result, error)
                raw.append(dt)
                scaled.append(dt * scale)
            segment = []
            ref_before = reference_s()
        return raw, scaled


def _one_per_kind(jobs):
    seen, out = set(), []
    for j in jobs:
        if j.kind not in seen:
            seen.add(j.kind)
            out.append(j)
    return out


# --- set-up time -----------------------------------------------------------


def setup_seconds(args) -> list[float]:
    """Time fresh processes from spawn until their set-up phase is done, at
    reference speed: each process runs the reference loop before and after
    its set-up and reports the loop's time and its own time spent in it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        parts = line.split()
        if code != 0 or len(parts) != 3 or parts[0] != "ready":
            raise SystemExit(f"error: set-up process failed (exit {code})")
        ref_s, spent_s = map(float, parts[1:])
        times.append((dt - spent_s) * REF_NOMINAL_S / ref_s)
    return times


# --- the two kinds of run ----------------------------------------------------


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def _done(wall0: float, rounds: int, seconds: float) -> bool:
    """True when another round would end more than half a round past `seconds`,
    so a run lasts about `seconds` whatever the length of one pass."""
    elapsed = perf_counter() - wall0
    return elapsed + elapsed / rounds / 2 >= seconds


def end_to_end(runner: Runner, args) -> tuple[dict, dict]:
    setups = setup_seconds(args)
    lat: list[float] = []
    rates: list[float] = []
    wall_rates: list[float] = []
    wall0 = perf_counter()
    while True:
        raw, times = runner.run_pass()
        lat += times
        rates.append(len(times) / sum(times))
        wall_rates.append(len(raw) / sum(raw))
        if args.tiny or (_done(wall0, len(rates), args.seconds)
                         and len(rates) >= MIN_PASSES and len(lat) >= MIN_JOBS):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ordered = sorted(lat)
    p90_rank = math.ceil(0.9 * len(ordered))
    metrics = {
        "jobs_per_s": statistics.median(rates),
        "job_p50_ms": statistics.median(ordered) * 1e3,
        "job_p90_ms": _percentile(ordered, 0.9) * 1e3,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }
    info = {
        "passes": len(rates),
        "jobs_timed": len(lat),
        "samples_beyond_p90": len(ordered) - p90_rank,
        "pass_rates": [round(r, 4) for r in rates],
        "pass_rates_wall": [round(r, 4) for r in wall_rates],
        "setup_samples": [round(s, 4) for s in setups],
        "loop_wall_s": round(perf_counter() - wall0, 3),
    }
    return metrics, info


def traced(runner: Runner, args) -> tuple[dict, dict]:
    from tracing import CLI_SELF_MAX, COVER_ABS_TOL_S, COVER_PER_SPAN_S, COVER_REL_TOL, Tracer

    tracer = Tracer(runner.pkg)
    untraced_s = traced_s = 0.0
    per_pass: list[dict] = []
    uncovered: list[str] = []
    cli_share: dict[str, float] = {}    # last traced pass: cli.main self / its duration
    gap_share: dict[str, float] = {}    # largest uncovered gap / allowed gap, per kind
    wall0 = perf_counter()
    while True:
        untraced_s += sum(runner.run_pass()[0])
        tracer.reset()
        pass_no = len(per_pass)
        done = []
        tracer.install()
        try:
            for i, job in enumerate(runner.jobs):
                tracer.begin_job(f"{pass_no}:{i}")
                cli0 = tracer.raw_self_s["cli.main"]
                raw, error, dt = runner.timed(job)
                covered, top_spans = tracer.end_job()
                cli_self = tracer.raw_self_s["cli.main"] - cli0
                done.append((job, raw, error, dt, covered, top_spans, cli_self))
        finally:
            tracer.uninstall()
        report_bytes = 0
        by_kind: dict[str, list[float]] = {}
        span_extra, span_in = tracer.costs("span")
        for job, raw, error, dt, covered, top_spans, cli_self in done:
            res = runner.finish(job, raw, error)
            if job.out_path is not None and res is not None:
                report_bytes += len(res[1].encode("utf-8"))
            if covered > dt + COVER_ABS_TOL_S:
                uncovered.append(f"{job.label}: spans {covered:.6f}s exceed wall {dt:.6f}s")
            sums = by_kind.setdefault(job.kind, [0.0, 0.0, 0.0, 0])
            sums[0] += dt
            sums[1] += covered
            sums[2] += cli_self
            sums[3] += top_spans
        for kind, (wall_s, cover_s, cli_s, top_spans) in by_kind.items():
            allowed = (COVER_REL_TOL * wall_s + COVER_ABS_TOL_S
                       + top_spans * (span_extra - span_in + COVER_PER_SPAN_S))
            gap_share[kind] = max(gap_share.get(kind, 0.0),
                                  round((wall_s - cover_s) / allowed, 4))
            if wall_s - cover_s > allowed:
                uncovered.append(f"{kind} jobs: wall {wall_s:.6f}s, spans {cover_s:.6f}s"
                                 f" ({top_spans} top-level spans), allowed gap {allowed:.6f}s")
            if cli_s > CLI_SELF_MAX * cover_s + COVER_ABS_TOL_S:
                uncovered.append(f"{kind} jobs: cli.main self {cli_s:.6f}s of {cover_s:.6f}s")
            if cli_s > 0:
                cli_share[kind] = round(cli_s / cover_s, 4)
        traced_s += sum(d[3] for d in done)
        layer = tracer.layer_metrics()
        layer["cli.report_bytes"] = report_bytes
        per_pass.append(layer)
        if _done(wall0, len(per_pass), args.seconds):
            break
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            metrics[name] = traced_s / untraced_s - 1
        elif PER_LAYER[name] in ("s", "1/s"):
            metrics[name] = statistics.fmean(p[name] for p in per_pass)
        else:
            metrics[name] = per_pass[0][name]
    for u in uncovered[:5]:
        _note(f"span accounting: {u}")
    runner.failures += [f"span accounting: {u}" for u in uncovered]
    spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(spans_path)
    info = {
        "traced_passes": len(per_pass),
        "jobs_traced": len(per_pass) * len(runner.jobs),
        "spans_written": os.path.relpath(spans_path, ROOT),
        "span_cover_tolerance": (f"per job kind, {COVER_REL_TOL:.0%} of wall time"
                                 f" + {COVER_ABS_TOL_S * 1e3:g} ms + per top-level span the"
                                 f" calibrated tracer cost outside it"
                                 f" + {COVER_PER_SPAN_S * 1e6:g} us"),
        "span_cover_gap_share": gap_share,
        "cli_self_max": (f"per CLI job kind, {CLI_SELF_MAX:.0%} of cli.main time"
                         f" + {COVER_ABS_TOL_S * 1e3:g} ms"),
        "cli_self_share": cli_share,
        "wrapper_cost_us": {kind: [round(c * 1e6, 4) for c in tracer.costs(kind)]
                            for kind in ("span", "value")},
    }
    return metrics, info


# --- provenance --------------------------------------------------------------


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "shiftlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one job of each kind, one pass (used by selftest.py)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # one worker: the thread pool is not a variable this benchmark measures
    lab_threads = os.environ.pop("LAB_THREADS", None)
    if args.setup_only:
        t0 = perf_counter()
        ref0 = reference_s(3)
        spent = perf_counter() - t0
    runner = Runner(args.workload, args.seed, args.tiny)
    try:
        if args.setup_only:
            t0 = perf_counter()
            ref1 = reference_s(3)
            spent += perf_counter() - t0
            print(f"ready {(ref0 + ref1) / 2!r} {spent!r}", flush=True)
            return 0 if not runner.failures else 1
        metrics, info = (traced if args.trace else end_to_end)(runner, args)
    finally:
        runner.close()

    units = PER_LAYER if args.trace else END_TO_END
    failed = len(runner.failures)
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs_per_pass": len(runner.jobs), "attempted": runner.attempted, "failed": failed,
        "failed_frac": failed / runner.attempted,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "LAB_THREADS": lab_threads,
    })
    for f in runner.failures[:10]:
        _note(f"FAILED {f}")
    _note("info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        _note(f"{name:28s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
