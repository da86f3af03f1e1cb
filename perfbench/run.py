"""Benchmark of the ``revcomp`` command line, run in process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload single-shot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # one checked pass of every workload

Each job calls ``revcomp.cli.main(argv)`` with JSON output captured in
memory.  The first pass over the job list is untimed and its outputs are
checked by ``checks.py``; timed passes follow until ``--seconds`` of pass
time have elapsed, whole passes only, and each of their outputs must equal
the checked one.  The last line of standard output is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics from
``spans.py`` (``--trace 1``).  The program is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 5


def _import_program() -> None:
    if not (SRC / "revcomp" / "__init__.py").is_file():
        print(f"error: no revcomp sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


_import_program()

import numpy as np  # noqa: E402
from revcomp import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def run_job(job, call=None) -> tuple[int, str]:
    """Invoke the CLI for one job; returns the exit code and captured stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = call("cli.main", cli.main, list(job.argv)) if call else cli.main(list(job.argv))
    return code, buffer.getvalue()


def check_job(job, code: int, text: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    return checks.CHECKS[job.kind](job.meta, out)


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median time from spawning a fresh interpreter until it has imported
    revcomp and written the workload's inputs (``--setup-only``)."""
    samples = []
    for i in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed),
             "--workdir", str(workdir / f"setup-{i}")],
            capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


def host_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')}")


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    jobs = workloads.prepare(workload, seed, workdir / "inputs")
    setup_s = setup_seconds(workload, seed, workdir)

    # Untimed first pass: its outputs are checked and become the references.
    references, problems = [], {}
    for job in jobs:
        code, text = run_job(job)
        references.append(text)
        found = check_job(job, code, text)
        if found:
            problems[job.name] = found
            print(f"# FAIL {job.name}: {'; '.join(found)}", file=sys.stderr)
    quality = sum(checks.lower_bound_gamma(job.kind, json.loads(text))
                  for job, text in zip(jobs, references) if job.name not in problems)
    # Peak over one pass, as a user running each job once would see it; later
    # passes only add allocator fragmentation, which grows with their number.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = Tracer() if trace else None
    durations, pass_time, passes, failed = [], 0.0, 0, 0
    with tracer or contextlib.nullcontext():
        call = tracer.call if tracer else None
        while pass_time < seconds:
            outputs = []
            start = time.perf_counter()
            for job in jobs:
                t0 = time.perf_counter()
                outputs.append(run_job(job, call))
                durations.append(time.perf_counter() - t0)
            pass_time += time.perf_counter() - start
            passes += 1
            failed += sum(1 for job, ref, (code, text) in zip(jobs, references, outputs)
                          if code != 0 or text != ref or job.name in problems)
    attempted = passes * len(jobs)
    print(f"# {workload} seed={seed}: {passes} passes of {len(jobs)} jobs in "
          f"{pass_time:.2f} s, jobs_per_s={attempted / pass_time:.4f}")

    if trace:
        metrics = tracer.layer_metrics(passes)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (attempted / pass_time, "1/s"),
            "job_p50_ms": (statistics.median(durations) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "lower_bound_gamma_sum": (quality, "1"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke(names) -> int:
    """One checked pass of each workload; returns the number of failed jobs."""
    bad = 0
    for workload in names:
        workdir = WORK / f"smoke-{workload}-{os.getpid()}"
        try:
            for job in workloads.prepare(workload, 0, workdir):
                found = check_job(job, *run_job(job))
                bad += bool(found)
                print(f"{'FAIL' if found else 'ok  '} {workload} {job.name} {'; '.join(found)}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run one checked pass of each workload and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        workloads.prepare(args.workload, args.seed, args.workdir)
        print(time.perf_counter())
        return 0
    if args.smoke:
        return 1 if smoke([args.workload] if args.workload else workloads.WORKLOADS) else 0
    if args.workload is None:
        parser.error("--workload is required")

    print(host_line())
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
