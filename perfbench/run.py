"""Run one workload of the ncfree benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-conjugate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ncfree is imported from its ``src``.  Each
invocation runs one workload in this fresh process, calling
``ncfree.cli.main(argv)`` once per job and checking every job's output.
Workloads and checks live in ``workloads.py``; ``BENCHMARK.json`` at the
root names every metric.  To run all three workloads:

    for w in exact-conjugate exact-relations matrix-lab; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Times are in reference seconds.  On a shared host, other tenants slow every
computation in this process by a common factor that drifts over seconds to
minutes: on a 2-core VM, 30-second medians of one fixed loop varied by 25%
and whole benchmark runs by 40%.  So a fixed pure-Python computation (see
``reference_s``) is timed before and after every job, and each job's wall
time is multiplied by REFERENCE_S over the mean of those two timings.  A
time then reads as the seconds the job takes when the reference takes
REFERENCE_S, and runs on one host agree within a few percent.

With ``--trace 0`` the run reports the end-to-end metrics:

* setup_s -- importing ncfree and building the job list, median over this
  run and SETUP_REPEATS fresh interpreters;
* jobs_per_s -- jobs attempted / time spent inside ``cli.main`` (the
  benchmark's own output checks are not counted);
* job_s.p50, job_s.p90 -- median and 90th percentile of per-job time; on
  an unloaded 2-core host a run holds 110 to 170 jobs, so ten or more lie
  beyond the 90th percentile (``attempted`` gives the count);
* peak_rss_mb -- ``ru_maxrss`` of this process.

A job fails on an unexpected exit code, an exception, an output that fails
its check, or a payload that differs from the same job's first execution in
the run.  ``failed`` / ``attempted`` in the result line is the failed share.

With ``--trace 1`` the run alternates an untraced and a traced pass over one
cycle of jobs until the time is up and reports the per-layer metrics of
``tracer.PER_LAYER`` plus ``bench.trace_overhead_frac``.  Spans of the first
traced pass go to ``perfbench/out/<workload>.spans.jsonl`` in raw
nanoseconds.

Lines before the last one on stdout describe the environment and the host's
speed during the run; the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: fresh interpreters that repeat the set-up, besides this run's own
SETUP_REPEATS = 6
#: reference_s() on an unloaded 2-core x86 VM, Python 3.11
REFERENCE_S = 0.005
SETUP_TIMEOUT_S = 120
TAIL_PERCENTILE = 90
WORKLOAD_NAMES = ("exact-conjugate", "exact-relations", "matrix-lab")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable core count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def reference_s() -> float:
    """Wall time of a fixed computation: the sum of 1/i, i < 1500, in exact rationals."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Scale a wall time by the host's speed, from reference timings around it."""
    return seconds * 2 * REFERENCE_S / (before + after)


def setup(workload: str, seed: int):
    """Import ncfree from this checkout and build the job cycle.

    Returns (the ncfree package, the jobs, seconds taken at reference speed).
    """
    before = reference_s()
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import ncfree
    import ncfree.cli

    if not Path(ncfree.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"ncfree was imported from {ncfree.__file__}, not this checkout")
    import workloads

    jobs = workloads.build_jobs(workload, seed)
    seconds = time.perf_counter() - start
    return ncfree, jobs, at_reference_speed(seconds, before, reference_s())


def setup_in_fresh_process(workload: str, seed: int) -> float:
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "print(run.setup(sys.argv[2], int(sys.argv[3]))[2])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


class Runner:
    """Runs jobs one at a time and keeps the tally of attempts and failures."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self._first_payload: dict[str, str] = {}

    def run(self, job, index: int) -> float:
        """Run one job, check its output and return its wall time."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash fails the job, not the run
            code = None
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        self.attempted += 1
        payload = out.getvalue()
        if self.tracer is not None:
            self.tracer.stats.sizes["cli.emit_bytes"] += len(payload.encode())
        if error is None:
            error = self.check(job, code, payload)
        if error is not None:
            self.failures.append(f"{job.name} (job {index}): {error}")
        return wall

    def check(self, job, code: int, payload: str) -> str | None:
        try:
            error = job.check(code, payload)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            return error
        # CSV payloads must be byte-identical across reruns; structured
        # documents carry a timestamp, so only their result block is compared
        body = payload if job.csv else json.dumps(json.loads(payload)["result"], sort_keys=True)
        digest = hashlib.sha256(body.encode()).hexdigest()
        first = self._first_payload.setdefault(job.name, digest)
        if digest != first:
            return "output differs from the first execution of this job"
        return None

    def run_pass(self, jobs) -> float:
        """Run every job once; return the summed job time (raw wall seconds)."""
        total = 0.0
        for index, job in enumerate(jobs):
            if self.tracer is not None:
                self.tracer.job = f"{index}:{job.name}"
            total += self.run(job, index)
        return total


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure(runner: Runner, jobs, seconds: float, references: list[float]) -> dict[str, float]:
    """End-to-end job metrics of a loop over the job cycle lasting `seconds`."""
    times = []
    references.append(reference_s())
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        wall = runner.run(jobs[len(times) % len(jobs)], len(times))
        references.append(reference_s())
        times.append(at_reference_speed(wall, references[-2], references[-1]))
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": statistics.median(times),
        f"job_s.p{TAIL_PERCENTILE}": percentile(times, TAIL_PERCENTILE),
    }


def measure_layers(nc, jobs, seconds: float, references: list[float], spans_path: Path):
    """Per-layer metrics from traced passes, each paired with an untraced one.

    Returns the runners of both kinds of pass and the metrics.
    """
    import tracer as tracing

    tracer = tracing.Tracer(nc)
    plain = Runner(nc.cli)
    traced = Runner(nc.cli, tracer)
    passes, overheads = [], []
    references.append(reference_s())
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        untraced_s = plain.run_pass(jobs)
        references.append(reference_s())
        untraced_s = at_reference_speed(untraced_s, references[-2], references[-1])
        tracer.start_pass(keep_spans=not passes)
        with tracer.installed():
            traced_s = traced.run_pass(jobs)
        references.append(reference_s())
        tracer.stats.speed = 2 * REFERENCE_S / (references[-2] + references[-1])
        passes.append(tracer.stats)
        overheads.append(traced_s * tracer.stats.speed / untraced_s - 1)
    metrics = tracing.layer_metrics(passes)
    metrics["bench.trace_overhead_frac"] = statistics.median(overheads)
    write_spans(passes[0].spans, spans_path)
    return [plain, traced], metrics


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    keys = ("id", "name", "start_ns", "end_ns", "parent", "job", "self_ns")
    with path.open("w") as fh:
        for span in sorted(spans):
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    nproc = pin_threads()
    try:
        nc, jobs, own_setup_s = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import ncfree from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(nproc)}))

    references: list[float] = []
    if args.trace:
        spans_path = OUT_DIR / f"{args.workload}.spans.jsonl"
        runners, metrics = measure_layers(nc, jobs, args.seconds, references, spans_path)
    else:
        setups = [own_setup_s]
        setups += [setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        runners = [Runner(nc.cli)]
        metrics = measure(runners[0], jobs, args.seconds, references)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = [failure for runner in runners for failure in runner.failures]
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    host = {"reference_s": REFERENCE_S, "reference_s_median": statistics.median(references)}
    print(json.dumps({"host_speed": host}))
    unit = units()
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(runner.attempted for runner in runners),
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
