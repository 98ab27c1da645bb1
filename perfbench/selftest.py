"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that a corrupted, crashed or non-reproducible job output is counted
as failed; that the metrics each mode prints are exactly those named in
BENCHMARK.json; and that a traced pass yields a well-formed span tree.
Takes about a minute; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (sibling module, found through the path above)


class SelfTestError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def _flip_last_digit(text: str) -> str:
    index = max(i for i, ch in enumerate(text) if ch.isdigit())
    flipped = "1" if text[index] != "1" else "2"
    return text[:index] + flipped + text[index + 1:]


def _pick(jobs, name):
    return next(job for job in jobs if job.name == name)


def check_failures_are_counted(nc, jobs) -> None:
    original_main = nc.cli.main
    corrupt_calls = set()
    calls = [0]

    def corrupting_main(argv):
        calls[0] += 1
        code = original_main(argv)
        if calls[0] in corrupt_calls:
            out = sys.stdout
            text = _flip_last_digit(out.getvalue())
            out.seek(0)
            out.truncate()
            out.write(text)
        return code

    def crashing_main(argv):
        raise RuntimeError("deliberate crash")

    exact = _pick(jobs, "relations-bernoulli-deg2")
    csv = _pick(jobs, "canary-spectrum")
    nc.cli.main = corrupting_main
    try:
        runner = run.Runner(nc.cli)
        runner.run(exact, 0)
        require(not runner.failures, f"clean exact output failed: {runner.failures}")
        corrupt_calls.add(2)
        runner.run(exact, 1)
        require(len(runner.failures) == 1, "a corrupted exact result was accepted")
        runner.run(csv, 2)
        corrupt_calls.add(4)
        runner.run(csv, 3)
        require(len(runner.failures) == 2, "a CSV payload differing from its first run was accepted")
        nc.cli.main = crashing_main
        runner.run(exact, 4)
        require(len(runner.failures) == 3, "a crashing job was not counted as failed")
        require(runner.attempted == 5, f"{runner.attempted} attempts recorded, expected 5")
    finally:
        nc.cli.main = original_main


def check_span_tree(nc, jobs) -> None:
    import tracer as tracing

    tracer = tracing.Tracer(nc)
    runner = run.Runner(nc.cli, tracer)
    tracer.start_pass(keep_spans=True)
    with tracer.installed():
        runner.run_pass([job for job in jobs if job.name.startswith("canary-")])
    require(nc.cli.main.__name__ == "main" and not hasattr(nc.cli.main, "__wrapped__"),
            "the tracer left cli.main wrapped")
    require(not runner.failures, f"traced jobs failed: {runner.failures}")
    spans = {span[0]: span for span in tracer.stats.spans}
    require(len(spans) == len(tracer.stats.spans), "span ids repeat")
    require(spans, "the traced pass recorded no spans")
    children: dict[int, int] = {}
    for span_id, name, start, end, parent, job, own in spans.values():
        require(0 <= own <= end - start, f"span {span_id} ({name}) has self time {own}")
        if parent is None:
            require(name == "cli.main", f"root span {span_id} is {name}, not cli.main")
            continue
        require(parent in spans, f"span {span_id} ({name}) has missing parent {parent}")
        _, _, p_start, p_end, _, p_job, _ = spans[parent]
        require(p_start <= start and end <= p_end, f"span {span_id} lies outside its parent")
        require(job == p_job, f"span {span_id} and its parent belong to different jobs")
        children[parent] = children.get(parent, 0) + end - start
    for parent, covered in children.items():
        _, _, start, end, _, _, _ = spans[parent]
        require(covered <= end - start, f"children of span {parent} cover more than it")
    names = {span[1] for span in spans.values()}
    for layer in ("cli.", "trace.", "derivations.", "conjugate.", "reduction.", "randmat."):
        require(any(n.startswith(layer) for n in names), f"no {layer[:-1]} span recorded")


def check_metric_names() -> None:
    import tracer as tracing

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    require(per_layer == set(tracing.PER_LAYER) | {"bench.trace_overhead_frac"},
            "BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300, cwd=run.ROOT,
            )
            require(done.returncode == 0, f"{workload} --trace {trace} exited {done.returncode}: {done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0,
                    f"{workload} --trace {trace} failed jobs: {done.stderr}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            named = {m["name"]: m["unit"] for m in expected[trace]}
            require(printed == named,
                    f"{workload} --trace {trace} printed {sorted(set(printed) ^ set(named))} "
                    "not matching BENCHMARK.json")


def main() -> int:
    run.pin_threads()
    nc, jobs, _ = run.setup("exact-relations", 0)
    checks = [
        ("failures are counted", lambda: check_failures_are_counted(nc, jobs)),
        ("span tree is well formed", lambda: check_span_tree(nc, jobs)),
        ("printed metrics match BENCHMARK.json", check_metric_names),
    ]
    for title, check in checks:
        try:
            check()
        except SelfTestError as exc:
            print(f"FAIL {title}: {exc}")
            return 1
        print(f"ok   {title}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
