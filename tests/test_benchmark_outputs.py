"""Every exact benchmark job still prints the result stored for it.

perfbench/workloads.py builds the benchmark's jobs and perfbench/expected.json
holds the exit code and `result` block of each exact one; both are read here,
never written.  Running the exact jobs of every workload through
`ncfree.cli.main` in process makes an output change fail the suite, not only
a benchmark run.  Every job runs twice: first on the cold moment memos a new
process starts with, then on the memos the first pass left, which a process
shares between all calls on one free distribution.
"""

import importlib
import json
from pathlib import Path

import pytest

from ncfree.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("seed", [1, 7])
def test_exact_jobs_print_their_stored_results(monkeypatch, capsys, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    expected = workloads.load_expected()
    jobs = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.build_jobs(workload, seed):
            if job.name in expected:
                jobs[job.name] = job
    assert set(jobs) == set(expected)
    for run in ("cold", "warm"):
        for name, job in sorted(jobs.items()):
            code = main(list(job.argv))
            stdout = capsys.readouterr().out
            assert code == expected[name]["exit"], (run, name)
            assert json.loads(stdout)["result"] == expected[name]["result"], (run, name)
