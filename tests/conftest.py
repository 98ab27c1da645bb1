import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ncfree
import ncfree.cli
from ncfree import DistributionSpec, NcPoly, TraceFunctional
from ncfree.scalars import Scalar
from ncfree.trace import ExplicitMoments


@pytest.fixture(autouse=True)
def cold_trace_cache():
    """Start each test with no trace functional kept by the CLI, as a new
    process does, so no test reads what another one computed or wrote."""
    ncfree.cli._traces.clear()


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def semi1():
    return DistributionSpec.standard_semicircular(1)


@pytest.fixture
def semi2():
    return DistributionSpec.standard_semicircular(2)


@pytest.fixture
def trace2(semi2):
    return TraceFunctional(semi2)


def bernoulli_spec(max_degree: int = 4) -> DistributionSpec:
    """Single symmetric Bernoulli variable: m_k = 0 odd, 1 even."""
    table = {(1,) * k: Scalar(0 if k % 2 else 1) for k in range(max_degree + 1)}
    return DistributionSpec(1, ExplicitMoments(table, max_degree))


def write_spec(path, spec: DistributionSpec, **fields) -> str:
    """Write a spec file whose trace section is `spec`; return its path."""
    path.write_text(json.dumps({"trace": spec.to_dict(), **fields}))
    return str(path)


def gens(n: int) -> list[NcPoly]:
    return [NcPoly.gen(n, i) for i in range(1, n + 1)]


def run_python(script, *argv):
    """Run `script` in a new interpreter that imports this checkout's ncfree."""
    src = str(Path(ncfree.__file__).resolve().parents[1])
    path_entries = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_entries)}
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
