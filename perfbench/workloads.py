"""The benchmark's workloads: job cycles built from a seed, and output checks.

A job is one in-process call of ``ncfree.cli.main(argv)``.  A workload is a
cycle of jobs, shuffled by the workload seed and repeated until the run ends.
The seed also becomes every job's ``--seed``, which drives the duality word
sweep, the margins polynomials and the matrix samples.

Each cycle holds the workload's main jobs, which make one group of layers
dominate, plus one small canary job for each CLI command the main jobs do
not use.  The canaries keep every layer's time nonzero on every workload
while their share of the run stays small.

Main jobs repeat in the cycle with weights chosen so that the median and the
90th percentile of per-job time each fall inside one job kind, not on the
border between two kinds of very different cost.

Why each workload (sizes measured on a 2-core x86 box, Python 3.11):

* exact-conjugate -- conjugate-relation sweeps, a failing candidate, the
  duality sweep and a combined report.  Time goes to Scalar add/mul on small
  rationals, NcPoly construction and products, d and trace_tensor over a
  warm moment memo.  Elimination runs only inside report (N=31).
* exact-relations -- Gram-kernel certificates: semicircular, free-Poisson and
  the Bernoulli table.  Time goes to the full-pivot nullspace, gram_matrix,
  cold moment recursion on words up to length 2d and free-cumulant
  inversion.  Scalars see growing denominators and division, unlike
  exact-conjugate.
* matrix-lab -- pooled spectra (GUE anticommutator as CSV, Rademacher
  atoms) and empirical margins.  Time goes to sampling, dense
  NcPoly.evaluate, eigvalsh, dense singular values and CSV emission; the
  pooled spectrum keeps 100 sample tuples resident, which sets peak RSS.
  The margins ensemble is 200x200, where ncfree takes the dense SVD path:
  ARPACK's run time on larger matrices depends so much on the seeded
  polynomial that runs on different seeds would not be comparable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SPEC_DIR = BENCH_DIR / "specs"
EXPECTED_FILE = BENCH_DIR / "expected.json"

#: tolerances of the numerical acceptance criteria
MAX_WINDOW_MASS = 0.02
ATOM_MASS_TOLERANCE = 0.05
MARGIN_SLACK = 0.05
#: window width constant of the atomless check: width = c / sqrt(count)
WINDOW_SCALE = 4.0
#: a GUE(1) eigenvalue beyond this is out of the semicircle support by far
GUE_EDGE = 3.0

XI_2 = "1 * Z 1;1 * Z 2"
XI_2_WRONG = "2 * Z 1;1 * Z 2"
XI_3 = "1 * Z 1;2 * Z 2;1/2 * Z 3"
ANTICOMMUTATOR = "1 * Z 1 2 + 1 * Z 2 1"

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Job:
    """One CLI call and the check its exit code and stdout must pass."""

    name: str
    argv: tuple[str, ...]
    check: Check
    csv: bool = False


def spec_path(name: str) -> str:
    return str(SPEC_DIR / f"{name}.json")


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------


def exact_check(expected: dict) -> Check:
    """Exit code and the whole result block must equal the stored ones."""

    def check(code: int, stdout: str) -> str | None:
        if code != expected["exit"]:
            return f"exit {code}, expected {expected['exit']}"
        result = json.loads(stdout)["result"]
        if result != expected["result"]:
            return "result block differs from the stored one"
        return None

    return check


def _eigenvalues(stdout: str) -> np.ndarray:
    lines = stdout.splitlines()
    if not lines or lines[0] != "eigenvalue":
        raise ValueError("CSV payload lacks the eigenvalue header")
    return np.array([float(line) for line in lines[1:]])


def atomless_check(count: int) -> Check:
    """Pooled CSV spectrum: `count` eigenvalues, no window of width
    WINDOW_SCALE/sqrt(count) holding MAX_WINDOW_MASS of them or more."""

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        ev = np.sort(_eigenvalues(stdout))
        if len(ev) != count:
            return f"{len(ev)} eigenvalues, expected {count}"
        width = WINDOW_SCALE / np.sqrt(len(ev))
        inside = np.searchsorted(ev, ev + width, side="right") - np.arange(len(ev))
        mass = inside.max() / len(ev)
        if not mass < MAX_WINDOW_MASS:
            return f"max window mass {mass} >= {MAX_WINDOW_MASS}"
        return None

    return check


def bounded_spectrum_check(count: int) -> Check:
    """Pooled CSV spectrum of a GUE(1) matrix: `count` eigenvalues, ascending,
    all inside [-GUE_EDGE, GUE_EDGE]."""

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        ev = _eigenvalues(stdout)
        if len(ev) != count:
            return f"{len(ev)} eigenvalues, expected {count}"
        if np.any(np.diff(ev) < 0):
            return "eigenvalues are not sorted"
        if np.max(np.abs(ev)) >= GUE_EDGE:
            return f"eigenvalue {np.max(np.abs(ev))} outside +-{GUE_EDGE}"
        return None

    return check


def rademacher_check(code: int, stdout: str) -> str | None:
    """Exactly two atoms, at -1 and +1, each of mass 1/2 up to the tolerance."""
    if code != 0:
        return f"exit {code}, expected 0"
    atoms = json.loads(stdout)["result"]["atom_estimate"]
    found = {round(atom["location"]): atom["mass"] for atom in atoms}
    if len(atoms) != 2 or set(found) != {-1, 1}:
        return f"atoms at {sorted(atom['location'] for atom in atoms)}"
    for location, mass in found.items():
        if not abs(mass - 0.5) < ATOM_MASS_TOLERANCE:
            return f"atom at {location} has mass {mass}"
    return None


def margins_check(trials: int) -> Check:
    """Every trial reported and the worst margin at least -MARGIN_SLACK."""

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        result = json.loads(stdout)["result"]
        if result["trials"] != trials or len(result["reports"]) != trials:
            return f"{len(result['reports'])} trial reports, expected {trials}"
        if not result["worst_margin"] >= -MARGIN_SLACK:
            return f"worst margin {result['worst_margin']}"
        return None

    return check


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def _argv(command: str, spec: str, seed: int, *extra: str) -> tuple[str, ...]:
    return (command, "--spec", spec_path(spec), "--seed", str(seed), *extra)


def _exact(name: str, expected: dict, command: str, spec: str, seed: int, *extra: str) -> Job:
    return Job(name, _argv(command, spec, seed, *extra), exact_check(expected[name]))


def _canaries(expected: dict, seed: int) -> dict[str, Job]:
    """The smallest job of each command, keyed by command."""
    return {
        "report": _exact(
            "canary-report", expected, "report", "semicircular-2", seed,
            "--xi", XI_2, "--degree", "2",
        ),
        "duality": _exact(
            "canary-duality", expected, "duality", "semicircular-2", seed,
            "--trials", "20", "--degree", "3",
        ),
        "spectrum": Job(
            "canary-spectrum",
            _argv("spectrum", "canary-gue", seed, "--poly", "1 * Z 1", "--format", "csv"),
            bounded_spectrum_check(40 * 2),
            csv=True,
        ),
        "margins": Job(
            "canary-margins",
            _argv("margins", "canary-margins", seed, "--xi", XI_2, "--trials", "1", "--degree", "2"),
            margins_check(1),
        ),
    }


def _exact_conjugate(expected: dict, seed: int) -> list[Job]:
    canary = _canaries(expected, seed)
    return [
        _exact("verify-semicircular-2-deg9", expected, "verify-conjugate", "semicircular-2", seed,
               "--xi", XI_2, "--degree", "9"),
        _exact("verify-wrong-candidate-deg8", expected, "verify-conjugate", "semicircular-2", seed,
               "--xi", XI_2_WRONG, "--degree", "8"),
        _exact("verify-semicircular-3-deg6", expected, "verify-conjugate", "semicircular-3", seed,
               "--xi", XI_3, "--degree", "6"),
        _exact("duality-semicircular-2-deg5", expected, "duality", "semicircular-2", seed,
               "--trials", "200", "--degree", "5"),
        _exact("report-semicircular-2-deg4", expected, "report", "semicircular-2", seed,
               "--xi", XI_2, "--degree", "4"),
        canary["spectrum"],
        canary["margins"],
    ]


def _exact_relations(expected: dict, seed: int) -> list[Job]:
    canary = _canaries(expected, seed)
    semicircular_2 = _exact("relations-semicircular-2-deg4", expected, "relations",
                            "semicircular-2", seed, "--degree", "4")
    semicircular_3 = _exact("relations-semicircular-3-deg3", expected, "relations",
                            "semicircular-3", seed, "--degree", "3")
    free_poisson = _exact("relations-free-poisson-2-deg4", expected, "relations",
                          "free-poisson-2", seed, "--degree", "4")
    bernoulli = _exact("relations-bernoulli-deg2", expected, "relations",
                       "bernoulli", seed, "--degree", "2")
    return [
        *[semicircular_2] * 3,
        *[semicircular_3] * 2,
        *[free_poisson] * 2,
        bernoulli,
        *canary.values(),
    ]


def _matrix_lab(expected: dict, seed: int) -> list[Job]:
    canary = _canaries(expected, seed)
    anticommutator = Job(
        "spectrum-gue-anticommutator-csv",
        _argv("spectrum", "gue-anticommutator", seed, "--poly", ANTICOMMUTATOR, "--format", "csv"),
        atomless_check(100 * 100),
        csv=True,
    )
    rademacher = Job(
        "spectrum-rademacher",
        _argv("spectrum", "rademacher", seed, "--poly", "1 * Z 1"),
        rademacher_check,
    )
    margins = Job(
        "margins-gue",
        _argv("margins", "gue-margins", seed, "--xi", XI_2, "--trials", "3", "--degree", "4"),
        margins_check(3),
    )
    return [
        *[anticommutator] * 2,
        *[rademacher] * 3,
        margins,
        canary["report"],
        canary["duality"],
    ]


WORKLOADS = {
    "exact-conjugate": _exact_conjugate,
    "exact-relations": _exact_relations,
    "matrix-lab": _matrix_lab,
}


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def build_jobs(workload: str, seed: int) -> list[Job]:
    """One cycle of the workload's jobs, in an order drawn from the seed."""
    jobs = WORKLOADS[workload](load_expected(), seed)
    random.Random(seed).shuffle(jobs)
    return jobs
