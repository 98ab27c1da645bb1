"""Random-matrix models for the trace: spectra, atoms, norms, margins.

Independent GUE tuples approximate free semicircular families as the
dimension grows, which makes finite matrices a numerical laboratory for the
symbolic identities: empirical traces converge to the moments, spectral
histograms expose atoms, and the largest singular value estimates the
operator norm appearing in the inequality right-hand sides.

All sampling is reproducible: the generator is numpy's PCG64 and each sample
gets a child seed derived from the root seed and its index, so aggregation
is order-independent.

`opnorm_estimate`, and `spectrum` on an ensemble with a GUE tag, draw the
samples one at a time, so they hold one matrix tuple at once whatever the
sample count.  `spectrum` on an all-diagonal ensemble holds every sample's
diagonals at once, n x samples x dim complex entries, and evaluates p on
them in one pass.  `sample` returns every tuple at once: the resident
ensemble on which `empirical_margins` measures p and q.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .conjugate import ConjugateCandidate, MarginsReport, norm_margins
from .derivations import check_index
from .errors import EvaluationError
from .ncpoly import NcPoly
from .reduction import jacobi
from .scalars import Scalar
from .trace import json_int, json_list, json_real

RNG_NAME = "numpy-pcg64"

#: default window-width constant for the atom scan; width is c / sqrt(count)
ATOM_WINDOW_SCALE = 4.0

#: the number of equal-width bins in a spectrum's histogram
HISTOGRAM_BINS = 100


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GUE:
    """Hermitian Gaussian matrix scaled so tr_N(X^2) -> variance."""

    variance: float = 1.0

    def __post_init__(self):
        if not self.variance >= 0:
            raise ValueError(
                f"GUE variance must be non-negative, got {self.variance!r}"
            )


@dataclass(frozen=True)
class DiagonalRademacher:
    """Diagonal matrix with independent +-1 entries."""


@dataclass(frozen=True)
class DiagonalFromMoments:
    """Diagonal entries drawn from the quadrature measure matching m_1..m_2k.

    The discrete measure comes from the moment sequence by Golub-Welsch:
    the eigenpairs of the Jacobi matrix of its exact three-term recurrence
    (`quadrature_from_moments`).  The sequence must be that of a positive
    measure on at most k points; a Dirac mass is one.
    """

    moments: tuple[float, ...]


EnsembleTag = GUE | DiagonalRademacher | DiagonalFromMoments


@dataclass(frozen=True)
class EnsembleConfig:
    n: int
    dim: int
    ensembles: tuple[EnsembleTag, ...]
    samples: int
    seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("matrix dimension must be >= 1")
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")
        if len(self.ensembles) != self.n:
            raise ValueError("need one ensemble tag per generator")

    def to_dict(self) -> dict:
        tags = []
        for tag in self.ensembles:
            if isinstance(tag, GUE):
                tags.append({"kind": "gue", "variance": tag.variance})
            elif isinstance(tag, DiagonalRademacher):
                tags.append({"kind": "rademacher"})
            else:
                tags.append({"kind": "diagonal-moments", "moments": list(tag.moments)})
        return {
            "n": self.n,
            "dim": self.dim,
            "samples": self.samples,
            "seed": self.seed,
            "rng": RNG_NAME,
            "matrices": tags,
        }

    @staticmethod
    def from_dict(data: Mapping, seed: int | None = None) -> "EnsembleConfig":
        tags = []
        for entry in json_list(data["matrices"], "matrices"):
            if not isinstance(entry, dict):
                raise ValueError(f"matrices entry {entry!r} is not an object")
            kind = entry["kind"]
            if kind == "gue":
                tags.append(GUE(json_real(entry.get("variance", 1.0), "variance")))
            elif kind == "rademacher":
                tags.append(DiagonalRademacher())
            elif kind == "diagonal-moments":
                moments = json_list(entry["moments"], "moments")
                moments = tuple(json_real(m, "moment") for m in moments)
                tags.append(DiagonalFromMoments(moments))
            else:
                raise ValueError(f"unknown ensemble kind: {kind!r}")
        if seed is None:
            seed = json_int(data.get("seed", 0), "seed", 0)
        return EnsembleConfig(
            n=json_int(data["n"], "n", 0),
            dim=json_int(data["dim"], "dim", 1),
            ensembles=tuple(tags),
            samples=json_int(data["samples"], "samples", 1),
            seed=int(seed),
        )


# h_j / m_2j below this is rounding of the given moments, not another atom
ZERO_NORM = Fraction(1, 10**12)


def quadrature_from_moments(moments: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the discrete measure matching m_1..m_2k (Golub-Welsch).

    With m_0 = 1 and the floats taken as exact fractions, the first
    k = len(moments) // 2 pairs of `jacobi` are the norms h_j of the monic
    orthogonal polynomials and their recurrence coefficients a_j.  The
    Jacobi matrix has a_j on the diagonal and sqrt(h_j / h_(j-1)) beside it;
    its eigenvalues are the nodes, and the squared first components of its
    eigenvectors the weights.  The pairs stop at the first h_j that is 0 up
    to the rounding of the given floats (|h_j| <= 1e-12 m_2j), where the
    measure has j atoms, and any other h_j < 0 is rejected.  h_k is not
    taken: it reads m_2k, which only the reproduction check judges.
    """
    if len(moments) < 2:
        raise ValueError("need at least two moments")
    k = len(moments) // 2
    m = [Fraction(1), *map(Fraction, moments)]
    a: list[Fraction] = []
    h: list[Fraction] = []
    for j, (h_j, a_j) in enumerate(islice(jacobi([Scalar(m_i) for m_i in m]), k)):
        if abs(h_j.re) <= ZERO_NORM * m[2 * j]:
            break
        if h_j.re < 0:
            raise ValueError("moment sequence is not positive")
        a.append(a_j.re)
        h.append(h_j.re)
    off = np.sqrt([float(h_j / h_i) for h_i, h_j in zip(h, h[1:])])
    matrix = np.diag([float(a_j) for a_j in a]) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(matrix)
    weights = vectors[0] ** 2
    # jacobi reads only the first moments; verify the measure has them all
    for j, target in enumerate(np.asarray(moments, dtype=float), start=1):
        value = float(np.sum(weights * nodes ** j))
        if abs(value - target) > 1e-8 * max(1.0, abs(target)):
            raise ValueError(
                f"moment sequence is not realized by any {len(nodes)}-point measure "
                f"(m_{j}: expected {target}, reconstructed {value})"
            )
    return nodes, weights


DIAGONAL_TAGS = (DiagonalRademacher, DiagonalFromMoments)

#: the Rademacher atoms, indexed by a draw of integers(0, 2)
RADEMACHER_ATOMS = np.array([-1.0, 1.0], dtype=complex)


def _diagonal_table(tag: EnsembleTag) -> tuple[np.ndarray, np.ndarray] | None:
    """A DiagonalFromMoments tag's quadrature nodes, as complex, and weights; else None."""
    if not isinstance(tag, DiagonalFromMoments):
        return None
    nodes, weights = quadrature_from_moments(tag.moments)
    return nodes.astype(complex), weights


def _draw(
    tag: EnsembleTag,
    table: tuple[np.ndarray, np.ndarray] | None,
    dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """A GUE matrix, or the diagonal (1-D) of a diagonal ensemble's matrix.

    `table` is `_diagonal_table(tag)`.  A diagonal draw is what
    `rng.choice(atoms, size=dim, p=weights)` draws.  For Rademacher's two
    equal weights that is one `integers(0, 2, size=dim)` call, made here
    without `choice`'s per-call checks.
    """
    if isinstance(tag, GUE):
        # (raw + raw^*) / (2 sqrt(dim)) for raw = a + ib, filled part by part
        # in place; numpy divides a complex array by a real by multiplying
        # with the reciprocal, so this is the complex formula bit for bit
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim))
        inv = 1.0 / (2.0 * np.sqrt(dim))
        mat = np.empty((dim, dim), dtype=complex)
        re, im = mat.real, mat.imag
        np.add(a, a.T, out=re)
        re *= inv
        np.subtract(b, b.T, out=im)
        im *= inv
        if tag.variance != 1.0:
            mat *= np.sqrt(tag.variance)
        return mat
    if isinstance(tag, DiagonalRademacher):
        return RADEMACHER_ATOMS[rng.integers(0, 2, size=dim)]
    atoms, weights = table
    return rng.choice(atoms, size=dim, p=weights)


def _draws(config: EnsembleConfig):
    """Per sample index, the draws of every tag from that index's own stream."""
    # the quadrature depends on the tag alone: solve it once, not per sample
    tables = [_diagonal_table(tag) for tag in config.ensembles]
    for index in range(config.samples):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(index,)))
        )
        yield [
            _draw(tag, table, config.dim, rng)
            for tag, table in zip(config.ensembles, tables)
        ]


def _dense(draws: list[np.ndarray]) -> list[np.ndarray]:
    return [np.diag(x) if x.ndim == 1 else x for x in draws]


def _tuples(config: EnsembleConfig) -> Iterator[list[np.ndarray]]:
    """Per sample index, its dense matrix tuple, drawn when asked for.

    `map` keeps no reference to a tuple once it is handed on, so a consumer
    that also keeps none (one that maps over this) holds one tuple at a time.
    """
    return map(_dense, _draws(config))


def check_matrix_count(config: EnsembleConfig, n: int) -> None:
    """Raise the EvaluationError that evaluating an n-letter polynomial on
    one of the ensemble's tuples would raise."""
    if config.n != n:
        raise EvaluationError(f"expected {n} matrices, got {config.n}")


def sample(config: EnsembleConfig) -> list[list[np.ndarray]]:
    """One matrix tuple per sample, deterministic in the seed, all resident."""
    return list(_tuples(config))


# ---------------------------------------------------------------------------
# empirical traces and norms
# ---------------------------------------------------------------------------


def empirical_trace(p: NcPoly, matrices: Sequence[np.ndarray]) -> float:
    """Normalized trace of p evaluated at the tuple (real part)."""
    value = p.evaluate(matrices)
    return float(np.trace(value).real) / value.shape[0]


def _spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _opnorm(p: NcPoly, tuples: Iterable[Sequence[np.ndarray]]) -> float:
    return max(map(lambda mats: _spectral_norm(p.evaluate(mats)), tuples))


def opnorm_estimate(p: NcPoly, config: EnsembleConfig) -> float:
    """Largest singular value of p(X) over the sampled tuples, one at a time."""
    return _opnorm(p, _tuples(config))


def kernel_traciality(x: np.ndarray, tol: float = 1e-10) -> dict:
    """Numerical kernel dimensions of x and x*; equal for square matrices."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise EvaluationError("kernel traciality is a square-matrix statement")
    dim_ker = int(np.sum(np.linalg.svd(x, compute_uv=False) < tol))
    dim_ker_star = int(np.sum(np.linalg.svd(x.conj().T, compute_uv=False) < tol))
    if dim_ker != dim_ker_star:
        raise AssertionError(
            f"rank-nullity violated: dim ker = {dim_ker}, "
            f"dim ker* = {dim_ker_star}"
        )
    return {"dim_ker": dim_ker, "dim_ker_star": dim_ker_star}


# ---------------------------------------------------------------------------
# spectra and atom detection
# ---------------------------------------------------------------------------


def _window_ends(ev: np.ndarray, width: float) -> np.ndarray:
    """Per i, the end j[i] of the window: ev[i:j[i]] lies in [ev[i], ev[i] + width].

    ev must be sorted.
    """
    return np.searchsorted(ev, ev + width, side="right")


def max_window_mass(eigenvalues: np.ndarray, width: float) -> float:
    """Largest fraction of eigenvalues in any window of the given width."""
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    if len(ev) == 0:
        raise ValueError("empty eigenvalue sample")
    counts = _window_ends(ev, width) - np.arange(len(ev))
    return int(counts.max()) / len(ev)


def atom_scan(
    eigenvalues: np.ndarray, window_scale: float = ATOM_WINDOW_SCALE
) -> list[tuple[float, float]]:
    """Detect candidate atoms by a sliding window over sorted eigenvalues.

    The window width is window_scale / sqrt(count) over the pooled sample:
    wider than the bulk eigenvalue spacing, so a genuine atom of mass m
    concentrates ~m of the sample in one window, while atomless limits put
    only O(width) mass there.  Returns (location, mass) pairs sorted by
    descending mass; mass is an upper estimate of the atom mass.
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    if len(ev) == 0:
        raise ValueError("empty eigenvalue sample")
    width = window_scale / np.sqrt(len(ev))
    return _scan_windows(ev, width, _window_ends(ev, width))


def _scan_windows(ev: np.ndarray, width: float, ends: np.ndarray) -> list[tuple[float, float]]:
    """`atom_scan` on sorted, non-empty ev, given `_window_ends(ev, width)`."""
    total = len(ev)
    spread = max(float(ev[-1] - ev[0]), width)
    floor = 0.5 * width / spread
    counts = ends - np.arange(total)
    # the windows at or above the floor, by descending count, ties in increasing i
    order = np.argsort(-counts, kind="stable")
    order = order[~(counts[order] / total < floor)]
    lo = ev[order]
    hi = lo + width
    lo_reach, hi_reach = lo - width, hi + width
    # free[k]: window order[k] is not blocked by any atom accepted so far
    free = np.ones(len(order), dtype=bool)
    found: list[tuple[float, float]] = []
    k = 0
    while k < len(order):
        i = order[k]
        found.append((float(np.mean(ev[i:ends[i]])), int(counts[i]) / total))
        rest = free[k + 1:]
        rest &= ~((lo_reach[k + 1:] < hi[k]) & (hi_reach[k + 1:] > lo[k]))
        if not rest.any():
            break
        k += 1 + int(np.argmax(rest))
    return found


@dataclass(frozen=True)
class SpectralReport:
    """Pooled spectrum of a self-adjoint polynomial in a matrix ensemble."""

    eigenvalues: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray
    atom_estimate: tuple[tuple[float, float], ...]
    window_width: float
    max_window_mass: float
    config: EnsembleConfig

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "window_width": self.window_width,
            "max_window_mass": self.max_window_mass,
            "atom_estimate": [
                {"location": loc, "mass": mass} for loc, mass in self.atom_estimate
            ],
            "histogram": {
                "bin_edges": self.bin_edges.tolist(),
                "counts": self.counts.tolist(),
            },
        }

    def eigenvalue_rows(self) -> list[list[str]]:
        return [["eigenvalue"]] + [[repr(v)] for v in self.eigenvalues.tolist()]


def spectrum(p: NcPoly, config: EnsembleConfig) -> SpectralReport:
    """Pooled eigenvalues, histogram and atom estimates of p over the ensemble.

    When every tag is diagonal, the diagonals of all samples are held at
    once (n x samples x dim complex entries) and p is evaluated on them in
    one pass.  Otherwise the samples are drawn and evaluated one at a time:
    only one tuple, its p(X) and the pooled eigenvalues are held at once.
    The window ends over the pooled eigenvalues are found once and give
    both the atom estimate and the max window mass.
    """
    if not p.is_self_adjoint():
        raise ValueError("spectrum requires a self-adjoint polynomial")
    check_matrix_count(config, p.n)
    if all(isinstance(tag, DIAGONAL_TAGS) for tag in config.ensembles):
        # diagonal matrices: the words are elementwise products, and the
        # eigenvalues of the diagonal p(X) are its real entries; row k of
        # each letter's array is sample k's diagonal
        shape = (config.samples, config.dim)
        letters = np.empty((config.n, *shape), dtype=complex)
        for index, diagonals in enumerate(_draws(config)):
            for letter, diagonal in zip(letters, diagonals):
                letter[index] = diagonal
        pooled = p.evaluate_in(
            letters,
            np.zeros(shape, dtype=complex),
            lambda: np.ones(shape, dtype=complex),
            operator.mul,
        ).real
    else:
        pooled = np.concatenate(list(map(
            lambda mats: np.linalg.eigvalsh(p.evaluate(mats)), _tuples(config)
        )))
    eigenvalues = np.sort(pooled, axis=None)
    total = len(eigenvalues)
    counts, bin_edges = np.histogram(eigenvalues, bins=HISTOGRAM_BINS)
    width = ATOM_WINDOW_SCALE / np.sqrt(total)
    ends = _window_ends(eigenvalues, width)
    return SpectralReport(
        eigenvalues=eigenvalues,
        bin_edges=bin_edges,
        counts=counts,
        atom_estimate=tuple(_scan_windows(eigenvalues, width, ends)),
        window_width=width,
        max_window_mass=int((ends - np.arange(total)).max()) / total,
        config=config,
    )


# ---------------------------------------------------------------------------
# empirical inequality margins
# ---------------------------------------------------------------------------


def empirical_margins(
    cand: ConjugateCandidate,
    j: int,
    p: NcPoly,
    samples: Sequence[Sequence[np.ndarray]],
    q: NcPoly | None = None,
) -> MarginsReport:
    """`norm_margins` at the largest singular values of p (and q) on samples.

    `samples` is `sample(config)`, drawn once by a caller that measures many
    polynomials on one ensemble.  j is checked first, then each polynomial's
    matrix count as it is evaluated on the first tuple.
    """
    check_index(j, cand.spec.n)
    p_opnorm = _opnorm(p, samples)
    q_opnorm = None if q is None else _opnorm(q, samples)
    return norm_margins(cand, j, p, p_opnorm, q, q_opnorm)
