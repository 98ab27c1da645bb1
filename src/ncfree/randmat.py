"""Random-matrix models for the trace: spectra, atoms, norms, margins.

Independent GUE tuples approximate free semicircular families as the
dimension grows, which makes finite matrices a numerical laboratory for the
symbolic identities: empirical traces converge to the moments, spectral
histograms expose atoms, and the largest singular value estimates the
operator norm appearing in the inequality right-hand sides.

All sampling is reproducible: the generator is numpy's PCG64 and each sample
gets a child seed derived from the root seed and its index, so aggregation
is order-independent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg

from .conjugate import ConjugateCandidate, dstar, dstar_left, dstar_right
from .derivations import d
from .errors import EvaluationError
from .ncpoly import NcPoly

RNG_NAME = "numpy-pcg64"

#: default window-width constant for the atom scan; width is c / sqrt(count)
ATOM_WINDOW_SCALE = 4.0


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GUE:
    """Hermitian Gaussian matrix scaled so tr_N(X^2) -> variance."""

    variance: float = 1.0


@dataclass(frozen=True)
class DiagonalRademacher:
    """Diagonal matrix with independent +-1 entries."""


@dataclass(frozen=True)
class DiagonalFromMoments:
    """Diagonal entries drawn from the quadrature measure matching m_1..m_2k.

    The discrete measure is recovered from the moment sequence by the
    generalized eigenproblem of the two Hankel matrices (Prony's method),
    so the sequence must come from a genuine positive measure.
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
        for entry in data["matrices"]:
            kind = entry["kind"]
            if kind == "gue":
                tags.append(GUE(float(entry.get("variance", 1.0))))
            elif kind == "rademacher":
                tags.append(DiagonalRademacher())
            elif kind == "diagonal-moments":
                tags.append(DiagonalFromMoments(tuple(float(m) for m in entry["moments"])))
            else:
                raise ValueError(f"unknown ensemble kind: {kind!r}")
        return EnsembleConfig(
            n=int(data["n"]),
            dim=int(data["dim"]),
            ensembles=tuple(tags),
            samples=int(data["samples"]),
            seed=int(seed if seed is not None else data.get("seed", 0)),
        )


def quadrature_from_moments(moments: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the discrete measure matching the moments.

    Uses m_0 = 1 implicitly and k = len(moments) // 2 support points.
    """
    k = len(moments) // 2
    if k < 1:
        raise ValueError("need at least two moments")
    m = np.concatenate(([1.0], np.asarray(moments, dtype=float)))
    hankel = np.array([[m[i + j] for j in range(k)] for i in range(k)])
    shifted = np.array([[m[i + j + 1] for j in range(k)] for i in range(k)])
    nodes = scipy.linalg.eig(shifted, hankel, right=False)
    if np.max(np.abs(nodes.imag)) > 1e-8:
        raise ValueError("moment sequence does not define a real measure")
    nodes = np.sort(nodes.real)
    vandermonde = np.vander(nodes, N=k, increasing=True).T
    weights = np.linalg.solve(vandermonde, m[:k])
    if np.any(weights < -1e-10):
        raise ValueError("moment sequence is not positive")
    weights = np.clip(weights, 0.0, None)
    weights /= weights.sum()
    # a measure on k points can only match 2k moments; verify it actually does
    for j, target in enumerate(m[1:], start=1):
        value = float(np.sum(weights * nodes ** j))
        if abs(value - target) > 1e-8 * max(1.0, abs(target)):
            raise ValueError(
                f"moment sequence is not realized by any {k}-point measure "
                f"(m_{j}: expected {target}, reconstructed {value})"
            )
    return nodes, weights


DIAGONAL_TAGS = (DiagonalRademacher, DiagonalFromMoments)


def _draw(tag: EnsembleTag, dim: int, rng: np.random.Generator) -> np.ndarray:
    """A GUE matrix, or the diagonal (1-D) of a diagonal ensemble's matrix."""
    if isinstance(tag, GUE):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mat = (raw + raw.conj().T) / (2.0 * np.sqrt(dim))
        return np.sqrt(tag.variance) * mat
    if isinstance(tag, DiagonalRademacher):
        return rng.choice([-1.0, 1.0], size=dim).astype(complex)
    nodes, weights = quadrature_from_moments(tag.moments)
    return rng.choice(nodes, size=dim, p=weights).astype(complex)


def _draws(config: EnsembleConfig):
    """Per sample index, the draws of every tag from that index's own stream."""
    for index in range(config.samples):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(index,)))
        )
        yield [_draw(tag, config.dim, rng) for tag in config.ensembles]


def sample(config: EnsembleConfig) -> list[list[np.ndarray]]:
    """One matrix tuple per sample, deterministic in the seed."""
    return [
        [np.diag(x) if x.ndim == 1 else x for x in draws] for draws in _draws(config)
    ]


# ---------------------------------------------------------------------------
# empirical traces and norms
# ---------------------------------------------------------------------------


def empirical_trace(p: NcPoly, matrices: Sequence[np.ndarray]) -> float:
    """Normalized trace of p evaluated at the tuple (real part)."""
    value = p.evaluate(matrices)
    return float(np.trace(value).real) / value.shape[0]


def empirical_inner(
    p: NcPoly, q: NcPoly, matrices: Sequence[np.ndarray]
) -> complex:
    """Normalized trace of p(X) q(X)^dagger."""
    a = p.evaluate(matrices)
    b = q.evaluate(matrices)
    return complex(np.trace(a @ b.conj().T)) / a.shape[0]


def _spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def opnorm_estimate(p: NcPoly, config: EnsembleConfig) -> float:
    """Largest singular value of p(X) over the sampled tuples."""
    return max(_spectral_norm(p.evaluate(mats)) for mats in sample(config))


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
    counts = _window_ends(ev, width) - np.arange(len(ev))
    return int(counts.max(initial=0)) / len(ev)


def atom_scan(
    eigenvalues: np.ndarray,
    window_scale: float = ATOM_WINDOW_SCALE,
    floor: float | None = None,
) -> list[tuple[float, float]]:
    """Detect candidate atoms by a sliding window over sorted eigenvalues.

    The window width is window_scale / sqrt(count) over the pooled sample:
    wider than the bulk eigenvalue spacing, so a genuine atom of mass m
    concentrates ~m of the sample in one window, while atomless limits put
    only O(width) mass there.  Returns (location, mass) pairs sorted by
    descending mass; mass is an upper estimate of the atom mass.
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    total = len(ev)
    if total == 0:
        raise ValueError("empty eigenvalue sample")
    width = window_scale / np.sqrt(total)
    spread = max(float(ev[-1] - ev[0]), width)
    if floor is None:
        floor = 0.5 * width / spread
    ends = _window_ends(ev, width)
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


def spectrum(
    p: NcPoly,
    config: EnsembleConfig,
    bins: int = 100,
    window_scale: float = ATOM_WINDOW_SCALE,
) -> SpectralReport:
    """Pooled eigenvalues, histogram and atom estimates of p over the ensemble."""
    if not p.is_self_adjoint():
        raise ValueError("spectrum requires a self-adjoint polynomial")
    if all(isinstance(tag, DIAGONAL_TAGS) for tag in config.ensembles):
        # diagonal matrices: the words are elementwise products, and the
        # eigenvalues of the diagonal p(X) are its real entries
        dim = config.dim
        pooled = [
            p.evaluate_in(
                diagonals,
                np.zeros(dim, dtype=complex),
                lambda: np.ones(dim, dtype=complex),
                operator.mul,
            ).real
            for diagonals in _draws(config)
        ]
    else:
        pooled = [np.linalg.eigvalsh(p.evaluate(mats)) for mats in sample(config)]
    eigenvalues = np.sort(np.concatenate(pooled))
    counts, bin_edges = np.histogram(eigenvalues, bins=bins)
    width = window_scale / np.sqrt(len(eigenvalues))
    atoms = atom_scan(eigenvalues, window_scale=window_scale)
    return SpectralReport(
        eigenvalues=eigenvalues,
        bin_edges=bin_edges,
        counts=counts,
        atom_estimate=tuple(atoms),
        window_width=width,
        max_window_mass=max_window_mass(eigenvalues, width),
        config=config,
    )


# ---------------------------------------------------------------------------
# empirical inequality margins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginsReport:
    """Signed margins (bound minus left side) for the norm inequalities.

    Left sides are exact symbolic L2 norms; only the operator norms on the
    right are empirical, which isolates the Monte-Carlo noise in one factor.
    """

    xi_l2: float
    p_opnorm: float
    margin_adjoint_left: float
    margin_adjoint_right: float
    margin_partial_left: float
    margin_partial_right: float
    q_opnorm: float | None = None
    margin_dstar_tensor: float | None = None
    margin_twisted_partial: float | None = None

    def all_margins(self) -> list[float]:
        values = [
            self.margin_adjoint_left,
            self.margin_adjoint_right,
            self.margin_partial_left,
            self.margin_partial_right,
        ]
        if self.margin_dstar_tensor is not None:
            values.append(self.margin_dstar_tensor)
        if self.margin_twisted_partial is not None:
            values.append(self.margin_twisted_partial)
        return values

    def to_dict(self) -> dict:
        return {
            "xi_l2": self.xi_l2,
            "p_opnorm": self.p_opnorm,
            "q_opnorm": self.q_opnorm,
            "margins": {
                "adjoint_left": self.margin_adjoint_left,
                "adjoint_right": self.margin_adjoint_right,
                "partial_left": self.margin_partial_left,
                "partial_right": self.margin_partial_right,
                "dstar_tensor": self.margin_dstar_tensor,
                "twisted_partial": self.margin_twisted_partial,
            },
        }


def empirical_margins(
    cand: ConjugateCandidate,
    j: int,
    p: NcPoly,
    config: EnsembleConfig,
    q: NcPoly | None = None,
) -> MarginsReport:
    """Check the norm estimates with empirical operator norms.

    Covers ||dstar(P (x) 1)||_2 <= ||xi|| ||P|| and its mirror, the factor-2
    partial-trace bounds, and optionally (given q) the factor-3 bound for
    dstar on P (x) q and the factor-4 bound for the twisted partial trace.
    """
    trace = cand.trace
    xi_l2 = trace.norm2(cand.xi[j - 1])
    p_opnorm = opnorm_estimate(p, config)

    lhs_left = trace.norm2(dstar_left(cand, j, p))
    lhs_right = trace.norm2(dstar_right(cand, j, p))
    lhs_partial_left = trace.norm2(trace.partial_trace(d(j, p), "right"))
    lhs_partial_right = trace.norm2(trace.partial_trace(d(j, p), "left"))

    q_opnorm = None
    margin_dstar_tensor = None
    margin_twisted_partial = None
    if q is not None:
        from .tensor import TensorPoly2

        q_opnorm = opnorm_estimate(q, config)
        lhs_tensor = trace.norm2(dstar(cand, j, TensorPoly2.of(p, q)))
        margin_dstar_tensor = 3 * xi_l2 * p_opnorm * q_opnorm - lhs_tensor
        twisted = trace.partial_trace(
            d(j, p).bimodule_mul(NcPoly.one(p.n), q), "right"
        )
        lhs_twisted = trace.norm2(twisted)
        margin_twisted_partial = 4 * xi_l2 * p_opnorm * q_opnorm - lhs_twisted

    return MarginsReport(
        xi_l2=xi_l2,
        p_opnorm=p_opnorm,
        margin_adjoint_left=xi_l2 * p_opnorm - lhs_left,
        margin_adjoint_right=xi_l2 * p_opnorm - lhs_right,
        margin_partial_left=2 * xi_l2 * p_opnorm - lhs_partial_left,
        margin_partial_right=2 * xi_l2 * p_opnorm - lhs_partial_right,
        q_opnorm=q_opnorm,
        margin_dstar_tensor=margin_dstar_tensor,
        margin_twisted_partial=margin_twisted_partial,
    )
