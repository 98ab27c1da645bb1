"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, prints a single
pass/fail line (visible even under pytest's capture) and then asserts.
Runtime limits are asserted where the criterion states one.
"""

import random
import time

import numpy as np
import pytest

from ncfree import (
    ConjugateCandidate,
    DistributionSpec,
    EnsembleConfig,
    NcPoly,
    TensorPoly2,
    TraceFunctional,
)
from ncfree.conjugate import (
    check_adjoint,
    check_conjugate,
    check_duality,
    norm_estimate_margins,
    dstar,
    dstar_left,
    dstar_right,
)
from ncfree.derivations import d
from ncfree.randmat import (
    GUE,
    DiagonalRademacher,
    empirical_margins,
    empirical_trace,
    kernel_traciality,
    sample,
    spectrum,
)
from ncfree.reduction import (
    ProjectionSurrogate,
    delta_p,
    extract_leading_coeff,
    relation_kernel,
)
from ncfree.scalars import Scalar
from ncfree.sweeps import rand_nonzero_poly, rand_poly, rand_self_adjoint, rand_word

from conftest import bernoulli_spec, gens


def report(capsys, number, label, passed, detail=""):
    line = f"criterion {number:2d} ({label}): {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert passed, line


def test_criterion_01_leibniz(capsys):
    rng = random.Random(101)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, 6)
        q = rand_poly(rng, n, 6)
        j = rng.randint(1, n)
        one = NcPoly.one(n)
        lhs = d(j, p * q)
        rhs = d(j, p).bimodule_mul(one, q) + d(j, q).bimodule_mul(p, one)
        if lhs != rhs:
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(
        capsys,
        1,
        "Leibniz rule, 500 random pairs",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_02_derivative_examples(capsys):
    z1, z2 = gens(2)
    ok = d(2, z1 * z2 * z1) == TensorPoly2.of(z1, z1)
    ok = ok and d(1, z1 * z2 + z2 * z1) == (
        TensorPoly2.of(NcPoly.one(2), z2) + TensorPoly2.of(z2, NcPoly.one(2))
    )
    rng = random.Random(102)
    for _ in range(200):
        p = rand_poly(rng, 3, 5)
        j = rng.randint(1, 3)
        if d(j, p).star().flip() != d(j, p.star()):
            ok = False
            break
    report(capsys, 2, "worked derivative examples and flip identity", ok)


def test_criterion_03_conjugate_relations(capsys):
    start = time.perf_counter()
    spec = DistributionSpec.standard_semicircular(2)
    cand = ConjugateCandidate(gens(2), spec)
    good = check_conjugate(cand, degree=8)
    elapsed = time.perf_counter() - start
    wrong = ConjugateCandidate([2 * NcPoly.gen(2, 1), NcPoly.gen(2, 2)], spec)
    bad = check_conjugate(wrong, degree=4)
    pinpointed = (not bad.passed) and bad.failures[0][:2] == (1, (1,))
    report(
        capsys,
        3,
        "conjugate relations at degree 8 plus failing witness",
        good.passed and pinpointed and elapsed < 60.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_04_adjointness(capsys):
    spec = DistributionSpec.standard_semicircular(2)
    cand = ConjugateCandidate(gens(2), spec)
    rng = random.Random(104)
    ok = True
    for _ in range(100):
        y = TensorPoly2.of(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
        q = rand_poly(rng, 2, 4)
        j = rng.randint(1, 2)
        if not check_adjoint(cand, j, y, q):
            ok = False
            break
    for _ in range(200):
        p = rand_poly(rng, 2, 4)
        j = rng.randint(1, 2)
        one = NcPoly.one(2)
        if dstar(cand, j, TensorPoly2.of(p, one)) != dstar_left(cand, j, p):
            ok = False
            break
        if dstar(cand, j, TensorPoly2.of(one, p)) != dstar_right(cand, j, p):
            ok = False
            break
    report(capsys, 4, "adjoint pairing and closed forms", ok)


def test_criterion_05_duality(capsys):
    trace = TraceFunctional(DistributionSpec.standard_semicircular(2))
    rng = random.Random(105)
    ok = True
    for _ in range(200):
        p1 = NcPoly.monomial(2, rand_word(rng, 2, 5))
        p2 = NcPoly.monomial(2, rand_word(rng, 2, 5))
        i = rng.randint(1, 2)
        if not check_duality(trace, p1, p2, i):
            ok = False
            break
    report(capsys, 5, "duality identity on 200 monomial pairs", ok)


def test_criterion_06_reduction(capsys):
    trace = TraceFunctional(DistributionSpec.standard_semicircular(2))
    rng = random.Random(106)
    ok = True
    for _ in range(200):
        p = rand_nonzero_poly(rng, 2, 6)
        degree = p.total_degree()
        word = rand_word(rng, 2, degree, min_len=degree)
        if extract_leading_coeff(trace, p, word) != p.coeff(word):
            ok = False
            break
    for _ in range(100):
        p = rand_nonzero_poly(rng, 2, 4)
        degree = p.total_degree()
        word = rand_word(rng, 2, degree, min_len=degree)
        projs = [
            ProjectionSurrogate.from_poly(trace, rand_self_adjoint(rng, 2, 2))
            for _ in word
        ]
        current = p
        weight = Scalar(1)
        for proj, letter in zip(projs, word):
            current = delta_p(trace, proj, letter, current)
            weight = weight * proj.trace_weight
        if current.coeff(()) != weight * p.coeff(word):
            ok = False
            break
    report(capsys, 6, "leading-coefficient extraction, plain and weighted", ok)


def test_criterion_07_relation_kernel(capsys):
    start = time.perf_counter()
    semicircular = TraceFunctional(DistributionSpec.standard_semicircular(2))
    empty = relation_kernel(semicircular, 4) == []
    bernoulli = TraceFunctional(bernoulli_spec())
    kernel = relation_kernel(bernoulli, 2)
    z = NcPoly.gen(1, 1)
    detected = len(kernel) == 1 and kernel[0] == kernel[0].coeff((1, 1)) * (
        z * z - 1
    )
    elapsed = time.perf_counter() - start
    report(
        capsys,
        7,
        "relation kernel: empty for semicircular, Z^2-1 for Bernoulli",
        empty and detected and elapsed < 60.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_08_moment_convergence(capsys):
    start = time.perf_counter()
    z1, z2 = gens(2)
    config = EnsembleConfig(2, 500, (GUE(), GUE()), 20, 20240817)
    tuples = sample(config)
    quartic = np.mean([empirical_trace(z1 ** 4, mats) for mats in tuples])
    mixed = np.mean([empirical_trace(z1 * z2 * z1 * z2, mats) for mats in tuples])
    elapsed = time.perf_counter() - start
    ok = abs(quartic - 2.0) < 0.1 and abs(mixed) < 0.1
    report(
        capsys,
        8,
        "GUE moment convergence at N=500",
        ok and elapsed < 120.0,
        f"tr X^4 = {quartic:.4f}, mixed = {mixed:.4f}, {elapsed:.2f}s",
    )


def test_criterion_09_atom_scan(capsys):
    start = time.perf_counter()
    z1, z2 = gens(2)
    config = EnsembleConfig(2, 1000, (GUE(), GUE()), 20, 31)
    continuous = spectrum(z1 * z2 + z2 * z1, config)
    control_config = EnsembleConfig(1, 1000, (DiagonalRademacher(),), 20, 32)
    control = spectrum(NcPoly.gen(1, 1), control_config)
    atoms = dict(
        (round(loc), mass) for loc, mass in control.atom_estimate
    )
    elapsed = time.perf_counter() - start
    ok = (
        continuous.max_window_mass < 0.02
        and set(atoms) == {-1, 1}
        and abs(atoms[1] - 0.5) < 0.05
        and abs(atoms[-1] - 0.5) < 0.05
    )
    report(
        capsys,
        9,
        "atom scan: GUE anticommutator atomless, Rademacher atoms at +-1",
        ok and elapsed < 300.0,
        f"max mass {continuous.max_window_mass:.4f}, {elapsed:.2f}s",
    )


def test_criterion_10_margins(capsys):
    spec = DistributionSpec.standard_semicircular(2)
    cand = ConjugateCandidate(gens(2), spec)
    config = EnsembleConfig(2, 1000, (GUE(), GUE()), 1, 77)
    rng = random.Random(110)
    worst = float("inf")
    for _ in range(50):
        p = rand_nonzero_poly(rng, 2, 4)
        j = rng.randint(1, 2)
        margins = empirical_margins(cand, j, p, config)
        worst = min(worst, min(margins.all_margins()))
    # the P = 1 equality case, entirely symbolic
    unit = norm_estimate_margins(cand, 1, NcPoly.one(2), k=3)
    report(
        capsys,
        10,
        "norm-inequality margins on 50 random P",
        worst >= -0.05 and abs(unit.margin1) < 1e-9,
        f"worst margin {worst:.4f}",
    )


def test_criterion_11_kernel_traciality(capsys):
    nprng = np.random.default_rng(111)
    rng = random.Random(111)
    ok = True
    for _ in range(100):
        size = rng.randint(2, 12)
        rank = rng.randint(0, size - 1)
        if rank:
            a = nprng.standard_normal((size, rank)) + 1j * nprng.standard_normal(
                (size, rank)
            )
            b = nprng.standard_normal((rank, size)) + 1j * nprng.standard_normal(
                (rank, size)
            )
            x = a @ b
        else:
            x = np.zeros((size, size), dtype=complex)
        out = kernel_traciality(x, tol=1e-10)
        if out["dim_ker"] != out["dim_ker_star"] or out["dim_ker"] != size - rank:
            ok = False
            break
    report(capsys, 11, "kernel dimensions of x and x* agree", ok)
