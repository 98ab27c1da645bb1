import numpy as np
import pytest

from ncfree import (
    ConjugateCandidate,
    DistributionSpec,
    EnsembleConfig,
    NcPoly,
)
from ncfree.errors import EvaluationError
from ncfree.randmat import (
    GUE,
    DiagonalFromMoments,
    DiagonalRademacher,
    atom_scan,
    empirical_inner,
    empirical_margins,
    empirical_trace,
    kernel_traciality,
    max_window_mass,
    opnorm_estimate,
    quadrature_from_moments,
    sample,
    spectrum,
)
from ncfree.scalars import Scalar

from conftest import gens
from oracles import greedy_atom_scan_oracle, identity_start_evaluate_oracle


def gue_config(n, dim, samples, seed=7):
    return EnsembleConfig(n, dim, (GUE(),) * n, samples, seed)


# -- sampling ---------------------------------------------------------------------


def test_sampling_is_deterministic():
    config = gue_config(2, 20, 3)
    a = sample(config)
    b = sample(config)
    for mats_a, mats_b in zip(a, b):
        for x, y in zip(mats_a, mats_b):
            assert np.array_equal(x, y)


def test_samples_are_independent_of_order():
    # sample index k uses a child seed, so prefixes agree across sample counts
    small = sample(gue_config(1, 10, 2))
    large = sample(gue_config(1, 10, 5))
    assert np.array_equal(small[0][0], large[0][0])
    assert np.array_equal(small[1][0], large[1][0])


def test_gue_matrices_are_hermitian_with_unit_variance():
    config = gue_config(1, 300, 4)
    for mats in sample(config):
        x = mats[0]
        assert np.allclose(x, x.conj().T)
        assert abs(empirical_trace(NcPoly.gen(1, 1) ** 2, mats) - 1.0) < 0.15


def test_rademacher_diagonal():
    config = EnsembleConfig(1, 50, (DiagonalRademacher(),), 1, 3)
    x = sample(config)[0][0]
    diag = np.diag(x)
    assert np.allclose(np.abs(diag), 1.0)
    assert np.count_nonzero(x - np.diag(diag)) == 0


def test_quadrature_recovers_bernoulli():
    nodes, weights = quadrature_from_moments([0.0, 1.0, 0.0, 1.0])
    assert np.allclose(nodes, [-1.0, 1.0])
    assert np.allclose(weights, [0.5, 0.5])


def test_quadrature_rejects_non_measures():
    with pytest.raises(ValueError):
        quadrature_from_moments([0.0, -1.0])


def test_diagonal_from_moments_matches_its_moments():
    config = EnsembleConfig(
        1, 4000, (DiagonalFromMoments((0.5, 0.5, 0.5, 0.5)),), 1, 11
    )
    x = sample(config)[0][0]
    z = NcPoly.gen(1, 1)
    assert abs(empirical_trace(z, [x]) - 0.5) < 0.05
    assert abs(empirical_trace(z ** 2, [x]) - 0.5) < 0.05


def test_config_round_trip():
    config = EnsembleConfig(
        2, 30, (GUE(2.0), DiagonalFromMoments((0.0, 1.0))), 5, 99
    )
    assert EnsembleConfig.from_dict(config.to_dict()) == config
    reseeded = EnsembleConfig.from_dict(config.to_dict(), seed=123)
    assert reseeded.seed == 123


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(2, 10, (GUE(),), 1, 0)
    with pytest.raises(ValueError):
        EnsembleConfig(1, 0, (GUE(),), 1, 0)


# -- empirical traces -----------------------------------------------------------------


def test_moment_convergence_to_semicircle():
    config = gue_config(1, 400, 10)
    z = NcPoly.gen(1, 1)
    values = [empirical_trace(z ** 4, mats) for mats in sample(config)]
    assert abs(np.mean(values) - 2.0) < 0.1


def test_mixed_moment_convergence():
    config = gue_config(2, 400, 10)
    z1, z2 = gens(2)
    alternating = [empirical_trace(z1 * z2 * z1 * z2, mats) for mats in sample(config)]
    nested = [empirical_trace(z1 * z2 * z2 * z1, mats) for mats in sample(config)]
    assert abs(np.mean(alternating)) < 0.1
    assert abs(np.mean(nested) - 1.0) < 0.1


def test_empirical_inner_is_hermitian():
    config = gue_config(2, 50, 1)
    mats = sample(config)[0]
    z1, z2 = gens(2)
    p, q = z1 * z2, z2 * z1
    assert empirical_inner(p, q, mats) == pytest.approx(
        np.conj(empirical_inner(q, p, mats))
    )


def test_opnorm_estimate_of_gue():
    # semicircle support is [-2, 2]; finite-N estimate lands nearby
    value = opnorm_estimate(NcPoly.gen(1, 1), gue_config(1, 400, 3))
    assert 1.8 < value < 2.3


# -- kernel traciality -------------------------------------------------------------


def test_kernel_traciality_jordan_block():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert kernel_traciality(x) == {"dim_ker": 1, "dim_ker_star": 1}


def test_kernel_traciality_random_singular(rng):
    nprng = np.random.default_rng(5)
    for _ in range(20):
        size = rng.randint(2, 6)
        rank = rng.randint(0, size - 1)
        a = nprng.standard_normal((size, rank)) + 1j * nprng.standard_normal(
            (size, rank)
        )
        b = nprng.standard_normal((rank, size)) + 1j * nprng.standard_normal(
            (rank, size)
        )
        out = kernel_traciality(a @ b if rank else np.zeros((size, size)))
        assert out["dim_ker"] == out["dim_ker_star"] >= size - rank


def test_kernel_traciality_rejects_rectangular():
    with pytest.raises(EvaluationError):
        kernel_traciality(np.zeros((2, 3)))


# -- atom detection -----------------------------------------------------------------


def test_max_window_mass_uniform():
    ev = np.linspace(0.0, 1.0, 1001)
    assert max_window_mass(ev, 0.1) == pytest.approx(101 / 1001)


def test_max_window_mass_counts_every_window_with_ties():
    nprng = np.random.default_rng(2)
    # rounding makes runs of equal eigenvalues, so windows start inside ties
    ev = np.round(nprng.normal(size=500), 1)
    width = 0.25
    best = max(int(np.sum((ev >= x) & (ev <= x + width))) for x in ev)
    assert max_window_mass(ev, width) == best / len(ev)


def test_atom_scan_finds_a_planted_atom():
    nprng = np.random.default_rng(0)
    bulk = nprng.uniform(-2, 2, size=7000)
    atom = np.full(3000, 0.5)
    found = atom_scan(np.concatenate([bulk, atom]))
    assert found
    location, mass = found[0]
    assert abs(location - 0.5) < 0.05
    assert abs(mass - 0.3) < 0.05


def test_atom_scan_on_atomless_sample():
    nprng = np.random.default_rng(1)
    found = atom_scan(nprng.uniform(-1, 1, size=20000))
    # bulk windows hold only O(width) mass; nothing should clear the floor by much
    assert all(mass < 0.05 for _, mass in found)


def test_atom_scan_matches_the_greedy_oracle():
    nprng = np.random.default_rng(3)
    samples = []
    for _ in range(50):
        size = int(nprng.integers(1, 3000))
        # rounding makes runs of equal eigenvalues, so counts tie
        samples.append(np.round(nprng.normal(size=size), int(nprng.integers(0, 3))))
        samples.append(nprng.uniform(-2, 2, size=size))
        atoms = nprng.choice([-1.0, 0.25, 1.5], size=int(nprng.integers(1, 4)))
        planted = [np.full(int(nprng.integers(1, size + 1)), a) for a in atoms]
        samples.append(np.concatenate([nprng.uniform(-2, 2, size=size), *planted]))
    for ev in samples:
        scale = float(nprng.choice([0.5, 4.0, 20.0]))
        assert atom_scan(ev, window_scale=scale) == greedy_atom_scan_oracle(ev, scale)
        floor = float(nprng.uniform(0.0, 0.2))
        assert atom_scan(ev, scale, floor) == greedy_atom_scan_oracle(ev, scale, floor)


def test_evaluate_matches_identity_start_products():
    nprng = np.random.default_rng(4)
    config = gue_config(3, 12, 4, seed=5)
    for mats in sample(config):
        # a constant term, and words that share prefixes with each other
        stem = tuple(int(x) for x in nprng.integers(1, 4, size=3))
        words = [(), stem[:1], stem[:2], stem, stem + (1,), stem + (2, 3), stem[:2] + (3,)]
        words += [tuple(int(x) for x in nprng.integers(1, 4, size=k)) for k in range(6)]
        nprng.shuffle(words)
        coeffs = nprng.integers(-4, 5, size=(len(words), 2))
        terms = {}
        for word, (re, im) in zip(words, coeffs):
            terms[word] = terms.get(word, 0) + Scalar(int(re), int(im))
        p = NcPoly(3, terms)
        assert np.array_equal(p.evaluate(mats), identity_start_evaluate_oracle(p, mats))


def dense_pooled_eigenvalues(p, config):
    pooled = [np.linalg.eigvalsh(p.evaluate(mats)) for mats in sample(config)]
    return np.sort(np.concatenate(pooled))


def test_diagonal_spectrum_equals_dense_eigvalsh():
    z1, z2, z3 = gens(3)
    polys = [
        z1,
        z1 * z2 + z2 * z1 - 3 * z3,
        z1 * z2 * z3 + z3 * z2 * z1 + 2,
        z2 * z2 * z3 * z2 * z2 - z1 + Scalar(0, 1) * (z1 * z3 - z3 * z1),
    ]
    ensembles = [
        (DiagonalRademacher(), DiagonalFromMoments((0.5, 0.5, 0.5, 0.5)),
         DiagonalRademacher()),
        # masses 2/3, 1/3 at -1, 2; and 1/4, 1/2, 1/4 at -1, 1/2, 3
        (DiagonalFromMoments((0.0, 2.0, 2.0, 6.0)), DiagonalRademacher(),
         DiagonalFromMoments((0.75, 2.625, 6.5625, 20.53125, 60.515625, 182.5078125))),
        # a GUE tag sends the whole ensemble down the dense path
        (DiagonalRademacher(), GUE(), DiagonalFromMoments((0.5, 0.5, 0.5, 0.5))),
    ]
    for seed, tags in enumerate(ensembles):
        config = EnsembleConfig(3, 40, tags, 3, seed)
        for p in polys:
            report = spectrum(p, config)
            assert np.array_equal(report.eigenvalues, dense_pooled_eigenvalues(p, config))


def test_spectrum_of_rademacher_square():
    config = EnsembleConfig(1, 200, (DiagonalRademacher(),), 5, 13)
    z = NcPoly.gen(1, 1)
    report = spectrum(z, config)
    atoms = sorted(report.atom_estimate)
    assert len(atoms) == 2
    (loc_minus, mass_minus), (loc_plus, mass_plus) = atoms
    assert abs(loc_minus + 1.0) < 0.01 and abs(loc_plus - 1.0) < 0.01
    assert abs(mass_minus - 0.5) < 0.05 and abs(mass_plus - 0.5) < 0.05
    assert report.max_window_mass > 0.45


def test_spectrum_requires_self_adjoint():
    z1, z2 = gens(2)
    with pytest.raises(ValueError):
        spectrum(z1 * z2, gue_config(2, 10, 1))


def test_spectrum_report_serializes():
    report = spectrum(NcPoly.gen(1, 1), gue_config(1, 30, 2), bins=10)
    data = report.to_dict()
    assert len(data["histogram"]["counts"]) == 10
    assert data["config"]["rng"] == "numpy-pcg64"
    rows = report.eigenvalue_rows()
    assert rows[0] == ["eigenvalue"]
    assert len(rows) == 61


# -- inequality margins ----------------------------------------------------------------


def test_empirical_margins_for_semicircular():
    spec = DistributionSpec.standard_semicircular(2)
    cand = ConjugateCandidate(gens(2), spec)
    z1, z2 = gens(2)
    config = gue_config(2, 200, 2)
    report = empirical_margins(cand, 1, z1 * z2 + z2, config, q=z2)
    assert report.q_opnorm is not None
    for margin in report.all_margins():
        assert margin > -0.05
    data = report.to_dict()
    assert set(data["margins"]) == {
        "adjoint_left",
        "adjoint_right",
        "partial_left",
        "partial_right",
        "dstar_tensor",
        "twisted_partial",
    }


def test_unit_polynomial_margin_is_tight():
    spec = DistributionSpec.standard_semicircular(1)
    cand = ConjugateCandidate(gens(1), spec)
    config = gue_config(1, 100, 1)
    report = empirical_margins(cand, 1, NcPoly.one(1), config)
    # dstar(1 (x) 1) = xi, so the left bound is exactly tight: margin 0
    assert abs(report.margin_adjoint_left) < 1e-9
    assert abs(report.margin_adjoint_right) < 1e-9
