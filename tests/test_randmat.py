import dataclasses
import itertools
import random
import weakref

import numpy as np
import pytest

from ncfree import (
    ConjugateCandidate,
    DistributionSpec,
    EnsembleConfig,
    NcPoly,
    TraceFunctional,
)
from ncfree.conjugate import MarginsReport, norm_margins
from ncfree.errors import EvaluationError, IndexOutOfRange
from ncfree.randmat import (
    GUE,
    DiagonalFromMoments,
    DiagonalRademacher,
    atom_scan,
    empirical_margins,
    empirical_trace,
    kernel_traciality,
    max_window_mass,
    opnorm_estimate,
    quadrature_from_moments,
    sample,
    spectrum,
)
from ncfree.randmat import _diagonal_table, _draw, _spectral_norm
from ncfree.scalars import Scalar
from ncfree.sweeps import rand_poly

from conftest import gens, run_python
from oracles import (
    diagonal_draw_oracle,
    greedy_atom_scan_oracle,
    gue_draw_oracle,
    identity_start_evaluate_oracle,
)


def gue_config(n, dim, samples, seed=7):
    return EnsembleConfig(n, dim, (GUE(),) * n, samples, seed)


# -- sampling ---------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_gue_draw_is_the_complex_formula_bit_for_bit(dim):
    for variance in (0.0, 0.5, 1.0, 2.0, 3.7):
        for seed in range(3):
            drawn = _draw(GUE(variance), None, dim, np.random.default_rng(seed))
            expected = gue_draw_oracle(variance, dim, np.random.default_rng(seed))
            assert drawn.dtype == expected.dtype
            assert drawn.tobytes() == expected.tobytes(), (variance, seed)


@pytest.mark.parametrize("dim", [1, 2, 7, 100])
@pytest.mark.parametrize(
    "tag",
    [
        DiagonalRademacher(),
        DiagonalFromMoments((0.0, 2.0, 2.0, 6.0)),
        DiagonalFromMoments((0.75, 2.625, 6.5625, 20.53125, 60.515625, 182.5078125)),
        DiagonalFromMoments((2.0, 4.0, 8.0, 16.0)),
    ],
    ids=["rademacher", "two-atoms", "three-atoms", "dirac"],
)
def test_diagonal_draw_is_choice_bit_for_bit(tag, dim):
    if isinstance(tag, DiagonalRademacher):
        values, weights = [-1.0, 1.0], None
    else:
        values, weights = quadrature_from_moments(tag.moments)
    table = _diagonal_table(tag)
    for seed in range(5):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # twice from one stream: each draw also leaves the stream where choice does
        for _ in range(2):
            drawn = _draw(tag, table, dim, rng)
            expected = diagonal_draw_oracle(values, weights, dim, oracle_rng)
            assert drawn.dtype == expected.dtype
            assert drawn.tobytes() == expected.tobytes(), seed


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


@pytest.mark.parametrize(
    "moments, nodes, weights",
    [
        ((0.0, 1.0, 0.0, 1.0), [-1.0, 1.0], [0.5, 0.5]),
        ((0.5, 0.5, 0.5, 0.5), [0.0, 1.0], [0.5, 0.5]),
        ((0.0, 2.0, 2.0, 6.0), [-1.0, 2.0], [2 / 3, 1 / 3]),
        ((0.75, 2.625, 6.5625, 20.53125, 60.515625, 182.5078125),
         [-1.0, 0.5, 3.0], [0.25, 0.5, 0.25]),
        ((1.0, 1.0, 1.0, 1.0), [1.0], [1.0]),
        # decimal moments: as floats, h_k (and below k, h_j = 0) holds only
        # up to rounding, and can come out slightly negative
        ((0.1, 0.01), [0.1], [1.0]),
        ((0.2, 0.05, 0.014, 0.0041), [0.1, 0.3], [0.5, 0.5]),
        ((0.1, 0.01, 0.001, 0.0001), [0.1], [1.0]),
    ],
    ids=[
        "bernoulli", "zero-one", "unequal-weights", "three-atoms", "dirac",
        "decimal-dirac", "decimal-two-atoms", "decimal-dirac-four-moments",
    ],
)
def test_quadrature_recovers_bernoulli(moments, nodes, weights):
    got_nodes, got_weights = quadrature_from_moments(moments)
    np.testing.assert_allclose(got_nodes, nodes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_weights, weights, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "moments, message",
    [
        # h_k reads m_2k, which only the reproduction check judges
        ((0.0, -1.0), "not realized by any 1-point measure"),
        ((0.0, 1.0), "not realized by any 1-point measure"),
        ((1.0, 1.0, 1.0, 2.0), "not realized by any 1-point measure"),
        ((0.0, 1.0, 0.0, 0.5), "not realized by any 2-point measure"),
        ((0.0, -1.0, 0.0, 1.0), "not positive"),
    ],
    ids=[
        "negative-variance", "not-one-point", "dirac-then-m4", "negative-h2",
        "negative-h1-below-k",
    ],
)
def test_quadrature_rejects_non_measures(moments, message):
    with pytest.raises(ValueError, match=message):
        quadrature_from_moments(moments)


def test_diagonal_from_moments_matches_its_moments():
    config = EnsembleConfig(
        1, 4000, (DiagonalFromMoments((0.5, 0.5, 0.5, 0.5)),), 1, 11
    )
    # the diagonal path of spectrum: its eigenvalues are the drawn entries
    x = spectrum(NcPoly.gen(1, 1), config).eigenvalues
    assert abs(np.mean(x) - 0.5) < 0.05
    assert abs(np.mean(x ** 2) - 0.5) < 0.05


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


def test_both_window_scans_refuse_an_empty_sample():
    for scan in (lambda ev: max_window_mass(ev, 0.1), atom_scan):
        with pytest.raises(ValueError, match="^empty eigenvalue sample$"):
            scan(np.array([]))


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
            # one window scan gives both figures that the two functions give
            assert report.atom_estimate == tuple(atom_scan(report.eigenvalues))
            assert report.max_window_mass == max_window_mass(
                report.eigenvalues, report.window_width
            )


@pytest.mark.parametrize("samples", [1, 5])
@pytest.mark.parametrize(
    "tags",
    [
        (GUE(), GUE()),
        (GUE(2.5), GUE(0.3)),
        (GUE(), DiagonalFromMoments((0.0, 2.0, 2.0, 6.0))),
    ],
    ids=["gue", "gue-variances", "gue-diagonal-moments"],
)
def test_streamed_spectrum_equals_the_pooled_sample(tags, samples):
    z1, z2 = gens(2)
    config = EnsembleConfig(2, 24, tags, samples, 17)
    for p in (z1 * z2 + z2 * z1, z1 * z1 * z2 * z1 * z1 - 2 * z2 + 1):
        report = spectrum(p, config)
        assert report.eigenvalues.tobytes() == dense_pooled_eigenvalues(p, config).tobytes()


def test_streamed_opnorm_equals_the_max_over_the_sample():
    z1, z2 = gens(2)
    config = EnsembleConfig(2, 24, (GUE(), DiagonalRademacher()), 5, 19)
    for p in (z1 * z2, z1 * z2 * z1 - 3 * z2 + Scalar(0, 1)):
        expected = max(
            float(np.linalg.svd(p.evaluate(mats), compute_uv=False)[0])
            for mats in sample(config)
        )
        assert opnorm_estimate(p, config) == expected


@pytest.fixture
def live_draws(monkeypatch):
    """Per call of `_draw`, the sample indices of the draws alive just after it.

    Each drawn array is watched with weakref.finalize, so the list shows
    which tuples a consumer still holds whenever it draws.
    """
    calls = itertools.count()
    alive: dict[object, int] = {}  # token -> sample index of a live draw
    seen: list[set[int]] = []

    def watched_draw(tag, quadrature, dim, rng):
        drawn = _draw(tag, quadrature, dim, rng)
        token = object()
        alive[token] = next(calls) // 2  # two tags per tuple
        weakref.finalize(drawn, alive.pop, token)
        seen.append(set(alive.values()))
        return drawn

    monkeypatch.setattr("ncfree.randmat._draw", watched_draw)
    return seen


@pytest.mark.parametrize(
    "consume", [spectrum, opnorm_estimate], ids=["spectrum", "opnorm_estimate"]
)
def test_streamed_consumers_hold_one_tuple(live_draws, consume):
    z1, z2 = gens(2)
    config = EnsembleConfig(2, 8, (GUE(), GUE()), 6, 23)
    consume(z1 * z2 + z2 * z1, config)
    # while a tuple is drawn, no earlier tuple is alive
    assert live_draws == [{call // 2} for call in range(12)]


def test_streamed_spectrum_memory_is_one_tuple():
    # 40 GUE pairs at dim 300 are 115 MB; streamed, the peak is one pair
    # (ru_maxrss is in KiB on Linux)
    script = (
        "import resource\n"
        "from ncfree import EnsembleConfig, NcPoly\n"
        "from ncfree.randmat import GUE, spectrum\n"
        "z1, z2 = NcPoly.gen(2, 1), NcPoly.gen(2, 2)\n"
        "p = z1 * z2 + z2 * z1\n"
        "spectrum(p, EnsembleConfig(2, 300, (GUE(), GUE()), 1, 5))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "spectrum(p, EnsembleConfig(2, 300, (GUE(), GUE()), 40, 5))\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) / 1024)\n"
    )
    done = run_python(script)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 40.0


def test_quadrature_is_solved_once_per_tag(monkeypatch):
    solved = []

    def counting_quadrature(moments):
        solved.append(tuple(moments))
        return quadrature_from_moments(moments)

    monkeypatch.setattr("ncfree.randmat.quadrature_from_moments", counting_quadrature)
    first = DiagonalFromMoments((0.0, 2.0, 2.0, 6.0))
    last = DiagonalFromMoments((0.5, 0.5, 0.5, 0.5))
    config = EnsembleConfig(3, 20, (first, DiagonalRademacher(), last), 64, 5)
    report = spectrum(NcPoly.gen(3, 3), config)
    assert solved == [first.moments, last.moments]
    # the same per-index streams, with the quadrature solved for every draw
    pooled = []
    for index in range(64):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(5, spawn_key=(index,)))
        )
        for tag in config.ensembles:
            if tag == DiagonalRademacher():
                draw = rng.choice([-1.0, 1.0], size=20)
            else:
                nodes, weights = quadrature_from_moments(tag.moments)
                draw = rng.choice(nodes, size=20, p=weights)
        pooled.append(draw)
    assert report.eigenvalues.tobytes() == np.sort(np.concatenate(pooled)).tobytes()


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


def test_spectrum_of_a_constant_without_generators():
    # no letters to take the shape from: it comes from the config
    config = EnsembleConfig(0, 5, (), 4, 2)
    report = spectrum(3 * NcPoly.one(0), config)
    assert report.eigenvalues.tolist() == [3.0] * 20
    assert report.atom_estimate == ((3.0, 1.0),)
    assert report.max_window_mass == 1.0


def test_spectrum_requires_self_adjoint():
    z1, z2 = gens(2)
    with pytest.raises(ValueError):
        spectrum(z1 * z2, gue_config(2, 10, 1))


def test_spectrum_report_serializes():
    report = spectrum(NcPoly.gen(1, 1), gue_config(1, 30, 2))
    data = report.to_dict()
    assert len(data["histogram"]["counts"]) == 100
    assert len(data["histogram"]["bin_edges"]) == 101
    assert data["config"]["rng"] == "numpy-pcg64"
    rows = report.eigenvalue_rows()
    assert rows[0] == ["eigenvalue"]
    assert len(rows) == 61


# -- inequality margins ----------------------------------------------------------------


def test_empirical_margins_for_semicircular():
    spec = DistributionSpec.standard_semicircular(2)
    cand = ConjugateCandidate(gens(2), TraceFunctional(spec))
    z1, z2 = gens(2)
    config = gue_config(2, 200, 2)
    report = empirical_margins(cand, 1, z1 * z2 + z2, sample(config), q=z2)
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


def test_empirical_margins_are_norm_margins_at_the_measured_norms():
    spec = DistributionSpec.standard_semicircular(2)
    cand = ConjugateCandidate(gens(2), TraceFunctional(spec))
    config = gue_config(2, 30, 3)
    rng = random.Random(15)
    for _ in range(6):
        p = rand_poly(rng, 2, 3)
        q = rand_poly(rng, 2, 2)
        j = rng.randint(1, 2)
        measured = empirical_margins(cand, j, p, sample(config), q=q)
        given = norm_margins(
            cand, j, p, opnorm_estimate(p, config), q, opnorm_estimate(q, config)
        )
        assert isinstance(measured, MarginsReport)
        for field in dataclasses.fields(MarginsReport):
            assert getattr(measured, field.name) == getattr(given, field.name), field.name


def test_empirical_margins_checks_before_it_measures(monkeypatch):
    norms = []

    def counting_norm(a):
        norms.append(a)
        return _spectral_norm(a)

    monkeypatch.setattr("ncfree.randmat._spectral_norm", counting_norm)
    cand = ConjugateCandidate(gens(2), TraceFunctional(DistributionSpec.standard_semicircular(2)))
    z1, z2 = gens(2)
    with pytest.raises(IndexOutOfRange, match="^derivative index 3 outside 1..2$"):
        empirical_margins(cand, 3, z1 * z2, sample(gue_config(2, 20, 5)))
    with pytest.raises(EvaluationError, match="^expected 2 matrices, got 3$"):
        empirical_margins(cand, 1, z1 * z2, sample(gue_config(3, 20, 5)))
    assert norms == []
    # a q with the wrong matrix count fails once p is measured
    with pytest.raises(EvaluationError, match="^expected 3 matrices, got 2$"):
        empirical_margins(cand, 1, z1 * z2, sample(gue_config(2, 20, 5)), q=NcPoly.gen(3, 1))


def test_unit_polynomial_margin_is_tight():
    spec = DistributionSpec.standard_semicircular(1)
    cand = ConjugateCandidate(gens(1), TraceFunctional(spec))
    config = gue_config(1, 100, 1)
    report = empirical_margins(cand, 1, NcPoly.one(1), sample(config))
    # dstar(1 (x) 1) = xi, so the left bound is exactly tight: margin 0
    assert abs(report.margin_adjoint_left) < 1e-9
    assert abs(report.margin_adjoint_right) < 1e-9
