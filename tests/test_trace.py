import math
import random
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest

import ncfree
from ncfree import (
    ConjugateCandidate,
    DistributionSpec,
    NcPoly,
    TensorPoly2,
    TraceFunctional,
    check_conjugate,
)
from ncfree.errors import DegreeBoundExceeded, NonPositiveMoments, UnknownMoment
from ncfree.scalars import Scalar
from ncfree.sweeps import rand_poly
from ncfree.trace import (
    ExplicitMoments,
    FreeFamily,
    SemicircularFamily,
    check_nonnegative,
    free_cumulants,
    least_rotation,
)

from conftest import bernoulli_spec, gens, run_python
from oracles import (
    free_moment_oracle,
    moments_from_cumulants_oracle,
    semicircular_moment_oracle,
)


# -- semicircular moments -----------------------------------------------------


def test_catalan_moments(semi1):
    trace = TraceFunctional(semi1)
    # frozen oracle values: the even moments of a standard semicircular
    # variable are the Catalan numbers 1, 2, 5, 14
    assert trace.moment((1, 1)) == Scalar(1)
    assert trace.moment((1,) * 4) == Scalar(2)
    assert trace.moment((1,) * 6) == Scalar(5)
    assert trace.moment((1,) * 8) == Scalar(14)
    assert trace.moment((1,) * 3) == Scalar(0)


def test_mixed_moments(trace2):
    assert trace2.moment((1, 2)) == Scalar(0)
    assert trace2.moment((1, 1, 2, 2)) == Scalar(1)
    assert trace2.moment((1, 2, 1, 2)) == Scalar(0)  # crossing pairing only
    assert trace2.moment((1, 2, 2, 1)) == Scalar(1)
    assert trace2.moment(()) == Scalar(1)


def test_semicircular_matches_pairing_oracle():
    variances = (Fraction(1), Fraction(2), Fraction(1, 2))
    trace = TraceFunctional(DistributionSpec(3, SemicircularFamily(variances)))
    for k in range(7):
        for word in product((1, 2, 3), repeat=k):
            expected = semicircular_moment_oracle(word, variances)
            assert trace.moment(word) == Scalar(expected), word


def test_semicircular_long_single_letter_words_match_oracle(semi1):
    trace = TraceFunctional(semi1)
    for k in (8, 10):
        expected = semicircular_moment_oracle((1,) * k, (Fraction(1),))
        assert trace.moment((1,) * k) == Scalar(expected)


# -- free cumulants -----------------------------------------------------------


def test_semicircular_cumulants():
    # standard semicircular: kappa_2 = 1, all others 0
    assert free_cumulants([0, 1, 0, 2, 0, 5]) == [0, 1, 0, 0, 0, 0]


def test_bernoulli_cumulants():
    assert free_cumulants([0, 1, 0, 1]) == [0, 1, 0, -1]


def test_point_mass_cumulants():
    # constant variable c: kappa_1 = c, the rest vanish
    assert free_cumulants([3, 9, 27, 81]) == [3, 0, 0, 0]


def test_cumulants_invert_the_oracle(rng):
    for _ in range(15):
        kappa = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
        moments = [moments_from_cumulants_oracle(k, kappa) for k in range(1, 6)]
        assert free_cumulants(moments) == kappa
    # rational cumulants, to depth 8
    kappa = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)]
    moments = [moments_from_cumulants_oracle(k, kappa) for k in range(1, 9)]
    assert free_cumulants(moments) == kappa


# -- free families -------------------------------------------------------------


def test_free_family_matches_partition_oracle():
    # generator 1: symmetric Bernoulli, generator 2: shifted semicircular
    moments = (
        (Fraction(0), Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(4), Fraction(9), Fraction(21), Fraction(51)),
    )
    trace = TraceFunctional(DistributionSpec(2, FreeFamily(moments)))
    cumulants = [free_cumulants(seq) for seq in moments]
    for k in range(7):
        for word in product((1, 2), repeat=k):
            expected = free_moment_oracle(word, cumulants)
            assert trace.moment(word) == Scalar(expected), word


def test_free_family_moments_are_rotation_invariant():
    # free Poisson of rate 1: every free cumulant is 1, the moments are Catalan
    catalan = (1, 2, 5, 14, 42, 132, 429, 1430)
    trace = TraceFunctional(DistributionSpec(2, FreeFamily((catalan, catalan))))
    cumulants = [[1] * 8, [1] * 8]
    for k in range(9):
        for word in product((1, 2), repeat=k):
            value = trace.moment(word)
            assert value == Scalar(free_moment_oracle(word, cumulants)), word
            for shift in range(1, k):
                assert trace.moment(word[shift:] + word[:shift]) == value, word


# -- the parity rule: a word odd in a symmetric letter is 0 -------------------------

#: Bernoulli +-1: odd cumulants 0, kappa_2k = (-1)^(k-1) Catalan(k-1)
BERNOULLI_MOMENTS = (0, 1) * 5
BERNOULLI_CUMULANTS = (0, 1, 0, -1, 0, 2, 0, -5, 0, 14)
#: free Poisson of rate 1: every cumulant is 1, so the law is not symmetric
POISSON_MOMENTS = (1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
POISSON_CUMULANTS = (1,) * 10


def parity_words(rng, odd_letter=None, count=16, max_len=8):
    """Random words over 1, 2: `count` of length <= max_len, then two of
    length 9 and 10.  With `odd_letter`, each word has an odd count of that
    letter and an even count of the other, so its length is odd."""
    words = []
    for length in [rng.randint(0, max_len) for _ in range(count)] + [9, 10]:
        if odd_letter is None:
            words.append(tuple(rng.randint(1, 2) for _ in range(length)))
            continue
        length = min(length | 1, 9)
        k = rng.randrange(1, length + 1, 2)
        word = [odd_letter] * k + [3 - odd_letter] * (length - k)
        rng.shuffle(word)
        words.append(tuple(word))
    return words


def test_parity_rule_matches_the_pairing_oracle(rng):
    variances = (Fraction(1), Fraction(3, 2))
    for odd_letter in (None, 1, 2):
        trace = TraceFunctional(DistributionSpec(2, SemicircularFamily(variances)))
        for word in parity_words(rng, odd_letter, count=30, max_len=10):
            expected = Scalar(semicircular_moment_oracle(word, variances))
            assert trace.moment(word) == expected, word


@pytest.mark.parametrize(
    "moments, cumulants",
    [
        ((BERNOULLI_MOMENTS, BERNOULLI_MOMENTS), (BERNOULLI_CUMULANTS, BERNOULLI_CUMULANTS)),
        ((POISSON_MOMENTS, POISSON_MOMENTS), (POISSON_CUMULANTS, POISSON_CUMULANTS)),
        ((BERNOULLI_MOMENTS, POISSON_MOMENTS), (BERNOULLI_CUMULANTS, POISSON_CUMULANTS)),
    ],
    ids=["bernoulli", "free-poisson", "bernoulli-and-free-poisson"],
)
def test_parity_rule_matches_the_partition_oracle(rng, moments, cumulants):
    trace = TraceFunctional(DistributionSpec(2, FreeFamily(moments)))
    words = parity_words(rng) + parity_words(rng, odd_letter=1, count=6)
    words += parity_words(rng, odd_letter=2, count=6)
    for word in words:
        expected = Scalar(free_moment_oracle(word, cumulants))
        assert trace.moment(word) == expected, word


def test_parity_rule_answers_before_the_recursion():
    mixed = FreeFamily((BERNOULLI_MOMENTS, POISSON_MOMENTS))
    for spec, word in [
        (DistributionSpec.standard_semicircular(2), (1, 2, 2, 1, 2)),
        (DistributionSpec(2, mixed), (2, 1, 2, 2, 1, 1, 2)),
        # the zero variable: every odd power is 0
        (DistributionSpec(2, FreeFamily(((0,) * 8, POISSON_MOMENTS[:8]))), (2, 1, 2)),
    ]:
        trace = TraceFunctional(spec)
        before = set(trace._memo)
        assert trace.moment(word) == Scalar(0)
        assert set(trace._memo) - before == {word}
    # a word odd in the free Poisson letter only is computed, and is not 0
    trace = TraceFunctional(DistributionSpec(2, mixed))
    before = len(trace._memo)
    assert trace.moment((2, 1, 2, 2, 1)) == Scalar(
        free_moment_oracle((2, 1, 2, 2, 1), (BERNOULLI_CUMULANTS, POISSON_CUMULANTS))
    )
    assert trace.moment((2, 1, 2, 2, 1)) != Scalar(0)
    assert len(trace._memo) > before + 1


def test_memo_holds_only_words_moment_accepts():
    # table deeper than the degree bound, free letters of unequal depth
    table = {(1,) * k: Scalar(0 if k % 2 else 1) for k in range(7)}
    for spec, bound in [
        (DistributionSpec(1, ExplicitMoments(table, 6)), 4),
        (DistributionSpec(2, FreeFamily((POISSON_MOMENTS, POISSON_MOMENTS[:4]))), 12),
    ]:
        trace = TraceFunctional(spec, degree_bound=bound)
        assert trace.max_word_length == 4
        assert max(len(word) for word in trace._memo) == 4
        with pytest.raises(DegreeBoundExceeded):
            trace.moment((1,) * 5)


# -- the moment memo shared by the functionals on one free family ------------


def count_calls(monkeypatch, name):
    """Count the calls of ncfree.trace.`name`, which still runs."""
    calls = []
    original = getattr(ncfree.trace, name)

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(ncfree.trace, name, counting)
    return calls


def test_functionals_on_one_free_family_share_one_memo(monkeypatch):
    spec = DistributionSpec(2, FreeFamily((BERNOULLI_MOMENTS, POISSON_MOMENTS)))
    first = TraceFunctional(spec)
    words = [word for k in range(7) for word in product((1, 2), repeat=k)]
    values = [first.moment(word) for word in words]
    known = dict(first._memo)
    recursions = count_calls(monkeypatch, "_nc_moment")
    # an equal spec, not the same object, and another bound past the depth 10
    second = TraceFunctional(DistributionSpec.from_dict(spec.to_dict()), degree_bound=20)
    assert second._memo is first._memo
    assert [second.moment(word) for word in words] == values
    assert recursions == []
    assert second._memo == known


def test_functionals_with_other_word_limits_keep_their_own_memos():
    spec = DistributionSpec.standard_semicircular(2)
    long, short = TraceFunctional(spec, degree_bound=8), TraceFunctional(spec, degree_bound=4)
    assert long._memo is not short._memo
    for word in [(1, 2) * 4, (1, 1, 2, 2) * 2]:
        assert long.moment(word) == Scalar(semicircular_moment_oracle(word, (1, 1)))
    assert short._memo == {(): Scalar(1)}
    for word in product((1, 2), repeat=4):
        short.moment(word)
    assert max(len(word) for word in short._memo) == 4
    with pytest.raises(DegreeBoundExceeded):
        short.moment((1,) * 5)


def test_equal_tables_never_share_a_memo():
    first, second = TraceFunctional(bernoulli_spec()), TraceFunctional(bernoulli_spec())
    assert first._memo is not second._memo
    first._memo[(1, 1)] = Scalar(5)
    assert first.moment((1, 1)) == Scalar(5)
    assert second.moment((1, 1)) == Scalar(1)


def test_shared_memos_are_bounded():
    bound = ncfree.trace.SHARED_DISTRIBUTIONS
    for variance in range(1, 2 * bound + 2):
        trace = TraceFunctional(DistributionSpec(1, SemicircularFamily((variance,))))
        assert trace.moment((1,) * 4) == Scalar(2 * variance**2)
        for cache in (ncfree.trace._shared_memo, ncfree.trace._spec_cumulants):
            assert cache.cache_info().currsize == min(variance, bound)
    # an evicted family starts again from a fresh memo
    trace = TraceFunctional(DistributionSpec(1, SemicircularFamily((1,))))
    assert trace._memo == {(): Scalar(1)}
    assert trace.moment((1,) * 4) == Scalar(2)


def test_left_sides_live_and_are_cleared_with_the_shared_memo():
    spec = DistributionSpec.standard_semicircular(2)
    cand = ConjugateCandidate(gens(2), spec)
    assert check_conjugate(cand, degree=5).passed
    memo = TraceFunctional(DistributionSpec.from_dict(spec.to_dict()))._memo
    assert memo is cand.trace._memo
    # (tau (x) tau)(d_1 (1 1 1)) = tau() tau(1 1) + tau(1 1) tau()
    assert memo.left_sides[1][(1, 1, 1)] == Scalar(2)
    # the test isolation fixture clears the memo, and the left sides with it
    ncfree.trace._shared_memo.cache_clear()
    fresh = TraceFunctional(spec)._memo
    assert fresh is not memo
    assert fresh == {(): Scalar(1)} and fresh.left_sides == {}


def test_cumulants_are_inverted_once_per_family_on_a_miss(monkeypatch):
    inversions = count_calls(monkeypatch, "free_cumulants")
    spec = DistributionSpec(2, FreeFamily((POISSON_MOMENTS, POISSON_MOMENTS[:6])))
    first = TraceFunctional(spec)
    for k in range(1, 7):
        first.moment((1,) * k)
        first.moment((2,) * k)
    assert inversions == []  # every one-letter word is a hit
    assert first.moment((1, 2)) == Scalar(1)
    assert len(inversions) == 2  # one inversion per letter
    # the same key, and a smaller bound with a memo of its own: no inversion
    for bound in (12, 4):
        trace = TraceFunctional(spec, degree_bound=bound)
        assert trace.moment((1, 2, 1, 2)) == first.moment((1, 2, 1, 2))
    assert len(inversions) == 2
    other = TraceFunctional(DistributionSpec(1, FreeFamily((POISSON_MOMENTS[:6],))))
    other.moment((1,) * 3)
    assert len(inversions) == 2
    assert TraceFunctional(spec).symmetric_letters == ()
    assert len(inversions) == 2


# -- cost and reach of the moment sum -----------------------------------------


def test_each_block_state_is_summed_once(monkeypatch):
    """Each subword is summed at most once, under its least rotation, and an
    inversion step sums only its own word: the cost follows the distinct
    subwords, not the ways to reach them."""
    sums = []
    original = ncfree.trace._block_sum

    def counting(key, a, b, *rest):
        value = original(key, a, b, *rest)  # a sum that meets a missing subword raises
        sums.append(least_rotation(key[a:b]))
        return value

    monkeypatch.setattr(ncfree.trace, "_block_sum", counting)
    catalan = [math.comb(2 * k, k) // (k + 1) for k in range(1, 33)]
    assert free_cumulants(catalan) == [1] * 32
    assert sums == [(1,) * k for k in range(1, 33)]
    word = (1, 1, 2, 2) * 2
    spec = DistributionSpec(2, FreeFamily((catalan[:24],) * 2))
    assert TraceFunctional(spec, degree_bound=24).moment(word) == Scalar(96)
    assert free_moment_oracle(word, ((1,) * 8,) * 2) == 96
    trace = TraceFunctional(DistributionSpec(2, FreeFamily((BERNOULLI_MOMENTS, POISSON_MOMENTS))))
    assert trace.symmetric_letters == (1,)  # each letter's inversion sums 1^k
    sums.clear()
    words = [word for length in range(9) for word in product((1, 2), repeat=length)]
    for word in words[::-1]:  # longest first: subwords meet rotations of stored ones
        trace.moment(word)
    # one sum per mixed necklace: the memo starts with the one-letter words,
    # and the Bernoulli letter is symmetric, so no odd subword is summed
    mixed = {least_rotation(w) for w in words if 1 in w and 2 in w and w.count(1) % 2 == 0}
    assert sorted(sums) == sorted(mixed)


def test_least_rotation_is_the_least_of_all_rotations():
    def by_rotations(word):
        return min(word[shift:] + word[:shift] for shift in range(len(word)))

    rng = random.Random(5)
    words = [
        tuple(rng.randint(1, n) for _ in range(rng.randint(1, 40)))
        for n in (1, 2, 3)
        for _ in range(300)
    ]
    for k in range(1, 25):
        words += [(1,) * k, (1, 2) * k, (1, 2, 2, 1) * k, (2, 1, 1, 2) * k, (2, 1) * k]
    for word in words:
        assert least_rotation(word) == by_rotations(word), word
    assert least_rotation(()) == ()


def test_a_400_letter_word_stays_within_the_recursion_limit():
    # the memo is filled bottom up, so the stack depth does not grow with the
    # word (test_long_words_need_no_recursion_depth)
    trace = TraceFunctional(DistributionSpec.standard_semicircular(2), degree_bound=400)
    assert trace.moment((1,) * 400) == Scalar(math.comb(400, 200) // 201)


LONG_WORDS_SCRIPT = """
import math, sys
from ncfree import DistributionSpec, TraceFunctional
from ncfree.trace import SemicircularFamily
if sys.argv[1] != "default":
    sys.setrecursionlimit(int(sys.argv[1]))  # after the imports, which need more
for variances, word in [
    ([1], (1,) * 300),
    ([1, 1], (1, 2, 2, 1) * 75),
    ([1, "1/2", 2], (1, 2, 3, 3, 2, 1) * 50),
]:
    spec = DistributionSpec(len(variances), SemicircularFamily(variances))
    print(TraceFunctional(spec, len(word)).moment(word))
print(math.comb(300, 150) // 151)
"""


def test_long_words_need_no_recursion_depth():
    # a new interpreter at a recursion limit of 100: the fill nests no call
    # per letter, so 300-letter words give what the default limit gives
    low, default = run_python(LONG_WORDS_SCRIPT, "100"), run_python(LONG_WORDS_SCRIPT, "default")
    assert low.returncode == 0, low.stderr
    assert default.returncode == 0, default.stderr
    lines = low.stdout.splitlines()
    assert lines == default.stdout.splitlines()
    assert lines[0] == lines[3]  # tau(1^300) = Catalan(150)


def test_threads_filling_one_memo_read_the_cold_values():
    spec = DistributionSpec(2, FreeFamily((BERNOULLI_MOMENTS, POISSON_MOMENTS)))
    words = [word for k in range(9) for word in product((1, 2), repeat=k)]
    cold = [TraceFunctional(spec).moment(word) for word in words]
    ncfree.trace._shared_memo.cache_clear()
    ncfree.trace._spec_cumulants.cache_clear()
    results: dict[int, list] = {}

    def run(index):
        order = sorted(range(len(words)), key=lambda i: (i * (2 * index + 3)) % 97)
        trace = TraceFunctional(spec)
        values = {i: trace.moment(words[i]) for i in order}
        results[index] = [values[i] for i in range(len(words))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(results) == [0, 1, 2, 3]
    assert all(values == cold for values in results.values())


def test_free_family_reproduces_its_own_moment_sequences():
    moments = ((Fraction(1), Fraction(3), Fraction(10)),)
    trace = TraceFunctional(DistributionSpec(1, FreeFamily(moments)))
    for k, m_k in enumerate(moments[0], start=1):
        assert trace.moment((1,) * k) == Scalar(m_k)


def test_free_family_depth_limit():
    trace = TraceFunctional(DistributionSpec(1, FreeFamily(((0, 1),))))
    assert trace.moment((1, 1)) == Scalar(1)
    with pytest.raises(DegreeBoundExceeded):
        trace.moment((1, 1, 1))


# -- explicit tables -------------------------------------------------------------


def test_explicit_table_lookup():
    trace = TraceFunctional(bernoulli_spec())
    assert trace.moment((1, 1)) == Scalar(1)
    assert trace.moment((1,)) == Scalar(0)
    with pytest.raises(DegreeBoundExceeded):
        trace.moment((1,) * 5)


def test_unknown_moment():
    spec = DistributionSpec(2, ExplicitMoments({(): Scalar(1), (1,): Scalar(0)}, 2))
    trace = TraceFunctional(spec)
    with pytest.raises(UnknownMoment):
        trace.moment((2,))


def explicit(n, degree, table):
    return DistributionSpec(n, ExplicitMoments(table, degree))


def test_explicit_table_rejects_out_of_range_letters():
    with pytest.raises(ValueError, match="outside 1..1"):
        explicit(1, 2, {(): 1, (3,): 5})
    with pytest.raises(ValueError, match="outside 1..2"):
        explicit(2, 2, {(): 1, (0, 1): 0})
    # a letter must be an integer, even one that lies between 1 and n
    with pytest.raises(ValueError, match="outside 1..2"):
        explicit(2, 2, {(): 1, (1.5,): 0})
    with pytest.raises(ValueError, match="outside 1..2"):
        explicit(2, 2, {(): 1, ("1",): 0})


def test_explicit_table_empty_word_must_be_one():
    # tau is a state: tau(1) = 1, and moment(()) must not disagree with the table
    with pytest.raises(ValueError, match=r"tau\(\) = 2, not 1"):
        explicit(1, 2, {(): 2, (1, 1): 1})
    assert TraceFunctional(explicit(1, 2, {(): 1, (1, 1): 1})).moment(()) == Scalar(1)


def test_explicit_table_rejects_words_beyond_its_degree():
    with pytest.raises(ValueError, match="longer than the table degree 2"):
        explicit(1, 2, {(): 1, (1, 1, 1): 0})


def test_explicit_table_must_be_tracial():
    with pytest.raises(ValueError, match="not tracial"):
        explicit(2, 2, {(): 1, (1,): 0, (2,): 0, (1, 1): 1, (2, 2): 1,
                        (1, 2): 1, (2, 1): 7})
    with pytest.raises(ValueError, match="not tracial"):
        explicit(2, 3, {(1, 1, 2): 1, (1, 2, 1): 2})
    # agreeing rotations are fine
    explicit(2, 3, {(): 1, (1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})


def test_explicit_table_must_respect_the_star():
    # tau(w*) = conj tau(w): the reversal carries the conjugate value
    with pytest.raises(ValueError, match="conj"):
        explicit(3, 3, {(1, 2, 3): Scalar(1, 1), (2, 1, 3): Scalar(1, 1)})
    explicit(3, 3, {(1, 2, 3): Scalar(1, 1), (2, 1, 3): Scalar(1, -1)})
    # so a palindrome must have a real moment
    with pytest.raises(ValueError, match="conj"):
        explicit(1, 2, {(): 1, (1, 1): Scalar(1, 2)})
    with pytest.raises(ValueError, match="conj"):
        explicit(1, 0, {(): Scalar(0, 1)})


def test_degree_bound_is_enforced(semi1):
    trace = TraceFunctional(semi1, degree_bound=4)
    assert trace.moment((1,) * 4) == Scalar(2)
    with pytest.raises(DegreeBoundExceeded):
        trace.moment((1,) * 5)


# -- linear extensions -------------------------------------------------------------


def test_trace_poly(trace2):
    z1, z2 = gens(2)
    assert trace2.trace_poly(z1 * z1 + 3 * z2 - 2) == Scalar(-1)


def test_trace_tensor(trace2):
    z1, z2 = gens(2)
    s = TensorPoly2.of(z1 * z1, z2 * z2) + TensorPoly2.of(z1, z2)
    assert trace2.trace_tensor(s) == Scalar(1)


def test_partial_trace_sides(trace2):
    z1, z2 = gens(2)
    s = TensorPoly2.of(z1 * z1, z2)
    assert trace2.partial_trace(s, side="left") == z2
    assert trace2.partial_trace(s, side="right") == NcPoly.zero(2)
    with pytest.raises(ValueError):
        trace2.partial_trace(s, side="middle")


def test_partial_traces_compose_to_full_trace(rng, trace2):
    for _ in range(15):
        s = TensorPoly2.of(rand_poly(rng, 2, 3), rand_poly(rng, 2, 3))
        left_then_right = trace2.trace_poly(trace2.partial_trace(s, side="left"))
        assert left_then_right == trace2.trace_tensor(s)


# -- inner products and norms ---------------------------------------------------


def test_inner_product_and_norm(trace2):
    z1, z2 = gens(2)
    assert trace2.inner(z1, z1) == Scalar(1)
    assert trace2.inner(z1, z2) == Scalar(0)
    assert trace2.inner(z1 * z2, z1 * z2) == Scalar(1)
    assert trace2.norm2(z1 + z2) == pytest.approx(2 ** 0.5)
    assert trace2.norm2_squared(2 * z1) == Fraction(4)


def test_inner_is_conjugate_symmetric(rng, trace2):
    for _ in range(15):
        p = rand_poly(rng, 2, 3)
        q = rand_poly(rng, 2, 3)
        assert trace2.inner(p, q) == trace2.inner(q, p).conjugate()


def test_non_positive_table_is_rejected():
    # m_2 = -1 cannot come from a probability distribution
    spec = DistributionSpec(
        1, ExplicitMoments({(): Scalar(1), (1,): Scalar(0), (1, 1): Scalar(-1)}, 2)
    )
    trace = TraceFunctional(spec)
    with pytest.raises(NonPositiveMoments):
        trace.inner(NcPoly.gen(1, 1), NcPoly.gen(1, 1))


def test_check_nonnegative_takes_zero_and_positive_reals_only():
    for value in (Scalar(0), Scalar(Fraction(1, 3))):
        assert check_nonnegative(value, "<p,p>") is value
    for value in (Scalar(-1), Scalar(0, 1), Scalar(2, -1), Scalar(Fraction(-1, 2), 1)):
        with pytest.raises(NonPositiveMoments) as info:
            check_nonnegative(value, "<p,p>")
        assert str(info.value) == (
            f"<p,p> = {value} is not a nonnegative real; the moment data is not positive"
        )


def test_opnorm_lower_is_nondecreasing(semi1):
    trace = TraceFunctional(semi1)
    z1 = NcPoly.gen(1, 1)
    values = [trace.opnorm_lower(z1, k) for k in (1, 2, 3)]
    assert values[0] <= values[1] <= values[2] <= 2.0 + 1e-12


# -- serialization -----------------------------------------------------------------


def test_spec_round_trips():
    specs = [
        DistributionSpec.standard_semicircular(3),
        DistributionSpec(2, FreeFamily(((0, 1, 0, 1), (1, 2, 4, 9)))),
        bernoulli_spec(),
    ]
    for spec in specs:
        assert DistributionSpec.from_dict(spec.to_dict()) == spec
