import math
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legval.arith import INF, PadicVal, Prime, UsageError, vp_rat
from legval.predictors import (
    PredictionContext,
    predict_b_conjecture1,
    predict_b_conjecture1_range,
    predict_by_recurrence,
    predict_by_recurrence_range,
    predict_cube_sum_v3,
    predict_strauss_shallit,
    predict_vp_Q,
    predict_vp_cigler,
    predict_vp_legendre_at_2,
    predict_vp_legendre_at_p_cases,
    predict_vp_legendre_at_p_digits,
    predict_vp_legendre_at_p_digits_range,
    predict_vp_legendre_general,
    predict_vp_legendre_general_oneline,
    recurrence_step,
)
from legval.sequences import (
    SequenceSpec,
    central_delannoy,
    cigler_eval,
    cube_sum_2k,
    eval_sequence,
    iter_sequence_valuations,
    legendre_eval_rodrigues,
    partial_sum_central_binomial,
)
from legval.verify import _BLOCK, CONJECTURE_IDS

GENERAL_CASES = [
    (Prime(3), Fraction(3)),
    (Prime(3), Fraction(9)),
    (Prime(3), Fraction(3, 1)),
    (Prime(3), Fraction(-3, 5)),
    (Prime(3), Fraction(9, 7)),
    (Prime(5), Fraction(5)),
    (Prime(5), Fraction(25, 3)),
    (Prime(7), Fraction(7, 5)),
    (Prime(2), Fraction(2)),
    (Prime(2), Fraction(4, 3)),
    (Prime(2), Fraction(-6)),
]


class TestContext:
    def test_accepts_valid(self):
        PredictionContext(Prime(3), Fraction(9, 5))

    def test_rejects_low_valuation(self):
        with pytest.raises(ValueError):
            PredictionContext(Prime(3), Fraction(1, 3))
        with pytest.raises(ValueError):
            PredictionContext(Prime(5), Fraction(7))

    def test_zero_point_allowed(self):
        # vp(0) = +inf satisfies the hypothesis.
        ctx = PredictionContext(Prime(3), Fraction(0))
        assert predict_vp_legendre_general(ctx, 1).is_infinite  # P_1(0) = 0
        for ctx in (ctx, PredictionContext(Prime(2), Fraction(0))):
            for n in (1, 3, 27):  # P_n(0) = Q_n(0) = 0 at odd n
                assert predict_vp_legendre_general(ctx, n) is INF
                assert predict_vp_legendre_general_oneline(ctx, n) is INF
                assert predict_vp_Q(ctx, n) is INF


class TestGeneralPredictor:
    def test_examples(self):
        assert predict_vp_legendre_general(PredictionContext(Prime(3), Fraction(9)), 3) == 3
        assert predict_vp_legendre_general(PredictionContext(Prime(3), Fraction(3)), 0) == 0
        assert predict_vp_legendre_general(PredictionContext(Prime(2), Fraction(2)), 2) == -1

    def test_oneline_examples(self):
        assert predict_vp_legendre_general_oneline(PredictionContext(Prime(3), Fraction(3)), 1) == 1
        assert predict_vp_legendre_general_oneline(PredictionContext(Prime(2), Fraction(2)), 1) == 1
        assert predict_vp_legendre_general_oneline(PredictionContext(Prime(5), Fraction(5)), 4) == 0

    @pytest.mark.parametrize("p,r", GENERAL_CASES)
    def test_against_exact_oracle(self, p, r):
        ctx = PredictionContext(p, r)
        for n in range(0, 120):
            actual = vp_rat(p, legendre_eval_rodrigues(n, r))
            assert predict_vp_legendre_general(ctx, n) == actual, (p, r, n)

    @pytest.mark.parametrize("p,r", GENERAL_CASES)
    def test_oneline_matches_cases(self, p, r):
        ctx = PredictionContext(p, r)
        for n in range(0, 300):
            assert predict_vp_legendre_general(ctx, n) == predict_vp_legendre_general_oneline(ctx, n)


class TestAtPPredictors:
    def test_examples(self):
        assert predict_vp_legendre_at_p_cases(Prime(3), 2) == 0
        assert predict_vp_legendre_at_p_cases(Prime(3), 3) == 2
        assert predict_vp_legendre_at_p_cases(Prime(3), 0) == 0
        assert predict_vp_legendre_at_p_digits(Prime(3), 3) == 2
        assert predict_vp_legendre_at_p_digits(Prime(3), 4) == 1
        assert predict_vp_legendre_at_p_digits(Prime(7), 0) == 0

    def test_rejects_p_equal_2(self):
        with pytest.raises(ValueError):
            predict_vp_legendre_at_p_cases(Prime(2), 4)
        with pytest.raises(ValueError):
            predict_vp_legendre_at_p_digits(Prime(2), 4)
        with pytest.raises(ValueError):
            predict_vp_cigler(Prime(2), 4)

    @pytest.mark.parametrize("p", [Prime(3), Prime(5), Prime(7)])
    def test_three_predictors_and_oracle(self, p):
        for n in range(0, 200):
            cases = predict_vp_legendre_at_p_cases(p, n)
            digits = predict_vp_legendre_at_p_digits(p, n)
            rec = predict_by_recurrence(p, n)
            actual = vp_rat(p, legendre_eval_rodrigues(n, Fraction(p)))
            assert cases == digits == rec == actual, (p, n)

    @pytest.mark.parametrize("p", [Prime(3), Prime(5)])
    def test_specializes_general(self, p):
        ctx = PredictionContext(p, Fraction(p))
        for n in range(0, 250):
            assert predict_vp_legendre_general(ctx, n) == predict_vp_legendre_at_p_cases(p, n)

    def test_prefix_batch_matches_pointwise(self):
        for p in (Prime(3), Prime(5)):
            batch = predict_vp_legendre_at_p_digits_range(p, 0, 600)
            assert batch == [predict_vp_legendre_at_p_digits(p, n) for n in range(600)]

    @settings(deadline=None, max_examples=40)
    @given(p=st.sampled_from((3, 5, 7, 11)), lo=st.integers(0, 10**40) | st.integers(0, 10**5),
           length=st.integers(0, 9000))
    @example(p=3, lo=6561, length=6562)  # odd length from an odd start past one digit-sum block
    @example(p=5, lo=7, length=0)
    def test_range_batch_matches_pointwise(self, p, lo, length):
        # the batch starts at the even a = lo - lo % 2, where n and n + 1 share n // 2
        batch = predict_vp_legendre_at_p_digits_range(Prime(p), lo, lo + length)
        assert batch == [predict_vp_legendre_at_p_digits(Prime(p), n) for n in range(lo, lo + length)]

    def test_range_rejects_bad_bounds(self):
        for lo, hi in ((-1, 3), (5, 4), (6, 4)):
            with pytest.raises(ValueError, match="bad index range"):
                predict_vp_legendre_at_p_digits_range(Prime(3), lo, hi)


class TestAt2Predictor:
    def test_examples(self):
        assert predict_vp_legendre_at_2(0) == 0
        assert predict_vp_legendre_at_2(1) == 1
        assert predict_vp_legendre_at_2(2) == -1

    def test_against_exact_oracle(self):
        for n in range(0, 200):
            assert predict_vp_legendre_at_2(n) == vp_rat(Prime(2), legendre_eval_rodrigues(n, 2))

    def test_specializes_general(self):
        ctx = PredictionContext(Prime(2), Fraction(2))
        for n in range(0, 250):
            assert predict_vp_legendre_general(ctx, n) == predict_vp_legendre_at_2(n)


class TestRecurrence:
    def test_step_examples(self):
        assert recurrence_step(Prime(3), PadicVal(0), 2, 1) == 1
        assert recurrence_step(Prime(5), PadicVal(0), 0, 0) == 0
        assert recurrence_step(Prime(3), PadicVal(1), 1, 0) == 2

    def test_step_validation(self):
        with pytest.raises(ValueError):
            recurrence_step(Prime(3), PadicVal(0), 1, 3)
        with pytest.raises(ValueError):
            recurrence_step(Prime(3), PadicVal(0), 1, -1)
        for infinite in (INF, math.inf):
            with pytest.raises(ValueError, match="infinite"):
                recurrence_step(Prime(3), infinite, 1, 0)

    def test_step_takes_and_returns_plain_ints(self):
        got = recurrence_step(Prime(3), 1, 1, 0)
        assert type(got) is int and got == 2
        # the valuation at 0 as a stream yields it, a plain int
        f_0 = next(iter_sequence_valuations(SequenceSpec.legendre(3), Prime(3), 1))
        assert recurrence_step(Prime(3), f_0, 0, 1) == 1

    def test_step_against_oracle(self):
        p = Prime(3)
        f = {n: vp_rat(p, Fraction(central_delannoy(n))) for n in range(0, 160)}
        for n in range(0, 50):
            for a in range(3):
                assert recurrence_step(p, f[n], n, a) == f[3 * n + a], (n, a)

    def test_fold_examples(self):
        assert predict_by_recurrence(Prime(3), 7) == 1
        assert predict_by_recurrence(Prime(3), 0) == 0
        assert predict_by_recurrence(Prime(5), 13) == predict_vp_legendre_at_p_digits(Prime(5), 13)

    @pytest.mark.parametrize("p", [Prime(3), Prime(5), Prime(7), Prime(11)])
    def test_fold_matches_step_rule(self, p):
        def fold(n):  # recurrence_step on PadicVal, most significant digit first
            digits = []
            while n:
                n, a = divmod(n, p)
                digits.append(a)
            f, m = PadicVal(0), 0
            for a in reversed(digits):
                f, m = recurrence_step(p, f, m, a), m * p + a
            return f

        folded = [PadicVal(0)]  # the same fold for every n < p**5, one step per n from n // p
        for n in range(1, p**5):
            folded.append(recurrence_step(p, folded[n // p], n // p, n % p))
        near = [10**100 + d for d in range(-3, 4)] + [p**96 - 1, 3 * p**95 + 1]
        for n, want in [*enumerate(folded), *((n, fold(n)) for n in near)]:
            got = predict_by_recurrence(p, n)
            assert type(got) is int and got == want, (p, n)

    @settings(deadline=None, max_examples=40)
    @given(p=st.sampled_from((3, 5, 7, 11)),
           lo=st.integers(0, 10**40) | st.integers(0, 10**5)
           | st.builds(lambda k, back: max(k * _BLOCK - back, 0), st.integers(1, 10**6), st.integers(0, 500)),
           length=st.integers(0, 9000))
    @example(p=3, lo=0, length=9000)
    @example(p=3, lo=_BLOCK - 40, length=100)  # across the first multiple of the predict block
    @example(p=7, lo=7**40 - 1, length=33)  # just past the pointwise cut-off, across a power of p
    def test_range_matches_pointwise(self, p, lo, length):
        # built from the range of the prefixes n // p, by f(n) = (n mod 2) + f(n // p)
        batch = predict_by_recurrence_range(Prime(p), lo, lo + length)
        assert batch == [predict_by_recurrence(Prime(p), n) for n in range(lo, lo + length)]

    @pytest.mark.parametrize("p", [101, 1000003])
    def test_range_of_large_p_allocates_nothing_of_its_size(self, p):
        # a range shorter than p is folded pointwise, not sliced into p children
        # of each prefix; a longer one holds at most about three times its length
        import tracemalloc

        for lo, length in ((5 * p - 3, 60), (p * p - 50, 3 * p)):
            length = min(length, 2000)
            tracemalloc.start()
            try:
                got = predict_by_recurrence_range(Prime(p), lo, lo + length)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == [predict_by_recurrence(Prime(p), n) for n in range(lo, lo + length)]
            assert peak < 2**16

    def test_range_rejects_bad_input(self):
        for lo, hi in ((-1, 3), (5, 4)):
            with pytest.raises(UsageError, match="bad index range"):
                predict_by_recurrence_range(Prime(3), lo, hi)
        with pytest.raises(UsageError, match="odd prime"):
            predict_by_recurrence_range(Prime(2), 0, 100)


class TestConjecture1:
    def test_examples(self):
        assert predict_b_conjecture1(0) == 0
        assert predict_b_conjecture1(3) == 2
        assert predict_b_conjecture1(4) == 1

    def test_flagged_conjectural(self):
        # the conjectural flag lives on the campaigns that run these predictors
        assert {"conj1", "conj2"} == CONJECTURE_IDS
        assert "strauss" not in CONJECTURE_IDS

    def test_against_exact_delannoy(self):
        for i in range(0, 250):
            assert predict_b_conjecture1(i) == vp_rat(Prime(3), Fraction(central_delannoy(i)))

    def test_matches_digit_formula(self):
        p3 = Prime(3)
        for i in range(0, 3000):
            assert predict_b_conjecture1(i) == predict_vp_legendre_at_p_digits(p3, i)

    def test_prefix_matches_pointwise(self):
        batch = predict_b_conjecture1_range(0, 3**10)
        assert batch == [predict_b_conjecture1(i) for i in range(3**10)]

    @settings(deadline=None, max_examples=40)
    @given(lo=st.integers(0, 10**40) | st.integers(0, 10**5), length=st.integers(0, 9000))
    @example(lo=3**40 - 1, length=33)  # just past the pointwise cut-off, across a power of 3
    @example(lo=10**30, length=11)
    def test_range_matches_pointwise(self, lo, length):
        # built from the ranges of the thirds and the ninths, from a start anywhere
        batch = predict_b_conjecture1_range(lo, lo + length)
        assert batch == [predict_b_conjecture1(i) for i in range(lo, lo + length)]

    def test_range_rejects_bad_bounds(self):
        for lo, hi in ((-1, 3), (5, 4)):
            with pytest.raises(ValueError, match="bad index range"):
                predict_b_conjecture1_range(lo, hi)

    def test_large_index(self):
        # 10**700 has about 1,470 base-3 digits, which the recursive form
        # descended one call per digit or two, past the default recursion
        # limit; 699 is its value there under a raised limit
        assert predict_b_conjecture1(10**700) == 699


class TestStraussShallit:
    def test_examples(self):
        assert predict_strauss_shallit(1) == 0
        assert predict_strauss_shallit(2) == 1
        assert predict_strauss_shallit(3) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            predict_strauss_shallit(0)

    def test_against_exact_oracle(self):
        for n in range(1, 300):
            actual = vp_rat(Prime(3), Fraction(partial_sum_central_binomial(n)))
            assert predict_strauss_shallit(n) == actual


class TestCubeSum:
    def test_examples(self):
        assert predict_cube_sum_v3(0) == 0
        assert predict_cube_sum_v3(2) == 1
        assert predict_cube_sum_v3(5) == 3

    def test_against_exact_oracle(self):
        for n in range(0, 250):
            assert predict_cube_sum_v3(n) == vp_rat(Prime(3), Fraction(cube_sum_2k(n)))


class TestQPredictor:
    def test_examples(self):
        assert predict_vp_Q(PredictionContext(Prime(3), Fraction(3)), 0) == 0
        assert predict_vp_Q(PredictionContext(Prime(2), Fraction(2)), 1) == 2
        assert predict_vp_Q(PredictionContext(Prime(3), Fraction(9)), 3) == 3

    def test_rejects_hypothesis_violation(self):
        with pytest.raises(ValueError):
            predict_vp_Q(PredictionContext(Prime(3), Fraction(1, 3)), 2)

    @pytest.mark.parametrize("p,r", GENERAL_CASES)
    def test_against_exact_oracle(self, p, r):
        ctx = PredictionContext(p, r)
        for n in range(0, 100):
            assert predict_vp_Q(ctx, n) == vp_rat(p, eval_sequence(SequenceSpec.q(r), n)), (p, r, n)

    @pytest.mark.parametrize("p,r", GENERAL_CASES)
    def test_scaling_bridge(self, p, r):
        ctx = PredictionContext(p, r)
        shift = 1 if p == 2 else 0
        for n in range(0, 100):
            assert predict_vp_Q(ctx, n) == predict_vp_legendre_general(ctx, n) + n * shift


class TestCiglerPredictor:
    def test_examples(self):
        assert predict_vp_cigler(Prime(3), 1) == 1
        assert predict_vp_cigler(Prime(3), 2) == 0
        assert predict_vp_cigler(Prime(3), 0) == 0

    @pytest.mark.parametrize("p", [Prime(3), Prime(5), Prime(7)])
    def test_against_exact_oracle(self, p):
        for n in range(0, 120):
            assert predict_vp_cigler(p, n) == vp_rat(p, cigler_eval(n, Fraction(p)))


RATIONAL_POINT = (predict_vp_legendre_general, predict_vp_legendre_general_oneline, predict_vp_Q)


class TestNegativeIndex:
    # a digit loop never ends at n = -1, where divmod(-1, 3) is (-1, 2), so
    # these two run under the deadline: without their guard they fail, not hang
    @pytest.mark.usefixtures("deadline")
    @pytest.mark.parametrize("predict", [partial(predict_by_recurrence, Prime(3)), predict_b_conjecture1],
                             ids=["thm4-rec", "conj1"])
    def test_digit_loops_reject_at_once(self, predict):
        with pytest.raises(UsageError, match="index must be >= 0"):
            predict(-1)

    @pytest.mark.parametrize("predict", [predict_vp_legendre_at_2, predict_cube_sum_v3], ids=["thm5", "conj2"])
    def test_rejects_before_the_digit_sums(self, predict):
        # without the guard each fails later, in a digit sum, with another message
        with pytest.raises(UsageError, match="index must be >= 0"):
            predict(-1)


class TestIntReturns:
    """Every predictor returns a plain int, and keeps none past its call."""

    def test_every_predictor_returns_int(self):
        p3 = Prime(3)
        ctxs = [PredictionContext(p, r) for p, r in GENERAL_CASES]
        for n in range(1, 60):
            got = [predict_vp_legendre_at_p_cases(p3, n), predict_vp_legendre_at_p_digits(p3, n),
                   predict_by_recurrence(p3, n), predict_vp_legendre_at_2(n), predict_b_conjecture1(n),
                   predict_strauss_shallit(n), predict_cube_sum_v3(n), predict_vp_cigler(p3, n)]
            got += [predict(ctx, n) for ctx in ctxs for predict in RATIONAL_POINT]
            assert all(type(v) is int for v in got), n

    @pytest.mark.parametrize("p", [Prime(2), Prime(3), Prime(5)])
    def test_zero_point_is_inf_at_odd_n_only(self, p):
        ctx = PredictionContext(p, Fraction(0))
        for n in range(60):
            for predict in RATIONAL_POINT:
                got = predict(ctx, n)
                assert got is INF if n % 2 else type(got) is int, (predict.__name__, n)

    @pytest.mark.parametrize("p,r", [(Prime(3), Fraction(9)), (Prime(2), Fraction(4, 3)),
                                     (Prime(5), Fraction(-5, 7))])
    def test_vp_r_is_computed_once_per_context(self, monkeypatch, p, r):
        # vp(r) is fixed by the context, so an odd index adds the context's
        # value instead of computing vp(r) again
        ctx = PredictionContext(p, r)
        odd = range(1, 2001, 2)
        want = [[predict(ctx, n) for n in odd] for predict in RATIONAL_POINT]
        calls = []

        def counting_vp_rat(*args):
            calls.append(args)
            return vp_rat(*args)

        monkeypatch.setattr("legval.predictors.vp_rat", counting_vp_rat)
        got = [[predict(ctx, n) for n in odd] for predict in RATIONAL_POINT]
        assert calls == [] and got == want

    def test_fixed_prime_predictors_make_no_prime(self, monkeypatch):
        # thm5, strauss and conj2 read module constants: a Prime made per
        # call would test primality again on every call
        fixed = [predict_vp_legendre_at_2, predict_strauss_shallit, predict_cube_sum_v3]
        want = [[predict(n) for n in range(1, 200)] for predict in fixed]

        def refuse(value):
            raise AssertionError(f"Prime({value}) made per call")

        monkeypatch.setattr("legval.predictors.Prime", refuse)
        assert [[predict(n) for n in range(1, 200)] for predict in fixed] == want

    @pytest.mark.parametrize("predict,lo", [
        (predict_vp_legendre_at_2, 10**6),
        (partial(predict_vp_legendre_general, PredictionContext(Prime(2), Fraction(2))), 2 * 10**6),
    ], ids=["thm5", "thm3-at-2"])
    def test_no_value_outlives_its_call(self, predict, lo):
        # v2(P_n(2)) and Theorem 3's even branch v - n at p = 2 take O(n)
        # distinct values, here disjoint between the two: a cache of
        # predicted values would grow with each one
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in range(lo, lo + 10**5):
                predict(n)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 2**20, grown
