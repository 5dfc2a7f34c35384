import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legval.arith import (
    INF,
    PadicVal,
    Prime,
    UsageError,
    binomial_valuation_digits,
    digit_sum,
    digit_sums,
    factorial_valuation_digits,
    factorial_valuation_floor,
    kummer_carries,
    parse_rational,
    vp_int,
    vp_rat,
)
from legval.verify import Mismatch, _differ


def vp_oracle(p, n):
    """Trial-division valuation of a non-zero integer, written independently."""
    assert n != 0
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# Beside the small primes: 1073741789, the largest prime below 2**30, fills a
# 30-bit digit with its first power, and 2**31 - 1 and 2**61 - 1 do not fit
# in one digit at all, so all three divide one power of p per pass.
VP_PRIMES = (2, 3, 5, 7, 11, 1073741789, 2**31 - 1, 2**61 - 1)


class TestPrime:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 97, 7919, 2**31 - 1):
            assert Prime(p) == p

    @pytest.mark.parametrize("n", [-3, 0, 1, 4, 9, 91, 561, 2**32 - 1])
    def test_rejects_non_primes(self, n):
        with pytest.raises(ValueError):
            Prime(n)

    def test_rejects_strong_pseudoprimes(self):
        # Carmichael numbers and 2-pseudoprimes must fail too.
        for n in (341, 1105, 29341, 75361, 162401):
            with pytest.raises(ValueError):
                Prime(n)

    def test_rejects_pseudoprime_to_first_twelve_prime_bases(self):
        # 399165290221 * 798330580441, a strong pseudoprime to every base <= 37
        with pytest.raises(ValueError, match="not a prime"):
            Prime(318665857834031151167461)

    def test_rejects_beyond_proven_bound(self):
        from legval.arith import _MR_PROVEN_BOUND

        # the largest prime below the bound is still accepted
        assert Prime(3317044064679887385961813) == 3317044064679887385961813
        for n in (_MR_PROVEN_BOUND, 2**89 - 1, 10**30 + 57):
            with pytest.raises(ValueError, match="proven"):
                Prime(n)

    def test_is_int(self):
        p = Prime(3)
        assert p + 1 == 4
        assert p >= 3


class TestPadicVal:
    def test_infinite_ordering(self):
        assert INF > PadicVal(10**9)
        assert PadicVal(-5) < PadicVal(0) < INF
        assert INF == INF
        assert not INF < INF

    def test_int_interop(self):
        assert PadicVal(2) == 2

    def test_value_accessor(self):
        assert PadicVal(-1).value == -1
        with pytest.raises(ValueError):
            INF.value

    def test_parse_round_trip(self):
        for v in (PadicVal(0), PadicVal(-3), PadicVal(17), INF):
            assert PadicVal.parse(str(v)) == v

    def test_hash_matches_int(self):
        assert hash(PadicVal(4)) == hash(4)
        assert len({PadicVal(1), 1}) == 1


PADIC = st.one_of(st.just(INF), st.integers().map(PadicVal))


class TestPadicValLaws:
    @given(a=PADIC, b=PADIC)
    def test_total_order(self, a, b):
        assert [a < b, a == b, a > b].count(True) == 1
        assert (a <= b) == (a < b or a == b)
        assert (a >= b) == (a > b or a == b)
        assert (a < b) == (b > a)

    @given(a=PADIC, b=PADIC, c=PADIC)
    def test_order_is_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c
        if a < b and b < c:
            assert a < c

    @given(x=st.integers())
    def test_infinity_above_every_finite_value(self, x):
        assert PadicVal(x) < INF and INF > PadicVal(x)
        assert x < INF and INF > x and INF >= x and INF != x

    @given(x=st.integers(), y=st.integers(), n=st.integers(min_value=0))
    def test_finite_values_behave_as_int(self, x, y, n):
        # predictors return ints and tables PadicVals: reports compare and print the two mixed
        a, b = PadicVal(x), PadicVal(y)
        assert a == x and x == a and not (a != x or x != a)
        assert hash(a) == hash(x) and str(a) == str(x) == format(a) == format(x)
        assert (a == b) == (x == y) and (a != b) == (x != y)
        assert (a < b) == (x < y) and (a <= b) == (x <= y)
        assert (a < y) == (x < y) and (x < b) == (x < y)
        assert x < INF and INF != x and x != INF
        assert len({a, x}) == 1
        assert _differ(n, x, a) is None and _differ(n, a, x) is None
        assert _differ(n, x, INF) == Mismatch(n, str(x), "inf")
        # a finite valuation is an int and INF the float infinity; both keep
        # is_infinite and value, which the benchmark harness reads
        assert isinstance(a, int) and type(a + 1) is int and type(a - b) is int
        assert PadicVal.parse("inf") is INF and vp_int(Prime(3), 0) is INF
        assert isinstance(INF, float) and INF == math.inf and str(INF) == "inf"
        assert PadicVal(10**400) < INF
        assert not a.is_infinite and a.value == x and type(a.value) is int
        assert INF.is_infinite
        with pytest.raises(ValueError):
            INF.value


class TestVp:
    def test_examples(self):
        assert vp_int(Prime(3), 0).is_infinite
        assert vp_int(Prime(3), 63) == 2
        assert vp_int(Prime(5), -7) == 0

    def test_rational_examples(self):
        assert vp_rat(Prime(2), Fraction(11, 2)) == -1
        assert vp_rat(Prime(3), Fraction(9, 5)) == 2
        assert vp_rat(Prime(7), Fraction(0)).is_infinite

    def test_matches_oracle(self):
        for p in (2, 3, 5, 7):
            for n in range(1, 400):
                assert vp_int(Prime(p), n) == vp_oracle(p, n)

    def test_accepts_plain_int_rational(self):
        assert vp_rat(Prime(3), 18) == 2

    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_rejects_base_below_two(self, p):
        with pytest.raises(ValueError, match=">= 2"):
            vp_int(p, 18)

    @pytest.mark.parametrize("n, want", [
        (0, None), (3**18, 18), (-(3**18), 18), (3**36, 36), (2 * 3**18, 18),
        (3**18 - 1, 0), (3**17, 17), (3**19, 19), (3**36 * 2**100, 36), (2 * 3**36 + 3**35, 35),
    ])
    def test_block_boundaries(self, n, want):
        got = vp_int(Prime(3), n)
        assert got.is_infinite if want is None else got == want

    def test_block_is_largest_power_in_a_digit(self):
        from legval.arith import _block

        if sys.int_info.bits_per_digit == 30:
            assert _block(3) == (3**18, 18)
            assert _block(1073741789) == (1073741789, 1)
        assert _block(2**61 - 1) == (2**61 - 1, 1)

    @given(p=st.sampled_from(VP_PRIMES), e=st.integers(0, 80),
           m=st.integers(1, 2**200), sign=st.sampled_from((1, -1)))
    @example(p=3, e=36, m=2, sign=-1)
    @example(p=2**31 - 1, e=80, m=2**31 - 2, sign=-1)
    @settings(deadline=None)  # the first example pays for importing sympy
    def test_matches_oracle_and_sympy(self, p, e, m, sign):
        from sympy import multiplicity

        n = sign * p**e * m
        got = vp_int(Prime(p), n)
        assert got == vp_oracle(p, n) == multiplicity(p, n)
        assert got >= e

    @pytest.mark.usefixtures("deadline")
    @pytest.mark.parametrize("j", range(9))
    @pytest.mark.parametrize("p", [3, 2**31 - 1])
    def test_squared_blocks(self, p, j):
        # a valuation of K or more divides n by p**K, p**2K, p**4K, ... and then
        # by those squares, largest first; e = K*2**j - 1, K*2**j and K*2**j + 1
        # end just short of a square, on it and just past it (K = 1 for
        # 2**31 - 1), and K*2**(j+1) - K - 1 takes every square on the way down.
        # A descent that leaves p**K dividing n loops on a zero remainder, so
        # the deadline turns that into a failure
        from legval.arith import _block, _vp_nonzero

        k = _block(p)[1]
        for e in (k * 2**j - 1, k * 2**j, k * 2**j + 1, k * 2 ** (j + 1) - k - 1):
            for u in (1, 2, p - 1, -(p + 1)):
                assert _vp_nonzero(p, p**e * u) == vp_int(Prime(p), p**e * u) == e, (e, u)

    @given(p=st.sampled_from((2, 3, 5, 7, 2**31 - 1)), e=st.integers(0, 600),
           m=st.integers(0, 2**200), r=st.integers(0, 2**40), sign=st.sampled_from((1, -1)))
    @example(p=3, e=600, m=0, r=0, sign=-1)
    @example(p=2**31 - 1, e=600, m=2**200, r=2**40, sign=1)
    def test_int_valuation_matches_vp_int(self, p, e, m, r, sign):
        # the plain-int valuation the modular stepper settles on
        from legval.arith import _vp_nonzero

        u = m * p + r % (p - 1) + 1  # p does not divide u
        n = sign * p**e * u
        got = _vp_nonzero(p, n)
        assert type(got) is int
        assert got == vp_int(Prime(p), n).value == e


class TestDigitSum:
    def test_examples(self):
        assert digit_sum(Prime(3), 0) == 0
        assert digit_sum(Prime(3), 10) == 2
        assert digit_sum(Prime(2), 7) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            digit_sum(Prime(3), -1)

    def test_matches_sympy(self):
        from sympy.ntheory import digits as sympy_digits

        for p in (2, 3, 5, 7, 11):
            for n in range(0, 500):
                assert digit_sum(Prime(p), n) == sum(sympy_digits(n, p)[1:])

    def test_prefix_sweep_matches_pointwise(self):
        for p in (2, 3, 5, 7, 11):
            for count in (0, 1, 2000):
                pre = digit_sums(Prime(p), 0, count)
                assert pre == [digit_sum(Prime(p), n) for n in range(count)]

    @settings(deadline=None, max_examples=40)
    @given(p=st.sampled_from((2, 3, 5, 7, 11)), lo=st.integers(0, 10**40) | st.integers(0, 10**5),
           length=st.integers(0, 9000))
    @example(p=2, lo=4095, length=4098)  # a block of 4096 low sums, crossed at both ends
    @example(p=3, lo=0, length=0)
    def test_range_matches_pointwise(self, p, lo, length):
        # s(c*p**k + j) = s(c) + s(j) for j < p**k: the range holds more than
        # one block of the low sums, from a start anywhere
        got = digit_sums(Prime(p), lo, lo + length)
        assert got == [digit_sum(Prime(p), n) for n in range(lo, lo + length)]

    def test_range_rejects_bad_bounds(self):
        for lo, hi in ((-1, 3), (5, 4)):
            with pytest.raises(ValueError, match="bad index range"):
                digit_sums(Prime(3), lo, hi)

    @pytest.mark.parametrize("p", [257, 1000003])
    def test_large_p_allocates_nothing_of_its_size(self, p):
        # past 2**16 table entries the low sums are range(p), not a list of p
        # or p**2 entries, across block ends
        import tracemalloc

        lo = 3 * p - 5
        tracemalloc.start()
        try:
            got = digit_sums(Prime(p), lo, lo + 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [digit_sum(Prime(p), n) for n in range(lo, lo + 100)]
        assert peak < 2**16

    def test_digit_shift_identity(self):
        # s_p(n*p + a) = s_p(n) + a for 0 <= a < p.
        for p in (2, 3, 5, 7):
            P = Prime(p)
            for n in range(0, 300):
                for a in range(p):
                    assert digit_sum(P, n * p + a) == digit_sum(P, n) + a


class TestFactorialValuation:
    def test_examples(self):
        assert factorial_valuation_floor(Prime(3), 10) == 4
        assert factorial_valuation_floor(Prime(5), 0) == 0
        assert factorial_valuation_floor(Prime(2), 7) == 4
        assert factorial_valuation_digits(Prime(3), 10) == 4
        assert factorial_valuation_digits(Prime(2), 7) == 4
        assert factorial_valuation_digits(Prime(7), 1) == 0

    def test_triple_equality_small(self):
        for p in (2, 3, 5, 7):
            P = Prime(p)
            fact = 1
            for n in range(0, 200):
                if n:
                    fact *= n
                direct = vp_oracle(p, fact) if fact > 1 else 0
                assert factorial_valuation_floor(P, n) == direct
                assert factorial_valuation_digits(P, n) == direct

    @pytest.mark.usefixtures("deadline")  # without the guard the floor sum loops at q = -1
    def test_floor_rejects_negative(self):
        with pytest.raises(UsageError, match="factorial valuation requires n >= 0"):
            factorial_valuation_floor(Prime(3), -1)

    def test_digits_rejects_negative(self):
        # without the guard the digit sum fails, with its own message
        with pytest.raises(UsageError, match="factorial valuation requires n >= 0"):
            factorial_valuation_digits(Prime(3), -1)

    def test_odd_factorial_bound(self):
        # vp((2j+1)!) <= 2j - 1 for j >= 1, any prime.
        for p in (2, 3, 5, 7):
            P = Prime(p)
            for j in range(1, 200):
                assert factorial_valuation_digits(P, 2 * j + 1) <= 2 * j - 1


class TestBinomialValuation:
    def test_examples(self):
        assert binomial_valuation_digits(Prime(3), 10, 4) == 1
        assert binomial_valuation_digits(Prime(5), 17, 0) == 0
        assert binomial_valuation_digits(Prime(2), 8, 4) == 1

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            binomial_valuation_digits(Prime(3), 4, 5)

    def test_three_way_agreement(self):
        # digit formula == carry count == trial division of C(n, k);
        # the row is updated incrementally and re-anchored to comb() as it goes
        for p in (2, 3, 5):
            P = Prime(p)
            for n in range(0, 301):
                row = 1
                for k in range(0, n + 1):
                    if k == n // 2:
                        assert row == math.comb(n, k)
                    v = vp_oracle(p, row) if row > 1 else 0
                    assert binomial_valuation_digits(P, n, k) == v
                    assert kummer_carries(P, k, n - k) == v
                    row = row * (n - k) // (k + 1)


class TestKummer:
    def test_examples(self):
        assert kummer_carries(Prime(3), 4, 6) == 1
        assert kummer_carries(Prime(5), 19, 0) == 0
        assert kummer_carries(Prime(2), 4, 4) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kummer_carries(Prime(3), -1, 2)


class TestLemmaIdentities:
    def test_odd_index_identity(self):
        # vp(2m+1) + vp(C(2m,m)) == vp(m+1) + vp(C(2m+1,m))
        #                        == (2 s_p(m) - s_p(2m+1) + 1) / (p-1)
        for p in (2, 3, 5, 7):
            P = Prime(p)
            for m in range(0, 300):
                lhs = vp_int(P, 2 * m + 1).value + binomial_valuation_digits(P, 2 * m, m)
                mid = vp_int(P, m + 1).value + binomial_valuation_digits(P, 2 * m + 1, m)
                num = 2 * digit_sum(P, m) - digit_sum(P, 2 * m + 1) + 1
                assert num % (p - 1) == 0
                assert lhs == mid == num // (p - 1)

    def test_central_binomial_two_adic(self):
        # v2(C(2m,m)) = s_2(2m) = 2m - v2((2m)!)
        P = Prime(2)
        for m in range(0, 300):
            v = binomial_valuation_digits(P, 2 * m, m)
            assert v == digit_sum(P, 2 * m)
            assert v == 2 * m - factorial_valuation_digits(P, 2 * m)


class TestRationalText:
    def test_parse(self):
        assert parse_rational("3/5") == Fraction(3, 5)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(" 9/6 ") == Fraction(3, 2)

    def test_parse_rejects_garbage(self):
        for bad in ("", "x", "1/0", "3.5/2q"):
            with pytest.raises(ValueError):
                parse_rational(bad)
