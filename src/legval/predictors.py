"""Closed-form p-adic valuation predictors for the Legendre family.

Each function here predicts the valuation of a polynomial or combinatorial
value from digit-level arithmetic alone (digit sums, binomial valuations,
base-p recursions).  None of them evaluates a polynomial: that independence
is what makes comparing a predictor against the exact-evaluation oracle a
meaningful check rather than a tautology.

Two of the predictors (``predict_b_conjecture1``, ``predict_cube_sum_v3``)
implement conjectures rather than proved theorems; their campaigns in
``legval.verify`` are flagged conjectural, so a mismatch is reported as a
mathematical finding instead of an implementation bug.

Valuations are computed and returned as plain ints, and no predictor keeps
a value past its call.  Only the predictors at a rational point r add vp(r),
which their ``PredictionContext`` computes once and which is infinite at
r = 0: there they return ``INF`` at odd n, where P_n(0) = Q_n(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (
    INF,
    PadicVal,
    Prime,
    _vp_nonzero,
    binomial_valuation_digits,
    digit_sum,
    digit_sum_prefix,
    factorial_valuation_digits,
    vp_rat,
)

__all__ = [
    "PredictionContext",
    "predict_vp_legendre_general",
    "predict_vp_legendre_general_oneline",
    "predict_vp_legendre_at_p_cases",
    "predict_vp_legendre_at_p_digits",
    "predict_vp_legendre_at_p_digits_prefix",
    "predict_vp_legendre_at_2",
    "recurrence_step",
    "predict_by_recurrence",
    "predict_b_conjecture1",
    "predict_b_conjecture1_prefix",
    "predict_strauss_shallit",
    "predict_cube_sum_v3",
    "predict_vp_Q",
    "predict_vp_cigler",
]


def _require_odd_prime(p: Prime) -> None:
    if p < 3:
        raise ValueError("this predictor requires an odd prime p >= 3")


@dataclass(frozen=True)
class PredictionContext:
    """Prime p and rational point r with vp(r) >= 1, and vp_r = vp(r).

    Construction is the one check of this hypothesis of Theorem 3 and
    Lemmas 8-9, so the predictors that take a context can assume it.
    """

    p: Prime
    r: Fraction
    vp_r: int | float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "vp_r", vp_rat(self.p, self.r))
        if not self.vp_r >= 1:
            raise ValueError(
                f"hypothesis violated: vp(r) >= 1 required, but v_{int(self.p)}({self.r}) = {self.vp_r}")


def _plus_vp_r(ctx: PredictionContext, v: int) -> int | float:
    """vp(r) + v, or ``INF`` at r = 0."""
    return INF if ctx.r == 0 else ctx.vp_r + v


def predict_vp_legendre_general(ctx: PredictionContext, n: int) -> int | float:
    """vp(P_n(r)) for vp(r) >= 1, split over the parities of n and p = 2."""
    p = ctx.p
    if n % 2 == 0:
        v = binomial_valuation_digits(p, n, n // 2)
        return v if p >= 3 else v - n
    v = binomial_valuation_digits(p, n - 1, (n - 1) // 2)
    return _plus_vp_r(ctx, v + _vp_nonzero(p, n) if p >= 3 else v + 1 - n)


def predict_vp_legendre_general_oneline(ctx: PredictionContext, n: int) -> int | float:
    """Same prediction in one closed form:
    vp(2**-n * C(n, n//2)) + (n mod 2) * vp(r * (n+1))."""
    p = ctx.p
    base = binomial_valuation_digits(p, n, n // 2) - n * (1 if p == 2 else 0)
    if n % 2 == 0:
        return base
    return _plus_vp_r(ctx, base + _vp_nonzero(p, n + 1))


def predict_vp_legendre_at_p_cases(p: Prime, n: int) -> int:
    """vp(P_n(p)) for odd p, by parity of n."""
    _require_odd_prime(p)
    m = n // 2
    v = binomial_valuation_digits(p, 2 * m, m)
    if n % 2 == 0:
        return v
    return 1 + _vp_nonzero(p, 2 * m + 1) + v


def predict_vp_legendre_at_p_digits(p: Prime, n: int) -> int:
    """vp(P_n(p)) for odd p, as a pure digit-sum formula."""
    _require_odd_prime(p)
    num = 2 * digit_sum(p, n // 2) - digit_sum(p, n) + (n % 2) * p
    q, rem = divmod(num, p - 1)
    assert rem == 0, f"digit formula not divisible by p-1 at p={p}, n={n}"
    return q


def predict_vp_legendre_at_p_digits_prefix(p: Prime, count: int) -> list[int]:
    """The digit-formula values for n = 0 .. count-1 in one batch sweep."""
    _require_odd_prime(p)
    s = digit_sum_prefix(p, count)
    pm1 = p - 1
    return [
        (2 * s[n >> 1] - s[n] + (n & 1) * p) // pm1 for n in range(count)
    ]


def predict_vp_legendre_at_2(n: int) -> int:
    """v2(P_n(2)) = (n mod 2) - v2(n!); negative from n = 2 on."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return n % 2 - factorial_valuation_digits(Prime(2), n)


def recurrence_step(p: Prime, f_n: PadicVal, n: int, a: int) -> PadicVal:
    """One base-p descent step: the valuation at index p*n + a from the
    valuation f_n at index n, for odd p and digit 0 <= a < p; an infinite
    f_n raises ``ValueError``."""
    _require_odd_prime(p)
    if not 0 <= a < p:
        raise ValueError(f"digit a must satisfy 0 <= a < p, got a={a}, p={int(p)}")
    return PadicVal(f_n.value + (n + a) % 2)


def predict_by_recurrence(p: Prime, n: int) -> int:
    """vp(P_n(p)) by folding the digit recurrence over the base-p digits of n,
    most significant first, starting from the value 0 at index 0."""
    _require_odd_prime(p)
    if n < 0:
        raise ValueError("index must be >= 0")
    digits = []
    m = n
    while m:
        m, d = divmod(m, p)
        digits.append(d)
    f = parity = 0  # f(m) and m mod 2 for the prefix m of n read so far
    for a in reversed(digits):
        parity = (parity + a) % 2  # p*m + a ≡ m + a (mod 2), as p is odd
        f += parity  # recurrence_step: f(p*m + a) = f(m) + ((m + a) mod 2)
    return f


def predict_b_conjecture1(i: int) -> int:
    """Conjectured 3-adic valuation of the i-th central Delannoy number,
    by the two-branch base-3/base-9 recurrence with b(0) = 0."""
    if i < 0:
        raise ValueError("index must be >= 0")
    b = 0  # b of the index passed in is b + b(i) for the current i
    while i:
        if i % 3 == 1:
            i //= 9
            b += 1
        else:
            i //= 3
            b += i % 2
    return b


def predict_b_conjecture1_prefix(count: int) -> list[int]:
    """b(0) .. b(count-1) bottom-up; same recurrence, O(count) total."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out = [0] * count
    for i in range(1, count):
        if i % 3 == 1:
            out[i] = out[i // 9] + 1
        else:
            out[i] = out[i // 3] + (i // 3) % 2
    return out


def predict_strauss_shallit(n: int) -> int:
    """v3 of the partial sum of central binomials:
    v3(C(2n,n)) + 2*v3(n), for n >= 1."""
    if n < 1:
        raise ValueError("defined for n >= 1 only (the empty sum is zero)")
    p3 = Prime(3)
    return binomial_valuation_digits(p3, 2 * n, n) + 2 * _vp_nonzero(p3, n)


def predict_cube_sum_v3(n: int) -> int:
    """Conjectured v3 of sum C(n,k)**3 * 2**k, via base-3 digit sums."""
    if n < 0:
        raise ValueError("index must be >= 0")
    p3 = Prime(3)
    if n % 6 == 5:
        return digit_sum(p3, (n - 1) // 2) + 1
    return digit_sum(p3, (n + 1) // 2)


def predict_vp_Q(ctx: PredictionContext, n: int) -> int | float:
    """vp(Q_n(r)) = vp(2**n * P_n(r)) for vp(r) >= 1, by parity of n."""
    if n < 0:
        raise ValueError("index must be >= 0")
    p = ctx.p
    m = n // 2
    v = binomial_valuation_digits(p, 2 * m, m)
    if n % 2 == 0:
        return v
    return _plus_vp_r(ctx, _vp_nonzero(p, 2 * m + 1) + v if p >= 3 else 1 + v)


def predict_vp_cigler(p: Prime, n: int) -> int:
    """vp(M_n(p)) for odd p; provably equal to vp(P_n(p))."""
    return predict_vp_legendre_at_p_digits(p, n)
