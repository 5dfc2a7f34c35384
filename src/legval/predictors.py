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

Valuations are computed, taken and returned as plain ints, and no predictor
keeps a value past its call.  Only the predictors at a rational point r add
vp(r), which their ``PredictionContext`` computes once and which is infinite
at r = 0: there they return ``INF`` at odd n, where P_n(0) = Q_n(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (
    INF,
    Prime,
    UsageError,
    _vp_nonzero,
    binomial_valuation_digits,
    digit_sum,
    digit_sums,
    factorial_valuation_digits,
    vp_rat,
)

_TWO, _THREE = Prime(2), Prime(3)  # made once: a Prime tests primality when it is made

__all__ = [
    "PredictionContext",
    "predict_vp_legendre_general",
    "predict_vp_legendre_general_oneline",
    "predict_vp_legendre_at_p_cases",
    "predict_vp_legendre_at_p_digits",
    "predict_vp_legendre_at_p_digits_range",
    "predict_vp_legendre_at_2",
    "recurrence_step",
    "predict_by_recurrence",
    "predict_b_conjecture1",
    "predict_b_conjecture1_range",
    "predict_strauss_shallit",
    "predict_cube_sum_v3",
    "predict_vp_Q",
    "predict_vp_cigler",
]


def _require_odd_prime(p: Prime) -> None:
    if p < 3:
        raise UsageError("this predictor requires an odd prime p >= 3")


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
            raise UsageError(
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


def predict_vp_legendre_at_p_digits_range(p: Prime, lo: int, hi: int) -> list[int]:
    """The digit-formula values for n in [lo, hi), batched from the even start lo - lo % 2."""
    _require_odd_prime(p)
    if lo < 0 or hi < lo:
        raise UsageError(f"bad index range [{lo}, {hi})")
    a = lo - lo % 2
    s, half, pm1 = digit_sums(p, a, hi), digit_sums(p, a // 2, (hi + 1) // 2), p - 1
    out = [0] * len(s)
    out[0::2] = [(2 * h - t) // pm1 for h, t in zip(half, s[0::2])]
    out[1::2] = [(2 * h - t + p) // pm1 for h, t in zip(half, s[1::2])]
    return out[lo - a:]


def predict_vp_legendre_at_2(n: int) -> int:
    """v2(P_n(2)) = (n mod 2) - v2(n!); negative from n = 2 on."""
    if n < 0:
        raise UsageError("index must be >= 0")
    return n % 2 - factorial_valuation_digits(_TWO, n)


def recurrence_step(p: Prime, f_n: int, n: int, a: int) -> int:
    """One base-p descent step: the int valuation at index p*n + a from the
    valuation f_n at index n, for odd p and digit 0 <= a < p; an infinite
    f_n (``INF`` or ``math.inf``) raises ``UsageError``."""
    _require_odd_prime(p)
    if not 0 <= a < p:
        raise UsageError(f"digit a must satisfy 0 <= a < p, got a={a}, p={int(p)}")
    if f_n == INF:
        raise UsageError("valuation is infinite")
    return f_n + (n + a) % 2


def predict_by_recurrence(p: Prime, n: int) -> int:
    """vp(P_n(p)) by folding the digit recurrence over the base-p digits of n,
    most significant first, starting from the value 0 at index 0."""
    _require_odd_prime(p)
    if n < 0:
        raise UsageError("index must be >= 0")
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
        raise UsageError("index must be >= 0")
    b = 0  # b of the index passed in is b + b(i) for the current i
    while i:
        if i % 3 == 1:
            i //= 9
            b += 1
        else:
            i //= 3
            b += i % 2
    return b


def predict_b_conjecture1_range(lo: int, hi: int) -> list[int]:
    """b(lo) .. b(hi-1) from the ranges of the thirds t and the ninths t // 3,
    by b(3t) = b(3t+2) = b(t) + (t mod 2) and b(3t+1) = b(t // 3) + 1."""
    if lo < 0 or hi < lo:
        raise UsageError(f"bad index range [{lo}, {hi})")
    if hi - lo < 32:  # too short to pay for two sub-ranges and their slices
        return [predict_b_conjecture1(i) for i in range(lo, hi)]
    t0, t1 = lo // 3, -(-hi // 3)  # the thirds of [3*t0, 3*t1), which holds [lo, hi)
    thirds, ninths = predict_b_conjecture1_range(t0, t1), predict_b_conjecture1_range(t0 // 3, -(-t1 // 3))
    out = [0] * (3 * (t1 - t0))
    out[0::3] = out[2::3] = [b + t % 2 for t, b in enumerate(thirds, t0)]
    out[1::3] = [ninths[t // 3 - t0 // 3] + 1 for t in range(t0, t1)]
    return out[lo - 3 * t0:hi - 3 * t0]


def predict_strauss_shallit(n: int) -> int:
    """v3 of the partial sum of central binomials:
    v3(C(2n,n)) + 2*v3(n), for n >= 1."""
    if n < 1:
        raise UsageError("defined for n >= 1 only (the empty sum is zero)")
    return binomial_valuation_digits(_THREE, 2 * n, n) + 2 * _vp_nonzero(_THREE, n)


def predict_cube_sum_v3(n: int) -> int:
    """Conjectured v3 of sum C(n,k)**3 * 2**k, via base-3 digit sums."""
    if n < 0:
        raise UsageError("index must be >= 0")
    if n % 6 == 5:
        return digit_sum(_THREE, (n - 1) // 2) + 1
    return digit_sum(_THREE, (n + 1) // 2)


def predict_vp_Q(ctx: PredictionContext, n: int) -> int | float:
    """vp(Q_n(r)) = vp(2**n * P_n(r)) for vp(r) >= 1, by parity of n."""
    if n < 0:
        raise UsageError("index must be >= 0")
    p = ctx.p
    m = n // 2
    v = binomial_valuation_digits(p, 2 * m, m)
    if n % 2 == 0:
        return v
    return _plus_vp_r(ctx, _vp_nonzero(p, 2 * m + 1) + v if p >= 3 else 1 + v)


def predict_vp_cigler(p: Prime, n: int) -> int:
    """vp(M_n(p)) for odd p; provably equal to vp(P_n(p))."""
    return predict_vp_legendre_at_p_digits(p, n)
