"""Exact evaluation of Legendre-family polynomials and companion sequences.

Three independent summation formulas are provided for the Legendre value
P_n(x) so they can cross-check one another: the binomial double-product sum,
the Rodrigues alternating sum (whose unscaled Q_n = 2**n * P_n is the q kind),
and the squared-binomial two-power sum.  Alongside them live the Cigler
polynomial M_n(x), the central Delannoy numbers, the partial sums of central
binomial coefficients, and the cube-weighted power sum.

Everything is exact.  Each evaluator accumulates one big integer numerator
over a common denominator and builds a single ``Fraction`` at the end, so no
intermediate rational reductions happen.  Every one of these sums is
hypergeometric: term k is term k-1 times a ratio of small integers
(Petkovsek, Wilf & Zeilberger, *A=B*, 1996).  So each evaluator carries one
running term, multiplies it by a small int, divides it exactly by another
and adds it to the total: an evaluation takes O(n) big-by-small operations,
and its loop has no product of two big integers.

For batch work (valuation tables, verification sweeps) every kind is one
record in ``_KINDS``: the summation above that gives a scaled integer U_n,
the base B with value_n = U_n / B**n, and a recurrence of order k for U_n
(3 for the cube-weighted sum, else 2).  Two steppers walk an index range
with O(1) arithmetic operations per step.  ``_iter_scaled`` carries the
exact integers U_n, which grow by Θ(1) digits a step; ``iter_sequence_values``
reads it, and it is the fallback and the test oracle of the other.
``iter_valuations_with_bits``, behind every valuation stream, carries U_n
only modulo p**P and up to a p-adic unit, so its steps work on small numbers
and its answers stay exact (precision tracked as in X. Caruso, *Computations
with p-adic numbers*, 2017); it yields each valuation as a plain int, and
``INF`` at an exact zero.  P is a constant, L plus a margin of a few dozen
digits, where L bounds the digits the transition matrices of the recurrence
lose to index N: a bound the comment above ``_Kind`` proves (O(log N) for
legendre and q unless p is odd and divides b, cigler unless p is odd and
divides 2b - a, delannoy and dsum at every p; about N/2 for cube2k at
p = 3), and elsewhere the trivial bound, every division by p the range
makes, O(N) digits.  Both steppers start from U_0, ..., U_{k-1} at n = 0
and yield from a range's start, so a range that ends at n costs n steps.
An index a valuation stream cannot settle hands the rest of its range on
in one order: to the same stepper with the margin raised by the trivial
bound, stepped again from n = 0, then to the exact ``_iter_scaled``.
``eval_sequence`` reads a record's summation and base.  The direct formulas
stay the independent oracle the test suite checks the steppers against.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Iterator

from .arith import INF, Prime, UsageError, _vp_nonzero, vp_int

__all__ = [
    "SequenceKind",
    "SequenceSpec",
    "legendre_eval_binomial",
    "legendre_eval_rodrigues",
    "legendre_eval_square_form",
    "cigler_eval",
    "central_delannoy",
    "partial_sum_central_binomial",
    "cube_sum_2k",
    "eval_sequence",
    "iter_sequence_values",
    "iter_sequence_valuations",
]


class SequenceKind(Enum):
    LEGENDRE = "legendre"  # P_n(r)
    Q = "q"                # 2**n * P_n(r)
    CIGLER = "cigler"      # M_n(r)
    DELANNOY = "delannoy"  # central Delannoy numbers
    DSUM = "dsum"          # partial sums of central binomial coefficients
    CUBE2K = "cube2k"      # sum of C(n,k)**3 * 2**k


_ARGUMENT_KINDS = frozenset(
    {SequenceKind.LEGENDRE, SequenceKind.Q, SequenceKind.CIGLER}
)


@dataclass(frozen=True)
class SequenceSpec:
    """Selects one concrete sequence, optionally pinned at a rational point."""

    kind: SequenceKind
    r: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind in _ARGUMENT_KINDS:
            if self.r is None:
                raise UsageError(f"{self.kind.value} requires an evaluation point r")
            object.__setattr__(self, "r", Fraction(self.r))
        elif self.r is not None:
            raise UsageError(f"{self.kind.value} takes no evaluation point")

    @classmethod
    def legendre(cls, r: Fraction | int) -> "SequenceSpec":
        return cls(SequenceKind.LEGENDRE, Fraction(r))

    @classmethod
    def q(cls, r: Fraction | int) -> "SequenceSpec":
        return cls(SequenceKind.Q, Fraction(r))

    @classmethod
    def cigler(cls, r: Fraction | int) -> "SequenceSpec":
        return cls(SequenceKind.CIGLER, Fraction(r))

    @classmethod
    def delannoy(cls) -> "SequenceSpec":
        return cls(SequenceKind.DELANNOY)

    @classmethod
    def dsum(cls) -> "SequenceSpec":
        return cls(SequenceKind.DSUM)

    @classmethod
    def cube2k(cls) -> "SequenceSpec":
        return cls(SequenceKind.CUBE2K)

    def canonical(self) -> str:
        """Stable text form, e.g. 'legendre(3/5)' or 'delannoy'; str of a
        Fraction is its exact 'num/den' form, and 'num' for an integer."""
        return self.kind.value if self.r is None else f"{self.kind.value}({self.r})"

    @classmethod
    def parse(cls, text: str) -> "SequenceSpec":
        m = re.fullmatch(r"([a-z0-9]+)(?:\(([^()]+)\))?", text.strip())
        if not m:
            raise UsageError(f"malformed sequence spec: {text!r}")
        name, arg = m.group(1), m.group(2)
        try:
            kind = SequenceKind(name)
        except ValueError:
            raise UsageError(f"unknown sequence {name!r}") from None
        if arg is None:
            return cls(kind)
        try:
            r = Fraction(arg)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"malformed evaluation point in {text!r}") from exc
        return cls(kind, r)


def _require_nonneg(n: int) -> None:
    if n < 0:
        raise UsageError(f"sequence index must be >= 0, got {n}")


def legendre_eval_binomial(n: int, x: Fraction | int) -> Fraction:
    """P_n(x) as sum of C(n,k) * C(n+k,k) * ((x-1)/2)**k."""
    _require_nonneg(n)
    d = Fraction(x) - 1
    u, v = d.numerator, 2 * d.denominator  # (x-1)/2 = u / v
    t = total = den = v**n  # C(n,k) * C(n+k,k) * u**k * v**(n-k), from k = 0
    for k in range(1, n + 1):
        t = t * ((n - k + 1) * (n + k) * u) // (k * k * v)
        total += t
    return Fraction(total, den)


def _rodrigues_parts(n: int, x: Fraction) -> tuple[int, int]:
    """Integer numerator and denominator b**n of the alternating sum
    giving Q_n(x) = 2**n * P_n(x), with x = a/b.

    The terms (-1)**k * C(n,k) * C(2n-2k,n) * a**(n-2k) * b**(2k) are
    summed downward from k = n // 2: going up, the ratio would divide by
    a**2, and a may be 0."""
    a, b = x.numerator, x.denominator
    h = n // 2
    t = total = ((-1) ** h * math.comb(n, h) * math.comb(2 * n - 2 * h, n)
                 * a ** (n - 2 * h) * b ** (2 * h))  # the term k = h
    aa, bb = a * a, b * b
    for k in range(h, 0, -1):
        t = (-t * (aa * k * (2 * n - 2 * k + 1) * (2 * n - 2 * k + 2))
             // (bb * (n - k + 1) * (n - 2 * k + 1) * (n - 2 * k + 2)))
        total += t
    return total, b**n


def legendre_eval_rodrigues(n: int, x: Fraction | int) -> Fraction:
    """P_n(x) from the Rodrigues alternating sum, divided by 2**n."""
    _require_nonneg(n)
    num, den = _rodrigues_parts(n, Fraction(x))
    return Fraction(num, den << n)


def _squares_sum(n: int, u: int, w: int) -> int:
    """Sum of C(n,k)**2 * u**k * w**(n-k) over 0 <= k <= n.

    The terms are summed upward from k = 0: going down, the ratio would
    divide by u, which may be 0.  Going up it divides by w; at w = 0 the
    term k = n, u**n, is the only non-zero one."""
    if not w:
        return u**n
    t = total = w**n  # the term k = 0
    for k in range(1, n + 1):
        t = t * ((n - k + 1) ** 2 * u) // (k * k * w)
        total += t
    return total


def legendre_eval_square_form(n: int, x: Fraction | int) -> Fraction:
    """P_n(x) as (1/2**n) * sum of C(n,k)**2 * (x-1)**k * (x+1)**(n-k); with
    x = a/b, ``_squares_sum`` at u = a-b and w = a+b, over (2b)**n."""
    _require_nonneg(n)
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    return Fraction(_squares_sum(n, a - b, a + b), (2 * b) ** n)


def cigler_eval(n: int, x: Fraction | int) -> Fraction:
    """M_n(x) as sum of C(n,k)**2 * (x-1)**k; with x = a/b,
    ``_squares_sum`` at u = a-b and w = b, over b**n."""
    _require_nonneg(n)
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    return Fraction(_squares_sum(n, a - b, b), b**n)


def central_delannoy(n: int) -> int:
    """Central Delannoy number: sum of C(n,i) * C(n+i,i)."""
    _require_nonneg(n)
    total = 1
    c = 1
    for i in range(1, n + 1):
        c = c * (n - i + 1) * (n + i) // (i * i)
        total += c
    return total


def partial_sum_central_binomial(n: int) -> int:
    """d(n) = sum of C(2i,i) over 0 <= i < n; d(0) = 0."""
    _require_nonneg(n)
    total = 0
    c = 1  # C(2i,i)
    for i in range(n):
        total += c
        c = c * 2 * (2 * i + 1) // (i + 1)
    return total


def cube_sum_2k(n: int) -> int:
    """Sum of C(n,k)**3 * 2**k over 0 <= k <= n."""
    _require_nonneg(n)
    total = 1
    t = 1  # C(n,k)**3, updated by the cubed ratio
    for k in range(1, n + 1):
        t = t * (n - k + 1) ** 3 // (k * k * k)
        total += t << k
    return total


# ---------------------------------------------------------------------------
# Batch iteration.
#
# Each kind is one ``_Kind`` record in ``_KINDS``.  ``direct(n, r)`` is a
# scaled integer U_n computed by the summations above, ``base(r)`` is the B
# with value_n = U_n / B**n, and ``step(r)`` is n -> (D(n), (A_1(n), ..., A_k(n))),
# written as the recurrence of order k
#     D(n)*U_n = A_1(n)*U_{n-1} + ... + A_k(n)*U_{n-k}.  With r = a/b:
#
#   legendre  U_n = (2b)**n * P_n(a/b), B = 2b.  Scaling Bonnet's
#             n*P_n = (2n-1)*x*P_{n-1} - (n-1)*P_{n-2} gives
#             n*U_n = 2a*(2n-1)*U_{n-1} - 4b**2*(n-1)*U_{n-2}.
#   q         the same U_n with B = b, since Q_n = 2**n * P_n.
#   cigler    U_n = b**n * M_n(a/b), B = b;
#             n*U_n = a*(2n-1)*U_{n-1} - (2b-a)**2*(n-1)*U_{n-2}.
#   delannoy  B = 1; n*U_n = 3*(2n-1)*U_{n-1} - (n-1)*U_{n-2}.
#   dsum      B = 1; (n-1)*U_n = (5n-7)*U_{n-1} - 2*(2n-3)*U_{n-2}, because
#             U_n - U_{n-1} = C(2n-2, n-1) = 2*(2n-3)/(n-1) * C(2n-4, n-2).
#   cube2k    B = 1; n**2*(3n-5)*U_n = 3*(9n**3-24n**2+17n-4)*U_{n-1}
#             + 3*(3n-4)*(9n**2-21n+11)*U_{n-2} + 27*(n-2)**2*(3n-2)*U_{n-3},
#             proved by a Zeilberger telescoping certificate (Petkovsek, Wilf
#             & Zeilberger, A=B, 1996) that the test suite checks.
#
# Every division by D(n) is exact, and D(n) != 0 for n >= k.  With the k x k
# companion matrix M(n), row 0 (A_1(n), ..., A_k(n)), D(n) on the subdiagonal,
#     D(n) * (U_n, ..., U_{n-k+1}) = M(n) * (U_{n-1}, ..., U_{n-k}).
# Both steppers start from ``direct(0..k-1)`` at n = 0 and step to any range
# start s, so a range from s yields the same values as a sweep from 0.
#
# A valuation needs U_n only modulo a power of p above vp(U_n); this is
# fixed-precision p-adic arithmetic with its precision tracked by hand
# (Caruso, "Computations with p-adic numbers", 2017).  The state of
# ``iter_valuations_with_bits`` is W_i = λ * U_{n-i} modulo p**Q, one p-adic
# unit λ common to every slot.  With D(n) = p**t * u and p not dividing u,
#     X = A_1(n)*W_1 + ... + A_k(n)*W_k = λ * D(n) * U_n  (mod p**Q)
# is an exact multiple of p**t, and y = X / p**t = λ * u * U_n modulo
# p**(Q-t).  y is the next W_1, with unit λ * u, so the slots that shift
# down take the small factor u and the unit stays common; no inverse, and
# no multiply but by small ints.  Each step takes vp(y) as a plain int,
# with y = 0 counted as S, the digits y is known to beyond the loss (see
# below), and tests it once, at a skipped index as at a yielded one:
# vp(y) < S settles vp(U_n) = vp(y), and vp(y) >= S, as when U_n = 0,
# leaves the valuation undetermined.
#
# Exact zeros: within one pass a slot holds the integer 0 exactly when its
# U is 0.  Seeds are exact integers.  A step with y = 0 is stored only as an
# exact zero, and any other undetermined step hands off (below).  A nonzero
# seed or stored y has vp < S <= Q; multiplying it by the units u and
# reducing it modulo p**Q keeps its vp below Q, so it never becomes 0.  So a
# step with y = 0 whose every term has A_i(n) = 0 or a slot holding 0 is
# exactly 0, with no error to carry; it yields inf and stores 0.  U_n of
# legendre(0) and q(0) is 0 at every odd n this way, since A_1(n) =
# 2a*(2n-1) = 0.  Any other undetermined index hands the rest of the range
# on: once to the same stepper, stepped again from n = 0 with S below raised
# by the trivial bound, and from there to the exact ``_iter_scaled``, so
# every answer is exact, never probable.
#
# Q is one constant for every stream, and every _REDUCE_EVERY steps the
# state is reduced modulo p**Q.  Write T(j, n) = M(n)...M(j+1) /
# (D(j+1)...D(n)) for the map from the state at j to the state at n.  A
# reduction after step j adds a vector of multiples of p**Q, which reaches
# step n multiplied by T(j, n), up to the unit λ; errors enter nowhere
# else, and the map is linear.  So
# if vp(T(j, n)) >= -L for k-1 <= j < n < e, every error is a multiple of
# p**(Q-L) (the lattice view of precision: Caruso, Roe & Vaccon, "Tracking
# p-adic precision", LMS J. Comput. Math. 17A, 2014).  With Q = L + S every
# division by p**t stays exact, as the assertion checks, and vp(y) < S
# settles vp(U_n).  S is _MARGIN plus the largest valuation of a seed, since
# U_n of legendre, q and cigler at odd n is a multiple of U_1 = 2a or a.
#
# The proven bounds.  For order 2, if U and Z solve the recurrence and
# C_n = U_n*Z_{n-1} - Z_n*U_{n-1} != 0, then with Φ_n = [[U_n, Z_n],
# [U_{n-1}, Z_{n-1}]], T(j, n) = Φ_n Φ_j^-1, whose entries are
# (U_a*Z_b - Z_a*U_b) / C_j for a in {n, n-1} and b in {j, j-1}.
#
#   legendre, q, cigler, delannoy: n*U_n = α*(2n-1)*U_{n-1} - c*(n-1)*U_{n-2}
#             with c = 4b**2, (2b-a)**2 and 1.  The second solution is
#             Z_n = Σ_{m=1..n} U_{m-1}*U_{n-m} / m: for legendre, (2b)**(n-1)
#             times the W_{n-1}(x) = Σ P_{m-1}(x)*P_{n-m}(x) / m of DLMF
#             §14.7(i); for cigler the same through M_n(x) =
#             (2-x)**n * P_n(x/(2-x)), so that U_n = (2b-a)**n * P_n(a/(2b-a)).
#             U is integral and Z has only the denominators m <= N, so a
#             numerator has vp >= -⌊log_p N⌋.  n*C_n = c*(n-1)*C_{n-1} and
#             C_1 = -1 give C_j = -c**(j-1) / j, and 1/C_j has vp >= 0 where
#             p does not divide c.  So vp(T(j, n)) >= -⌊log_p N⌋, attained
#             when N is a power of p (the loss-bound test measures it);
#             L = 2⌊log_p N⌋ holds that bound twice over, for a few digits
#             of Q.
#   legendre, q, cigler at p = 2 where 2 | c (c = 4b**2, or (2b-a)**2 with
#             a even): C_j has vp growing with j, but no Casoratian is
#             needed.  vp(A_1(n)) >= 1 and vp(A_2(n)) >= 2, so
#             M(n) = 2 * Δ * M'(n) * Δ**-1 with Δ = diag(1, 1/2) and
#             M'(n) = [[A_1(n)/2, A_2(n)/4], [n, 0]] integral.  Products of
#             those are integral, Δ * X * Δ**-1 halves only the entry below
#             the diagonal, so
#             vp(T(j, n)) >= (n-j) - 1 - v_2(n!/j!) = s_2(n) - s_2(j) - 1 by
#             Legendre's formula v_2(m!) = m - s_2(m), s_2 the binary digit
#             sum.  With s_2(n) >= 1 and s_2(j) <= ⌊log_2 N⌋ + 1 for j < N,
#             vp(T(j, n)) >= -(⌊log_2 N⌋ + 1), which L = 2⌊log_2 N⌋ covers
#             for N >= 2; below that there is no step.
#   dsum      the constant 1 and U solve it, both integral, and
#             C_j = U_{j-1} - U_j = -C(2j-2, j-1), whose vp is the number of
#             carries adding j-1 to itself in base p (Kummer), at most
#             ⌊log_p(2j-2)⌋.  So L = ⌊log_p 2N⌋.
#   cube2k at p = 3: vp(A_1(n)) >= 1, vp(A_2(n)) >= 1 and vp(A_3(n)) >= 3,
#             so M(n) = 3**(1/2) * Δ * M'(n) * Δ**-1 with
#             Δ = diag(3, 3**(1/2), 1) and M'(n) = [[A_1(n)/3**(1/2),
#             A_2(n)/3, A_3(n)/3**(3/2)], [D(n), 0, 0], [0, D(n), 0]]
#             integral over Z_3[3**(1/2)].  Δ * X * Δ**-1 divides no entry
#             by more than 3, so the integer matrix M(n)...M(j+1) has
#             vp >= ⌈(n-j)/2⌉ - 1.  D(m) = m**2 * (3m-5) with 3 ∤ 3m-5, so
#             vp(D(j+1)...D(n)) = 2*v_3(n!/j!) = (n-j) - s_3(n) + s_3(j) by
#             Legendre's formula, s_3 the ternary digit sum.  With
#             s_3(n) >= 1 and s_3(j) <= 2⌊log_3 N⌋ + 2 for j < N,
#             vp(T(j, n)) >= -(⌊N/2⌋ + 2⌊log_3 N⌋ + 2) = -L, about half the
#             trivial bound.
#
# Elsewhere L is the trivial bound vp(D(k)...D(e-1)), summed in one pass by
# ``_vp_steps``: M(n) is integral, so vp(T(j, n)) >= -vp(D(j+1)...D(n)).
# That is cube2k at p != 3, legendre and q where an odd p divides b, and
# cigler where an odd p divides 2b-a, where C_j has vp growing with j.  The
# restart raises S by the same sum: U_n of legendre(3) at p = 2 is 2**n times
# an odd number, and v_2((e-1)!) lifts S above e - 1.
# ---------------------------------------------------------------------------

_Step = Callable[[int], tuple[int, tuple[int, ...]]]  # n -> (D(n), (A_1(n), ..., A_k(n)))

_MARGIN = 32  # p-adic digits kept beyond the loss bound; any value is exact
_REDUCE_EVERY = 8  # steps between reductions of the state modulo p**Q


@dataclass(frozen=True)
class _Kind:
    direct: Callable[[int, Fraction | None], int]
    base: Callable[[Fraction | None], int]
    step: Callable[[Fraction | None], _Step]
    # (r, p, N) -> the L proved above, or None for the trivial bound
    loss: Callable[[Fraction | None, int, int], int | None] = lambda r, p, N: None


def _floor_log(p: int, n: int) -> int:
    """⌊log_p n⌋, and 0 for n < p."""
    e = 0
    while n >= p:
        n //= p
        e += 1
    return e


def _legendre_family(
    direct: Callable[[int, Fraction | None], int],
    base: Callable[[Fraction | None], int],
    coefficients: Callable[[Fraction | None], tuple[int, int]],
) -> _Kind:
    """The record of n*U_n = α*(2n-1)*U_{n-1} - c*(n-1)*U_{n-2}, with
    (α, c) = coefficients(r); its loss bound is proved above unless p is
    odd and divides c."""

    def step(r: Fraction | None) -> _Step:
        alpha, c = coefficients(r)
        return lambda n: (n, (alpha * (2 * n - 1), -c * (n - 1)))

    def loss(r: Fraction | None, p: int, N: int) -> int | None:
        return 2 * _floor_log(p, N) if p == 2 or coefficients(r)[1] % p else None

    return _Kind(direct, base, step, loss)


_LEGENDRE = _legendre_family(
    lambda n, r: _rodrigues_parts(n, r)[0],
    lambda r: 2 * r.denominator,
    lambda r: (2 * r.numerator, 4 * r.denominator**2),
)

_KINDS = {
    SequenceKind.LEGENDRE: _LEGENDRE,
    SequenceKind.Q: replace(_LEGENDRE, base=lambda r: r.denominator),  # the same U_n, as Q_n = 2**n * P_n
    SequenceKind.CIGLER: _legendre_family(
        lambda n, r: _squares_sum(n, r.numerator - r.denominator, r.denominator),
        lambda r: r.denominator,
        lambda r: (r.numerator, (2 * r.denominator - r.numerator) ** 2),
    ),
    SequenceKind.DELANNOY: _legendre_family(
        lambda n, r: central_delannoy(n),
        lambda r: 1,
        lambda r: (3, 1),
    ),
    SequenceKind.DSUM: _Kind(
        direct=lambda n, r: partial_sum_central_binomial(n),
        base=lambda r: 1,
        step=lambda r: lambda n: (n - 1, (5 * n - 7, -2 * (2 * n - 3))),
        loss=lambda r, p, N: _floor_log(p, 2 * N),
    ),
    SequenceKind.CUBE2K: _Kind(
        direct=lambda n, r: cube_sum_2k(n),
        base=lambda r: 1,
        step=lambda r: lambda n: (n * n * (3 * n - 5), (3 * (9 * n**3 - 24 * n**2 + 17 * n - 4),
                                                        3 * (3 * n - 4) * (9 * n**2 - 21 * n + 11),
                                                        27 * (n - 2) ** 2 * (3 * n - 2))),
        loss=lambda r, p, N: N // 2 + 2 * _floor_log(3, N) + 2 if p == 3 else None,
    ),
}


def eval_sequence(spec: SequenceSpec, n: int) -> Fraction:
    """Exact value of the selected sequence at index n."""
    _require_nonneg(n)
    kind = _KINDS[spec.kind]
    return Fraction(kind.direct(n, spec.r), kind.base(spec.r) ** n)


def _split(p: int, d: int) -> tuple[int, int]:
    """(t, u) with d = p**t * u and p not dividing u, for d != 0."""
    t = 0
    while not d % p:
        d //= p
        t += 1
    return t, d


def _vp_steps(step: _Step, p: int, lo: int, hi: int) -> int:
    """vp(D(lo)...D(hi-1)), in one streaming pass."""
    return sum(_split(p, step(n)[0])[0] for n in range(lo, hi))


def _iter_scaled(spec: SequenceSpec, start: int, stop: int) -> Iterator[int]:
    """Yields the scaled integers U_n for n in [start, stop), stepped from
    n = 0 whatever ``start`` is."""
    if start < 0 or stop < start:
        raise UsageError(f"bad index range [{start}, {stop})")
    kind = _KINDS[spec.kind]
    step = kind.step(spec.r)
    k = len(step(0)[1])
    seeds = [kind.direct(n, spec.r) for n in range(k)]  # U_0, ..., U_{k-1}
    yield from seeds[start:stop]
    window = deque(reversed(seeds), maxlen=k)  # U_{n-1}, ..., U_{n-k} for the next n
    for n in range(k, stop):
        d, a = step(n)
        # sum from the first product: sum()'s 0 + term would copy a big integer
        terms = map(mul, a, window)
        u, rem = divmod(sum(terms, next(terms)), d)
        assert rem == 0, f"{spec.canonical()} recurrence lost exactness"
        if n >= start:
            yield u
        window.appendleft(u)


def iter_sequence_values(spec: SequenceSpec, stop: int, start: int = 0) -> Iterator[Fraction]:
    """Exact values for n in [start, stop), stepped from n = 0 with O(1)
    big-int operations a step."""
    base = _KINDS[spec.kind].base(spec.r)
    for n, u in enumerate(_iter_scaled(spec, start, stop), start):
        yield Fraction(u, base**n)


def iter_sequence_valuations(
    spec: SequenceSpec, p: Prime, stop: int, start: int = 0
) -> Iterator[int | float]:
    """vp of the exact sequence values for n in [start, stop)."""
    return map(itemgetter(0), iter_valuations_with_bits(spec, p, stop, start))


def iter_valuations_with_bits(
    spec: SequenceSpec, p: Prime, stop: int, start: int = 0
) -> Iterator[tuple[int | float, int]]:
    """Like ``iter_sequence_valuations`` but also reports, for each index,
    the bit length of the integer the stepper carried: a residue modulo a
    power of p, times small units since the last reduction, or U_n itself
    after a fallback; 0 for an infinite valuation.

    Steps the recurrence modulo a constant p**Q from n = 0 (see the comment
    block above ``_Kind``) and yields from ``start`` on.  Each step settles
    on a plain int, yielded as it is, or on ``INF`` at an exact zero, so a
    pass keeps nothing it has yielded.  An index whose residue leaves its
    valuation undetermined, and is not an exact zero, hands the rest of the
    range, from that index or from ``start`` if it is later, on: once to the
    same stepper with its margin raised by the trivial bound, stepped again
    from n = 0, and from there to the exact stepper ``_iter_scaled``."""
    if start < 0 or stop < start:
        raise UsageError(f"bad index range [{start}, {stop})")
    # returned, not yielded from: delegating would pass every step through one more frame
    return _modular_valuations(spec, p, start, stop)


def _modular_valuations(
    spec: SequenceSpec, p: Prime, start: int, stop: int, raised: int | None = None
) -> Iterator[tuple[int | float, int]]:
    """``iter_valuations_with_bits`` at the constant precision p**(L+S), with
    S raised by ``raised`` digits on the one restart; None on the first pass."""
    kind = _KINDS[spec.kind]
    shift = vp_int(p, kind.base(spec.r))
    step = kind.step(spec.r)
    k = len(step(0)[1])
    window = [kind.direct(n, spec.r) for n in reversed(range(k))]  # U_{k-1}, ..., U_0
    loss = kind.loss(spec.r, p, stop)
    if loss is None:  # the trivial bound
        loss = _vp_steps(step, p, k, stop)
    settles = _MARGIN + (raised or 0) + max((_split(p, w)[0] for w in window if w), default=0)
    mod = p ** (loss + settles)
    for n, w in enumerate(window[::-1][start:stop], start):  # exact seeds, exact valuations
        yield (vp_int(p, w) - n * shift if w else INF), w.bit_length()
    for n in range(k, stop):
        d, a = step(n)
        t, u = _split(p, d)
        terms = map(mul, a, window)
        y = sum(terms, next(terms))
        if t:
            y, rem = divmod(y, p**t)
            assert rem == 0, f"{spec.canonical()} recurrence lost exactness"
        v = _vp_nonzero(p, y) if y else settles  # v >= settles leaves vp(U_n) open
        zero = not y and all(not c or not w for c, w in zip(a, window))
        if v >= settles and not zero:
            if raised is None:  # vp(U_n) >= S: S raised by the trivial bound may settle it
                yield from _modular_valuations(spec, p, max(n, start), stop, _vp_steps(step, p, k, stop))
            else:
                yield from _exact_valuations(spec, p, shift, max(n, start), stop)
            return
        if n >= start:
            yield (INF if zero else v - n * shift), y.bit_length()
        window = [y] + [u * w for w in window[:-1]]  # y carries the unit λ*u: so must the rest
        if not n % _REDUCE_EVERY:
            window = [w % mod for w in window]


def _exact_valuations(
    spec: SequenceSpec, p: Prime, shift: int, start: int, stop: int
) -> Iterator[tuple[int | float, int]]:
    """``iter_valuations_with_bits`` from the exact integers U_n."""
    for n, u in enumerate(_iter_scaled(spec, start, stop), start):
        yield (_vp_nonzero(p, u) - n * shift if u else INF), u.bit_length()
