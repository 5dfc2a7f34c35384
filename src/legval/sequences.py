"""Exact evaluation of Legendre-family polynomials and companion sequences.

Three independent summation formulas are provided for the Legendre value
P_n(x) so they can cross-check one another: the binomial double-product sum,
the Rodrigues alternating sum (whose unscaled Q_n = 2**n * P_n is the q kind),
and the squared-binomial two-power sum.  Alongside them live the Cigler
polynomial M_n(x), the central Delannoy numbers, the partial sums of central
binomial coefficients, and the cube-weighted power sum.

Everything is exact.  Each evaluator accumulates one big integer numerator
over a common denominator and builds a single ``Fraction`` at the end, so no
intermediate rational reductions happen.  Binomial coefficients are updated
incrementally along k (ratio updates, exact integer divisions); powers are
running products, giving O(n) large-integer multiplications per evaluation.

For batch work (valuation tables, verification sweeps) every kind is one
record in ``_KINDS``: the summation above that gives a scaled integer U_n,
the base B with value_n = U_n / B**n, and the coefficients of a three-term
recurrence for U_n.  One stepper walks any index range in O(1) big-integer
operations per step.  It reaches the start of a range by jumping from U_0
and U_1 with a binary-split product of the recurrence's companion matrices,
so a chunk starting at n costs about as much as a few multiplications of
numbers of U_n's size, not an O(n**2) summation.  ``eval_sequence`` reads a
record's summation and base; the ``iter_sequence_*`` generators are views
over the stepper.  The cube-weighted sum has no certified recurrence yet and
is summed at every index.  The direct formulas stay the independent oracle
the test suite checks the stepper against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator

from .arith import INF, PadicVal, Prime, vp_int

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
                raise ValueError(f"{self.kind.value} requires an evaluation point r")
            object.__setattr__(self, "r", Fraction(self.r))
        elif self.r is not None:
            raise ValueError(f"{self.kind.value} takes no evaluation point")

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
        """Stable text form, e.g. 'legendre(3/5)' or 'delannoy'."""
        if self.r is None:
            return self.kind.value
        if self.r.denominator == 1:
            return f"{self.kind.value}({self.r.numerator})"
        return f"{self.kind.value}({self.r.numerator}/{self.r.denominator})"

    @classmethod
    def parse(cls, text: str) -> "SequenceSpec":
        m = re.fullmatch(r"([a-z0-9]+)(?:\(([^()]+)\))?", text.strip())
        if not m:
            raise ValueError(f"malformed sequence spec: {text!r}")
        name, arg = m.group(1), m.group(2)
        try:
            kind = SequenceKind(name)
        except ValueError:
            raise ValueError(f"unknown sequence {name!r}") from None
        if arg is None:
            return cls(kind)
        try:
            r = Fraction(arg)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed evaluation point in {text!r}") from exc
        return cls(kind, r)


def _require_nonneg(n: int) -> None:
    if n < 0:
        raise ValueError(f"sequence index must be >= 0, got {n}")


def legendre_eval_binomial(n: int, x: Fraction | int) -> Fraction:
    """P_n(x) as sum of C(n,k) * C(n+k,k) * ((x-1)/2)**k."""
    _require_nonneg(n)
    x = Fraction(x)
    d = x - 1
    u, w = d.numerator, d.denominator  # (x-1)/2 = u / (2w)
    coeffs = [1] * (n + 1)
    c = 1
    for k in range(1, n + 1):
        c = c * (n - k + 1) * (n + k) // (k * k)
        coeffs[k] = c
    # Horner in u over the common denominator (2w)**n.
    v = 2 * w
    total = 0
    pw = 1  # v**(n-k)
    for k in range(n, -1, -1):
        total = total * u + coeffs[k] * pw
        pw *= v
    return Fraction(total, v**n)


def _rodrigues_parts(n: int, x: Fraction) -> tuple[int, int]:
    """Integer numerator and denominator b**n of the alternating sum
    giving Q_n(x) = 2**n * P_n(x), with x = a/b."""
    a, b = x.numerator, x.denominator
    half = n // 2
    coeffs = [0] * (half + 1)
    c = math.comb(2 * n, n)
    coeffs[0] = c
    for k in range(1, half + 1):
        c = (
            c
            * ((n - k + 1) * (n - 2 * k + 1) * (n - 2 * k + 2))
            // (k * (2 * n - 2 * k + 1) * (2 * n - 2 * k + 2))
        )
        coeffs[k] = c
    # Sum over k of (-1)**k * c_k * a**(n-2k) * b**(2k), Horner in b**2.
    bb = b * b
    total = 0
    pa = a ** (n % 2)  # a**(n-2k), lowest exponent first
    aa = a * a
    for k in range(half, -1, -1):
        term = coeffs[k] * pa
        total = total * bb + (-term if k % 2 else term)
        pa *= aa
    return total, b**n


def legendre_eval_rodrigues(n: int, x: Fraction | int) -> Fraction:
    """P_n(x) from the Rodrigues alternating sum, divided by 2**n."""
    _require_nonneg(n)
    num, den = _rodrigues_parts(n, Fraction(x))
    return Fraction(num, den << n)


def legendre_eval_square_form(n: int, x: Fraction | int) -> Fraction:
    """P_n(x) as (1/2**n) * sum of C(n,k)**2 * (x-1)**k * (x+1)**(n-k)."""
    _require_nonneg(n)
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    u = a - b
    w = a + b
    coeffs = [1] * (n + 1)
    c = 1
    for k in range(1, n + 1):
        c = c * (n - k + 1) ** 2 // (k * k)
        coeffs[k] = c
    total = 0
    pw = 1  # w**(n-k)
    for k in range(n, -1, -1):
        total = total * u + coeffs[k] * pw
        pw *= w
    return Fraction(total, (2 * b) ** n)


def _cigler_parts(n: int, x: Fraction) -> tuple[int, int]:
    """Integer numerator and denominator b**n of M_n(x), with x = a/b."""
    a, b = x.numerator, x.denominator
    u = a - b
    total = 0
    c = 1  # C(n,k)**2
    pu = 1  # u**k
    pb = b**n  # b**(n-k)
    for k in range(0, n + 1):
        if k:
            c = c * (n - k + 1) ** 2 // (k * k)
            pu *= u
            pb //= b
        total += c * pu * pb
    return total, b**n


def cigler_eval(n: int, x: Fraction | int) -> Fraction:
    """M_n(x) as sum of C(n,k)**2 * (x-1)**k."""
    _require_nonneg(n)
    num, den = _cigler_parts(n, Fraction(x))
    return Fraction(num, den)


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
# with value_n = U_n / B**n, and ``step(r)`` holds the coefficients of
#     D(n)*U_n = A(n)*U_{n-1} + C(n)*U_{n-2}
# as three pairs (c0, c1), each meaning c0 + c1*n.  With r = a/b:
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
#   cube2k    B = 1 and no step: summed directly at every index.  Its
#             shortest known recurrence (order 3, cubic coefficients) is only
#             fitted to terms, not certified, so it does not drive sweeps yet.
#
# Every division by D(n) is exact, and D(n) != 0 for n >= 2.  In matrix form
#     D(n) * (U_n, U_{n-1}) = M(n) * (U_{n-1}, U_{n-2}),  M(n) = [[A(n), C(n)],
#                                                                [D(n), 0   ]],
# so M(s+1)...M(2) * (U_1, U_0) = D(2)...D(s+1) * (U_{s+1}, U_s).
# ``_iter_scaled`` seeds any range start s this way from ``direct(0)`` and
# ``direct(1)``, multiplying the integer matrices by binary splitting
# (Bostan, Gaudry & Schost 2007) and dividing once, exactly, at the end.  The
# integers are the ones a sweep from 0 reaches, so a range split into chunks
# yields the same values as one sweep.
# ---------------------------------------------------------------------------

_Linear = tuple[int, int]  # (c0, c1) stands for c0 + c1*n


@dataclass(frozen=True)
class _Kind:
    direct: Callable[[int, Fraction | None], int]
    base: Callable[[Fraction | None], int]
    step: Callable[[Fraction | None], tuple[_Linear, _Linear, _Linear] | None]


def _rodrigues_step(r: Fraction) -> tuple[_Linear, _Linear, _Linear]:
    a, bb = r.numerator, r.denominator**2
    return (0, 1), (-2 * a, 4 * a), (4 * bb, -4 * bb)


def _cigler_step(r: Fraction) -> tuple[_Linear, _Linear, _Linear]:
    a, c = r.numerator, (2 * r.denominator - r.numerator) ** 2
    return (0, 1), (-a, 2 * a), (c, -c)


_KINDS = {
    SequenceKind.LEGENDRE: _Kind(
        direct=lambda n, r: _rodrigues_parts(n, r)[0],
        base=lambda r: 2 * r.denominator,
        step=_rodrigues_step,
    ),
    SequenceKind.Q: _Kind(
        direct=lambda n, r: _rodrigues_parts(n, r)[0],
        base=lambda r: r.denominator,
        step=_rodrigues_step,
    ),
    SequenceKind.CIGLER: _Kind(
        direct=lambda n, r: _cigler_parts(n, r)[0],
        base=lambda r: r.denominator,
        step=_cigler_step,
    ),
    SequenceKind.DELANNOY: _Kind(
        direct=lambda n, r: central_delannoy(n),
        base=lambda r: 1,
        step=lambda r: ((0, 1), (-3, 6), (1, -1)),
    ),
    SequenceKind.DSUM: _Kind(
        direct=lambda n, r: partial_sum_central_binomial(n),
        base=lambda r: 1,
        step=lambda r: ((-1, 1), (-7, 5), (6, -4)),
    ),
    SequenceKind.CUBE2K: _Kind(
        direct=lambda n, r: cube_sum_2k(n),
        base=lambda r: 1,
        step=lambda r: None,
    ),
}


def eval_sequence(spec: SequenceSpec, n: int) -> Fraction:
    """Exact value of the selected sequence at index n."""
    _require_nonneg(n)
    kind = _KINDS[spec.kind]
    return Fraction(kind.direct(n, spec.r), kind.base(spec.r) ** n)


def _companion_product(step: tuple[_Linear, _Linear, _Linear], lo: int, hi: int
                       ) -> tuple[tuple[int, int, int, int], int]:
    """M(hi-1)...M(lo) as (m00, m01, m10, m11), and D(lo)...D(hi-1), for
    lo < hi, by binary splitting."""
    if hi - lo == 1:
        (d0, d1), (a0, a1), (c0, c1) = step
        d = d0 + d1 * lo
        return (a0 + a1 * lo, c0 + c1 * lo, d, 0), d
    mid = (lo + hi) // 2
    (p00, p01, p10, p11), pd = _companion_product(step, mid, hi)
    (q00, q01, q10, q11), qd = _companion_product(step, lo, mid)
    return (p00 * q00 + p01 * q10, p00 * q01 + p01 * q11,
            p10 * q00 + p11 * q10, p10 * q01 + p11 * q11), pd * qd


def _iter_scaled(spec: SequenceSpec, start: int, stop: int) -> Iterator[int]:
    """Yields the scaled integers U_n for n in [start, stop)."""
    if start < 0 or stop < start:
        raise ValueError(f"bad index range [{start}, {stop})")
    kind = _KINDS[spec.kind]
    step = kind.step(spec.r)
    if step is None:
        for n in range(start, stop):
            yield kind.direct(n, spec.r)
        return
    m2, m1 = kind.direct(0, spec.r), kind.direct(1, spec.r)
    if start:
        (t00, t01, t10, t11), d = _companion_product(step, 2, start + 2)
        (m1, rem1), (m2, rem2) = divmod(t00 * m1 + t01 * m2, d), divmod(t10 * m1 + t11 * m2, d)
        assert rem1 == rem2 == 0, f"{spec.canonical()} jump to {start} lost exactness"
    yield from (m2, m1)[: stop - start]
    (d0, d1), (a0, a1), (c0, c1) = step
    for n in range(start + 2, stop):
        u, rem = divmod((a0 + a1 * n) * m1 + (c0 + c1 * n) * m2, d0 + d1 * n)
        assert rem == 0, f"{spec.canonical()} recurrence lost exactness"
        yield u
        m2, m1 = m1, u


def iter_sequence_values(spec: SequenceSpec, stop: int, start: int = 0) -> Iterator[Fraction]:
    """Exact values for n in [start, stop), amortized O(1) big-int steps."""
    base = _KINDS[spec.kind].base(spec.r)
    for n, u in enumerate(_iter_scaled(spec, start, stop), start):
        yield Fraction(u, base**n)


def iter_sequence_valuations(
    spec: SequenceSpec, p: Prime, stop: int, start: int = 0
) -> Iterator[PadicVal]:
    """vp of the exact sequence values for n in [start, stop)."""
    for val, _bits in iter_valuations_with_bits(spec, p, stop, start):
        yield val


def iter_valuations_with_bits(
    spec: SequenceSpec, p: Prime, stop: int, start: int = 0
) -> Iterator[tuple[PadicVal, int]]:
    """Like ``iter_sequence_valuations`` but also reports each underlying
    integer's bit length, so callers can measure the arithmetic it took."""
    shift = vp_int(p, _KINDS[spec.kind].base(spec.r)).value
    for n, u in enumerate(_iter_scaled(spec, start, stop), start):
        if u == 0:
            yield INF, 0
        else:
            yield PadicVal(vp_int(p, u).value - n * shift), u.bit_length()
