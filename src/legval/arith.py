"""Exact integer/rational arithmetic and digit-level p-adic primitives.

Everything works on Python's arbitrary-precision integers and on
``fractions.Fraction``.  A valuation is an int, and vp(0) is ``INF``, the
float infinity, the one float here; nothing is computed in floating point.
Two kinds of quantities live here: direct valuations of exact numbers, which
divide out whole blocks of p at a time (``vp_int``, ``vp_rat``), and
digit-level formulas (base-p digit sums, Legendre's two factorial-valuation
formulas, the digit form of a binomial valuation, Kummer's carry count) that
compute the same quantities without ever touching the large numbers they
describe.

All functions are pure, except ``unlimited_int_digits``, which changes the
interpreter's int/str digit limit for its block; values are immutable and safe
to share between threads.

``UsageError``, a ``ValueError``, is the one type of bad input: every input
check in the package raises it where it checks.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from contextlib import contextmanager
from fractions import Fraction

__all__ = [
    "UsageError",
    "Prime",
    "PadicVal",
    "INF",
    "vp_int",
    "vp_rat",
    "digit_sum",
    "digit_sums",
    "factorial_valuation_floor",
    "factorial_valuation_digits",
    "binomial_valuation_digits",
    "kummer_carries",
    "parse_rational",
    "unlimited_int_digits",
]


class UsageError(ValueError):
    """An input the package cannot serve; the CLI exits 2 on it alone."""


# Miller-Rabin with these witnesses, the first 13 primes, is a
# proven-deterministic primality test for every n below _MR_PROVEN_BOUND
# (Sorenson & Webster, 2015).  The first 12 alone are fooled already by
# 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime(n: int) -> bool:
    """Deterministic primality check for n below ``_MR_PROVEN_BOUND``."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    return _miller_rabin(n, _MR_WITNESSES)


class Prime(int):
    """A prime number.  Constructing a non-prime, or any number at or above
    ``_MR_PROVEN_BOUND`` (where primality is not proven), raises ``UsageError``."""

    def __new__(cls, value: int) -> "Prime":
        value = int(value)
        if value >= _MR_PROVEN_BOUND:
            raise UsageError(
                f"{value} is at or above {_MR_PROVEN_BOUND}, the bound below which "
                "primality is proven (Sorenson & Webster 2015)")
        if not _is_prime(value):
            raise UsageError(f"{value} is not a prime number")
        return super().__new__(cls, value)

    def __repr__(self) -> str:
        return f"Prime({int(self)})"


class PadicVal(int):
    """A finite valuation: an int, which may be negative (the valuation of a
    non-integral rational).  The valuation of zero is ``INF``, the float
    infinity, and the one infinite value this package hands out, so
    ``v is INF`` tests for it.  Both answer ``is_infinite`` and ``value``,
    which the benchmark harness reads; everything else compares, hashes,
    prints and adds them as the int and float they are.  Arithmetic on
    ``INF`` gives a float ``inf`` or ``nan`` and raises nothing, so code
    tests for ``INF`` before it computes with a valuation.
    """

    __slots__ = ()
    is_infinite = False

    @property
    def value(self) -> int:
        return int(self)

    @staticmethod
    def parse(text: str) -> "PadicVal | float":
        text = text.strip()
        return INF if text == "inf" else PadicVal(text)


class _Infinity(float):
    """The float infinity as a valuation, vp(0): above every finite value,
    and ``value`` raises ``ValueError``.  ``INF`` is its one instance."""

    __slots__ = ()
    is_infinite = True

    @property
    def value(self) -> int:
        raise ValueError("valuation is infinite")


INF = _Infinity("inf")


# p -> (p**K, K) for the largest K >= 1 with p**K inside one CPython digit.
_BLOCKS: dict[int, tuple[int, int]] = {}
_DIGIT = 1 << sys.int_info.bits_per_digit


def _block(p: int) -> tuple[int, int]:
    if p < 2:
        raise UsageError(f"valuation base must be >= 2, got {p}")
    pk, k = int(p), 1
    while pk * p < _DIGIT:
        pk *= p
        k += 1
    _BLOCKS[p] = pk, k
    return pk, k


def _vp_nonzero(p: int, n: int) -> int:
    """Largest e with p**e dividing |n|, as a plain int; n must not be 0.

    A valuation below K = ``_block(p)[1]`` costs one pass over n: the
    remainder r modulo p**K has vp(r) = vp(n) and is finished as a small int.
    Else n is divided by p**K, p**2K, p**4K, ... while each square still
    divides it, then by the squares taken, largest first, so a valuation v
    costs O(log(v/K)) passes (the repeated-squaring idea of GMP's
    ``mpz_remove``).  For p = 2 the lowest set bit gives the answer directly.
    """
    if p == 2:
        return (n & -n).bit_length() - 1
    try:
        block, k = _BLOCKS[p]
    except KeyError:
        block, k = _block(p)
    v = 0
    r = n % block
    if not r:
        squares, pk, e = [], block, k
        q, r = divmod(n, pk)
        while not r:
            squares.append((pk, e))
            n, v = q, v + e
            pk, e = pk * pk, 2 * e
            q, r = divmod(n, pk)
        for pk, e in reversed(squares):
            q, r = divmod(n, pk)
            if not r:
                n, v = q, v + e
        r = n % block
    while not r % p:
        r //= p
        v += 1
    return v


def vp_int(p: Prime, n: int) -> PadicVal | float:
    """Largest e with p**e dividing |n|; ``INF`` for n = 0."""
    return INF if n == 0 else PadicVal(_vp_nonzero(p, n))


def vp_rat(p: Prime, r: Fraction | int) -> PadicVal | float:
    """Valuation of a rational: vp(numerator) - vp(denominator); ``INF`` for 0."""
    if r == 0:
        return INF
    if isinstance(r, int):
        return vp_int(p, r)
    return PadicVal(vp_int(p, r.numerator) - vp_int(p, r.denominator))


def digit_sum(p: Prime, n: int) -> int:
    """Sum of the base-p digits of n >= 0; 0 has the empty expansion."""
    if n < 0:
        raise UsageError("digit_sum requires n >= 0")
    s = 0
    while n:
        n, d = divmod(n, p)
        s += d
    return s


def digit_sums(p: Prime, lo: int, hi: int) -> list[int]:
    """Base-p digit sums of lo .. hi-1, by s(c*p**k + j) = s(c) + s(j) for j < p**k:
    one list of the low sums s(j), p**k >= 4096, and one ``digit_sum`` per block."""
    if lo < 0 or hi < lo:
        raise UsageError(f"bad index range [{lo}, {hi})")
    low = [0]
    while len(low) < 4096:
        low = [s + d for s in low for d in range(p)]
    out, size = [], len(low)
    for c in range(lo // size, -(-hi // size)):
        s_c, start = digit_sum(p, c), c * size
        out += [s_c + s for s in low[max(lo - start, 0):hi - start]]
    return out


def factorial_valuation_floor(p: Prime, n: int) -> int:
    """vp(n!) as the sum of floor(n / p**i) over i >= 1."""
    if n < 0:
        raise UsageError("factorial valuation requires n >= 0")
    total = 0
    q = n // p
    while q:
        total += q
        q //= p
    return total


def factorial_valuation_digits(p: Prime, n: int) -> int:
    """vp(n!) in digit form: (n - digit_sum(p, n)) / (p - 1)."""
    if n < 0:
        raise UsageError("factorial valuation requires n >= 0")
    q, rem = divmod(n - digit_sum(p, n), p - 1)
    assert rem == 0, f"(n - s_p(n)) not divisible by p-1 for p={p}, n={n}"
    return q


def binomial_valuation_digits(p: Prime, n: int, k: int) -> int:
    """vp(C(n, k)) via digit sums: (s(k) + s(n-k) - s(n)) / (p - 1)."""
    if not 0 <= k <= n:
        raise UsageError(f"binomial valuation requires 0 <= k <= n, got n={n}, k={k}")
    q, rem = divmod(digit_sum(p, k) + digit_sum(p, n - k) - digit_sum(p, n), p - 1)
    assert rem == 0, f"digit-sum combination not divisible by p-1 for p={p}, n={n}, k={k}"
    return q


def kummer_carries(p: Prime, a: int, b: int) -> int:
    """Number of carries when adding a and b in base p (both >= 0)."""
    if a < 0 or b < 0:
        raise UsageError("carry count requires non-negative addends")
    carries = 0
    carry = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def parse_rational(text: str) -> Fraction:
    """Parse 'num' or 'num/den' into an exact, reduced fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lifts CPython's limit on the digits of an int converted to or from
    text for the duration of the block, and restores it after.  Exact values
    outgrow the default limit of 4,300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
