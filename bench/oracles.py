"""Independent exact expectations for the benchmark's checks.

Nothing here imports legval: every expectation is computed from a textbook
identity with its own code, so a defect in the library cannot hide behind a
matching defect in the check.
"""

from __future__ import annotations

import math


def digit_sum(p: int, n: int) -> int:
    s = 0
    while n:
        n, d = divmod(n, p)
        s += d
    return s


def valuation(p: int, x: int) -> int | None:
    """Largest e with p**e dividing x by trial division; None for x = 0."""
    if x == 0:
        return None
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def vp_legendre_at_p(p: int, n: int) -> int:
    """vp(P_n(p)) for odd p: (2 s(n//2) - s(n) + (n mod 2) p) / (p - 1).

    At p = 3 this is also v3 of the central Delannoy number D_n = P_n(3).
    """
    q, rem = divmod(2 * digit_sum(p, n // 2) - digit_sum(p, n) + (n % 2) * p, p - 1)
    if rem:
        raise ArithmeticError(f"digit formula not integral at p={p}, n={n}")
    return q


def v3_dsum(n: int) -> int | None:
    """v3 of sum(C(2i,i), i < n) by Strauss-Shallit: v3(C(2n,n)) + 2 v3(n).

    v3(C(2n,n)) is the number of carries when adding n + n in base 3
    (Kummer).  d(0) = 0 has infinite valuation.
    """
    if n == 0:
        return None
    carries = carry = 0
    a = n
    while a or carry:
        carry = 1 if 2 * (a % 3) + carry >= 3 else 0
        carries += carry
        a //= 3
    return carries + 2 * valuation(3, n)


def delannoy_comb(n: int) -> int:
    """Central Delannoy number as the binomial sum over math.comb."""
    return sum(math.comb(n, k) * math.comb(n + k, k) for k in range(n + 1))


def delannoy_lattice(count: int) -> list[int]:
    """D_0 .. D_{count-1} by counting king-move lattice paths."""
    row = [1] * count
    diag = [1]
    for _ in range(1, count):
        new = [1] * count
        for j in range(1, count):
            new[j] = new[j - 1] + row[j] + row[j - 1]
        row = new
        diag.append(row[len(diag)])
    return diag


def delannoy_by_recurrence(count: int) -> list[int]:
    """D_0 .. D_{count-1} by n D_n = 3(2n-1) D_{n-1} - (n-1) D_{n-2}."""
    out = [1, 3][:count]
    for n in range(2, count):
        out.append((3 * (2 * n - 1) * out[-1] - (n - 1) * out[-2]) // n)
    return out


def delannoy_recurrence_ok(values: list[int], lo: int) -> bool:
    """Whether consecutive values obey n D_n = 3(2n-1) D_{n-1} - (n-1) D_{n-2}."""
    return all(
        n * values[k] == 3 * (2 * n - 1) * values[k - 1] - (n - 1) * values[k - 2]
        for k, n in enumerate(range(lo, lo + len(values)))
        if k >= 2
    )


def inclusive_central_binomial_sums(count: int) -> list[int]:
    """sum(C(2i,i), i <= n) for n < count."""
    out = []
    total = 0
    for n in range(count):
        total += math.comb(2 * n, n)
        out.append(total)
    return out
