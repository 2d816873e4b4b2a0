"""Exact counts of rooted triangulations of a polygon.

Counts are indexed by ``(n, p)``: ``n`` internal vertices and a boundary
that is a simple cycle of ``p`` edges (``p >= 2``).  Maps are rooted on an
oriented boundary edge with the polygon interior on its left, loops are
forbidden, multiple edges are allowed.  The module offers two independent
routes to the same numbers:

* :func:`count_triangulations`, a closed product formula, exact over the
  integers (its ``n = 0`` row reduces algebraically to the Catalan
  numbers, the classical polygon triangulation counts);
* :func:`count_decomposition`, a memoized recursion that mirrors peeling
  the root edge (the revealed triangle either carries a fresh internal
  apex or swallows part of the boundary, splitting the polygon in two).

The recursion is used as the brute-force oracle in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError


def catalan(m: int) -> int:
    if m < 0:
        return 0
    return math.comb(2 * m, m) // (m + 1)


def _check_np(n: int, p: int) -> None:
    if p < 2:
        raise DomainError(f"boundary length p={p} must be at least 2")
    if n < 0:
        raise DomainError(f"internal vertex count n={n} must be nonnegative")


def count_formula_raw(n: int, p: int) -> Fraction:
    """Closed formula evaluated exactly as a rational number.

    Returned un-rounded so the integrality of every evaluation can be
    checked rather than assumed.
    """
    _check_np(n, p)
    num = (
        math.factorial(2 * p - 3)
        * 2 ** (n + 1)
        * math.factorial(2 * p + 3 * n - 4)
    )
    den = (
        math.factorial(p - 2) ** 2
        * math.factorial(n)
        * math.factorial(2 * p + 2 * n - 2)
    )
    return Fraction(num, den)


def count_triangulations(n: int, p: int) -> int:
    """Number of rooted triangulations of the p-gon with n internal vertices."""
    value = count_formula_raw(n, p)
    if value.denominator != 1:
        raise DomainError(f"closed count formula non-integral at n={n}, p={p}")
    return value.numerator


@lru_cache(maxsize=None)
def _count_rec(n: int, p: int) -> int:
    if n < 0 or p < 2:
        return 0
    if p == 2 and n == 0:
        return 1
    total = _count_rec(n - 1, p + 1)
    for k in range(1, p - 1):
        for m in range(n + 1):
            left = _count_rec(m, k + 1)
            if left:
                total += left * _count_rec(n - m, p - k)
    return total


def count_decomposition(n: int, p: int) -> int:
    """Oracle count via the root-edge case analysis.

    Peeling the root edge of a triangulation of the p-gon reveals one
    triangle: either its apex is a fresh internal vertex (leaving a
    (p+1)-gon with n-1 internal vertices) or the apex is the k-th
    boundary vertex, splitting the polygon into a (k+1)-gon and a
    (p-k)-gon whose internal vertices partition n.  Independent of the
    closed formula.
    """
    _check_np(n, p)
    return _count_rec(n, p)


def count_ratio(n: int, p: int) -> Fraction:
    """count(n+1, p) / count(n, p), exact.

    Tends to 27/2 as n grows, from below.  It is not below 27/2 for
    every n: count_ratio(0, p) is (2p - 2)(2p - 3) / p, past 27/2 from
    p = 6 on.  But once below, it stays below: with b = 2p + 3n,
    27/2 - count_ratio(n, p) has the sign of

        27 (n + 1)(2p + 2n)(2p + 2n - 1) - 4 (b - 1)(b - 2)(b - 3)
          = 270 n^2 + (450 p - 36 p^2 - 186) n + (204 p^2 - 32 p^3 - 142 p + 24),

    a quadratic in n with positive leading term.  For p <= 5 its other
    two coefficients are positive too, and for p >= 6 its value at 0 is
    negative, so either way the n >= 0 where the ratio is at least 27/2
    form an initial segment.  The certified tail bounds of the partition
    function series and the fill volume tables rely on that.
    """
    _check_np(n, p)
    b = 2 * p + 3 * n
    return Fraction(
        2 * (b - 1) * (b - 2) * (b - 3),
        (n + 1) * (2 * p + 2 * n) * (2 * p + 2 * n - 1),
    )
