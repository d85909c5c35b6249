"""Exact combinatorial primitives.

All rational values are carried by :class:`fractions.Fraction`, which stores
numbers reduced (gcd of numerator and denominator is 1) with a positive
denominator, so every result here is exact at arbitrary precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "binomial",
    "pochhammer",
    "falling_product",
    "fibonacci",
    "beta_int",
]


def binomial(n: int, j: int) -> int:
    """C(n, j) as an exact integer; 0 when j > n."""
    if n < 0 or j < 0:
        raise ValueError("binomial requires nonnegative arguments")
    return math.comb(n, j)


def pochhammer(x: Fraction | int, m: int) -> Fraction:
    """Rising factorial x(x+1)...(x+m-1); the empty product (m=0) is 1."""
    if m < 0:
        raise ValueError("pochhammer requires m >= 0")
    # With x = p/q: prod_i (p + iq) / q^m, one integer product.
    p, q = Fraction(x).as_integer_ratio()
    return Fraction(math.prod(range(p, p + m * q, q)), q**m)


def falling_product(n: int, m: int) -> int:
    """n(n-1)...(n-m+1), exactly m factors; the empty product (m=0) is 1."""
    if n < 1:
        raise ValueError("falling_product requires n >= 1")
    if not 0 <= m <= n:
        raise ValueError("falling_product requires 0 <= m <= n")
    return math.perm(n, m)


def fibonacci(j: int) -> int:
    """Fibonacci number with the F_1 = F_2 = 1 convention."""
    if j < 1:
        raise ValueError("fibonacci requires j >= 1")
    a, b = 1, 1
    for _ in range(j - 1):
        a, b = b, a + b
    return a


def beta_int(a: int, x: Fraction | int) -> Fraction:
    """Beta function B(a, x) for integer a >= 1 and rational x > 0.

    Evaluated exactly as (a-1)! / (x)_a, the Gamma-ratio form specialized to
    an integer first argument.  No floating point is involved.
    """
    if a < 1:
        raise ValueError("beta_int requires a >= 1")
    x = Fraction(x)
    if x <= 0:
        raise ValueError("beta_int requires x > 0")
    return Fraction(math.factorial(a - 1)) / pochhammer(x, a)
