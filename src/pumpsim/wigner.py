"""Wigner 3j and 6j coefficients for small angular momenta.

The Racah sums are exact integer fractions, converted to float by one
correctly rounded integer division, so the squared coefficients used for
branching ratios are accurate to machine precision over the D2-line range
of arguments. Integer and half-integer arguments are accepted.
"""

from math import factorial, prod, sqrt


def _two(j) -> int:
    """Doubled-integer representation of an (half-)integer argument."""
    t = round(2 * j)
    if abs(2 * j - t) > 1e-9:
        raise ValueError(f"angular momentum {j} is not integer or half-integer")
    return int(t)


def _fact2(n2: int) -> int:
    """factorial(n2 / 2) for an even, nonnegative doubled integer."""
    if n2 < 0 or n2 % 2:
        raise ValueError("factorial argument must be a nonnegative integer")
    return factorial(n2 // 2)


def _triangle_ok(a: int, b: int, c: int) -> bool:
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0


def _delta2(a: int, b: int, c: int) -> tuple[int, int]:
    """Squared triangle coefficient, exact, as (numerator, denominator)."""
    return (
        _fact2(a + b - c) * _fact2(a - b + c) * _fact2(-a + b + c),
        _fact2(a + b + c + 2),
    )


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    a, b, c = _two(j1), _two(j2), _two(j3)
    ma, mb, mc = _two(m1), _two(m2), _two(m3)
    if ma + mb + mc != 0:
        return 0.0
    if not _triangle_ok(a, b, c):
        return 0.0
    if abs(ma) > a or abs(mb) > b or abs(mc) > c:
        return 0.0
    if (a + ma) % 2 or (b + mb) % 2 or (c + mc) % 2:
        return 0.0

    pre_num, pre_den = _delta2(a, b, c)
    pre_num *= (
        _fact2(a + ma) * _fact2(a - ma)
        * _fact2(b + mb) * _fact2(b - mb)
        * _fact2(c + mc) * _fact2(c - mc)
    )

    kmin = max(0, (b - c - ma) // 2, (a - c + mb) // 2)
    kmax = min((a + b - c) // 2, (a - ma) // 2, (b + mb) // 2)
    num, den = 0, 1
    for k in range(kmin, kmax + 1):
        denom = (
            factorial(k)
            * _fact2(a + b - c - 2 * k)
            * _fact2(a - ma - 2 * k)
            * _fact2(b + mb - 2 * k)
            * _fact2(c - b + ma + 2 * k)
            * _fact2(c - a - mb + 2 * k)
        )
        num, den = num * denom + (-1) ** k * den, den * denom

    sign = -1.0 if ((a - b - mc) // 2) % 2 else 1.0
    return sign * (num / den) * sqrt(pre_num / pre_den)


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    a, b, c = _two(j1), _two(j2), _two(j3)
    d, e, f = _two(j4), _two(j5), _two(j6)
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    for tri in triads:
        if not _triangle_ok(*tri):
            return 0.0

    pre_num, pre_den = map(prod, zip(*(_delta2(*tri) for tri in triads)))

    tri_sums = [sum(tri) // 2 for tri in triads]
    pair_sums = [
        (a + b + d + e) // 2,
        (b + c + e + f) // 2,
        (a + c + d + f) // 2,
    ]
    num, den = 0, 1
    for t in range(max(tri_sums), min(pair_sums) + 1):
        denom = 1
        for s in tri_sums:
            denom *= factorial(t - s)
        for p in pair_sums:
            denom *= factorial(p - t)
        num, den = num * denom + (-1) ** t * factorial(t + 1) * den, den * denom

    return (num / den) * sqrt(pre_num / pre_den)
