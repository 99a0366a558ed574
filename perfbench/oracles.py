"""Independent checks for the benchmark's outputs.

Nothing here calls the library: polynomials are plain coefficient
lists (constant term first), evaluated exactly with Fractions or
approximately with complex floats.  The float root finder only ever
confirms a certified answer, and only where every root sits clear of
the decision boundary by `MARGIN`; closer cases are left unchecked
rather than guessed.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Optional, Sequence

MARGIN = 1e-6


def horner(coeffs: Sequence, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def is_squarefree(coeffs: Sequence[int]) -> bool:
    """gcd(p, p') is constant, by Euclid's algorithm over Q."""
    a = [Fraction(c) for c in coeffs]
    b = [i * c for i, c in enumerate(a)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
            if not a:
                break
        a, b = b, a
    return len(a) == 1


def has_rational_root(coeffs: Sequence[int]) -> bool:
    """Rational-root test for an integer polynomial by the divisors of
    the constant and leading terms."""
    if coeffs[0] == 0:
        return True
    a0, an = abs(coeffs[0]), abs(coeffs[-1])
    nums = [d for d in range(1, a0 + 1) if a0 % d == 0]
    dens = [d for d in range(1, an + 1) if an % d == 0]
    return any(
        horner(coeffs, Fraction(s * p, q)) == 0
        for p in nums for q in dens for s in (1, -1)
    )


def roots(coeffs: Sequence, iterations: int = 500) -> Optional[list[complex]]:
    """All complex roots by the Durand-Kerner iteration, or None when it
    has not converged to a residual near machine precision."""
    c = [complex(float(x)) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    n = len(c) - 1
    if n < 1:
        return []
    lead = c[-1]
    c = [x / lead for x in c]
    radius = 1 + max(abs(x) for x in c[:-1])
    z = [radius * cmath.exp(2j * cmath.pi * (k + 0.25) / n) for k in range(n)]
    for _ in range(iterations):
        moved = 0.0
        for i in range(n):
            den = 1 + 0j
            for j in range(n):
                if j != i:
                    den *= z[i] - z[j]
            if den == 0:
                return None
            step = horner(c, z[i]) / den
            z[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-15 * radius:
            break
    scale = sum(abs(x) for x in c)
    if any(abs(horner(c, r)) > 1e-9 * scale * max(1.0, abs(r)) ** n for r in z):
        return None
    if min((abs(z[i] - z[j]) for i in range(n) for j in range(i)), default=1.0) < 1e-6:
        return None
    return z


def count_in_disk(rs: Sequence[complex], center: complex, radius: float) -> Optional[int]:
    """Roots strictly inside the disk, or None when one is within MARGIN
    of the circle."""
    count = 0
    for r in rs:
        d = abs(r - center) - radius
        if abs(d) < MARGIN:
            return None
        count += d < 0
    return count


def box_contains(box, z: complex, slack: float = 0.0) -> bool:
    """Whether a library rectangle (exact Fraction corners) holds z."""
    return (
        float(box.re.lo) - slack <= z.real <= float(box.re.hi) + slack
        and float(box.im.lo) - slack <= z.imag <= float(box.im.hi) + slack
    )


def verdict(value: float, threshold: float) -> Optional[str]:
    """The comparison a certified modulus test should report, or None
    when value is within MARGIN of threshold."""
    if abs(value - threshold) < MARGIN:
        return None
    return "Greater" if value > threshold else "Less"
