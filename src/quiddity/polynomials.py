"""Exact rational and Gaussian-rational polynomial arithmetic.

The public type, QPoly, carries fractions.Fraction coefficients, so
nothing ever rounds.  The hot loops run on integer models, the
primitive integer coefficient lists of int_coeffs, instead: the gcd is
a primitive pseudo-remainder sequence, Descartes isolation of real
roots bisects (0, 1) by integer halvings and Taylor shifts (Collins and
Akritas, 1976), refinement reads each sign from a homogenised integer
evaluation, and the Taylor shift at a Gaussian-rational centre for disk
counts returns a positive multiple of the shifted polynomial with
Gaussian-integer coefficients.  The Fraction routes they replaced are
kept as the test oracle (tests/fraction_oracle.py).

Scalar resultants, Lagrange interpolation and the composed product built
from them serve only as the independent test oracle for the equality
verdicts of numfield.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rat(value) -> Fraction:
    """Coerce ints, strings like "5/2" or "1.6", and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) or isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def is_perfect_square(q: Fraction) -> bool:
    if q < 0:
        return False
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def rational_sqrt(q: Fraction) -> Fraction:
    """Exact square root of a perfect-square rational."""
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


@dataclass(frozen=True, init=False, repr=False)
class QPoly:
    """Dense univariate polynomial over Q, low-degree coefficient first,
    an immutable value compared by its coefficients.

    The zero polynomial has empty coefficients and degree -1 (flagged by
    is_zero); every other instance keeps a nonzero leading coefficient.
    """

    # slots by hand: on Python 3.11 a frozen slots=True dataclass raises
    # TypeError, not AttributeError, when an unknown attribute is set
    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers ------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "QPoly(0)"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*X" if c != 1 else "X")
            else:
                parts.append(f"{c}*X^{k}" if c != 1 else f"X^{k}")
        return "QPoly(" + " + ".join(parts) + ")"

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_rat(other)
            return QPoly(tuple(c * a for a in self.coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return QPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly((other,))
        return NotImplemented

    def __divmod__(self, other: "QPoly"):
        if not isinstance(other, QPoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree
        lcq = other.lc()
        quo = [ZERO] * max(len(rem) - dq, 1)
        for k in range(len(rem) - dq - 1, -1, -1):
            c = rem[k + dq] / lcq
            if c != 0:
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return QPoly(quo), QPoly(rem[:dq] if dq > 0 else ())

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        """Horner evaluation; works for Fraction, field elements, boxes."""
        if self.is_zero:
            return ZERO if isinstance(x, (int, Fraction)) else x * 0
        acc = x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    # -- calculus and rewrites ---------------------------------------------

    def derivative(self) -> "QPoly":
        return QPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def monic(self) -> "QPoly":
        if self.is_zero:
            return self
        l = self.lc()
        return self if l == 1 else self * (1 / l)

    def gcd(self, other: "QPoly") -> "QPoly":
        """The monic gcd (0 when both are 0), from the primitive
        pseudo-remainder sequence of the integer models; the Fraction
        Euclid it replaced is kept as the test oracle."""
        a, b = self.int_coeffs(), other.int_coeffs()
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _primitive_prem(a, b)
        return QPoly(a).monic()

    def scale_arg(self, r) -> "QPoly":
        """p(r*X)."""
        r = as_rat(r)
        pw = ONE
        out = []
        for c in self.coeffs:
            out.append(c * pw)
            pw *= r
        return QPoly(out)

    def reverse(self) -> "QPoly":
        """X^deg * p(1/X): the coefficient-reversed polynomial."""
        return QPoly(tuple(reversed(self.coeffs)))

    def strip_low(self) -> tuple[int, "QPoly"]:
        """Split off X^v: returns (v, p // X^v)."""
        if self.is_zero:
            return 0, self
        v = 0
        while self.coeffs[v] == 0:
            v += 1
        return v, QPoly(self.coeffs[v:])

    def int_coeffs(self) -> list[int]:
        """Primitive integer coefficient vector with positive leading term."""
        if self.is_zero:
            return []
        den = math.lcm(*[c.denominator for c in self.coeffs])
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = math.gcd(*ints)
        return [v // g for v in ints] if ints[-1] > 0 else [-v // g for v in ints]

    def squarefree_part(self) -> "QPoly":
        if self.degree <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        return (self // g).monic()

    def cauchy_root_bound(self) -> Fraction:
        """All complex roots have modulus < this bound."""
        if self.degree < 1:
            return ONE
        l = abs(self.lc())
        m = max(abs(c) for c in self.coeffs[:-1])
        return 1 + m / l


# ---------------------------------------------------------------------------
# Real roots: Descartes sign variations driving interval bisection.
# ---------------------------------------------------------------------------


class NotSquarefree(ValueError):
    """A polynomial that must be squarefree has a repeated root."""


def sign_variations(coeffs: Sequence) -> int:
    count = 0
    last = 0
    for c in coeffs:
        if c == 0:
            continue
        s = 1 if c > 0 else -1
        if last != 0 and s != last:
            count += 1
        last = s
    return count


def _taylor_shift(a: list, c) -> list:
    """The coefficients of A(X + c) for ints, computed in place."""
    n = len(a) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            a[k] += c * a[k + 1]
    return a


def _recentre(
    a: list[int], c_re: Fraction, c_im: Fraction, radius: Fraction
) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of d^n A(c_re + i c_im + radius*X) for the
    integer polynomial A of degree n, with d the common denominator of
    c_re, c_im and radius: d^n A(Y/d) = sum a_k d^(n-k) Y^k is shifted by
    the Gaussian integer d(c_re + i c_im), then scaled by (d*radius)^k."""
    n = len(a) - 1
    d = math.lcm(c_re.denominator, c_im.denominator, radius.denominator)
    cr = c_re.numerator * (d // c_re.denominator)
    ci = c_im.numerator * (d // c_im.denominator)
    s = radius.numerator * (d // radius.denominator)
    re = [c * d ** (n - k) for k, c in enumerate(a)]
    im = [0] * (n + 1)
    # at the centre 0 every step of the shift adds 0
    for i in range(n if cr or ci else 0):
        for k in range(n - 1, i - 1, -1):
            r1, i1 = re[k + 1], im[k + 1]
            re[k] += cr * r1 - ci * i1
            im[k] += cr * i1 + ci * r1
    pw = 1
    for k in range(n + 1):
        re[k] *= pw
        im[k] *= pw
        pw *= s
    return re, im


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """The primitive part, with positive leading term, of the remainder
    of a by b (len(a) >= len(b) >= 1); [] when b divides a.

    Each step cancels the top term of a as lc(b) a - c X^k b, with both
    factors divided by gcd(lc(b), c).  The result is a positive rational
    multiple of lc(b)^(deg a - deg b + 1) a mod b, so it has the same
    primitive part (Collins, 1967; Brown and Traub, 1971).
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    for k in range(len(r) - 1 - db, -1, -1):
        c = r.pop()
        if c:
            g = math.gcd(lb, c)
            s, c = lb // g, c // g
            if s != 1:
                r = [x * s for x in r]
            for j in range(db):
                r[k + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return r
    g = math.gcd(*r)
    return [x // g for x in r] if r[-1] > 0 else [-x // g for x in r]


def _separation_bound(a: list[int]) -> Fraction:
    """A lower bound on the distance between distinct roots of the
    integer polynomial a, of degree n >= 1, when it is squarefree.

    Mahler (1964): the distance is at least sqrt(3|D|) n^(-(n+2)/2)
    M^(-(n-1)), with the discriminant D a nonzero integer and the
    Mahler measure M at most the 2-norm of a (Landau).
    """
    n = len(a) - 1
    norm = math.isqrt(sum(c * c for c in a)) + 1
    return Fraction(1, n ** ((n + 3) // 2) * norm ** (n - 1))


def real_roots_isolated(
    p: QPoly, lo: Fraction | None = None, hi: Fraction | None = None
) -> tuple[list[tuple[Fraction, Fraction]], list[Fraction]]:
    """Isolate the real roots of a squarefree p inside (lo, hi).

    Returns (open intervals each containing exactly one root, []).
    Endpoints of the returned intervals are never roots, so rational
    roots come back as ordinary intervals; the empty second list stays
    for callers that unpack the pair.

    The interval is mapped onto (0, 1) once, as the primitive integer
    polynomial f(x) = c p(lo + (hi - lo) x).  A subinterval carries its
    own such polynomial, and the sign variations of the reversed
    polynomial shifted by 1, (1 + x)^n f(1/(1 + x)), bound its roots
    (Descartes' rule).  A subinterval splits at its midpoint, or at
    a + (b - a)/2^j for the least j where that point is no root.  The
    halves are f(x/2^j) and f(2^-j + (1 - 2^-j) x), scaled to integers.
    Roots sitting exactly on lo or hi are outside the open interval and
    never counted.

    An interval narrower than half the root separation bound of p that
    still shows two sign variations raises NotSquarefree: by the
    two-circle theorem (Alesina and Galuzzi, 1998) the two circles over
    it, of diameter under sqrt(3) times its width, then hold two roots
    or a multiple one, and two distinct roots cannot be that close.
    """
    if p.degree < 1:
        return [], []
    if lo is None or hi is None:
        bound = p.cauchy_root_bound()
        lo = -bound if lo is None else lo
        hi = bound if hi is None else hi
    lo, hi = as_rat(lo), as_rat(hi)
    if hi <= lo:
        return [], []
    width = hi - lo
    ints = p.int_coeffs()
    n = len(ints) - 1
    f = _primitive(_recentre(ints, lo, ZERO, width)[0])
    tiny = _separation_bound(ints) / (2 * width)
    intervals: list[tuple[Fraction, Fraction]] = []
    work = [(ZERO, ONE, f)]
    while work:
        a, b, f = work.pop()
        v = sign_variations(_taylor_shift(f[::-1], 1))
        if v == 0:
            continue
        if v == 1:
            intervals.append((lo + width * a, lo + width * b))
            continue
        if b - a < tiny:
            raise NotSquarefree(
                f"{p!r} has a repeated root in ({lo + width * a}, {lo + width * b})"
            )
        j = 1
        while True:
            left = [c << (j * (n - k)) for k, c in enumerate(f)]
            if sum(left):  # 2^(jn) f(2^-j), zero iff the split point is a root
                break
            j += 1
        right = _taylor_shift(list(left), 1)
        if j > 1:
            s = (1 << j) - 1
            right = [c * s ** k for k, c in enumerate(right)]
        m = a + (b - a) / (1 << j)
        work.append((a, m, _primitive(left)))
        work.append((m, b, _primitive(right)))
    intervals.sort()
    return intervals, []


def count_real_roots(p: QPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of real roots of squarefree p in the open interval (lo, hi)."""
    return len(real_roots_isolated(p, lo, hi)[0])


def refine_real_root(
    p: QPoly, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a simple root by sign bisection.

    Each sign is read from the integer model a of degree n: at x = u/v
    with v > 0, sum a_k u^k v^(n-k) = v^n a(x) has the sign of a(x), and
    a is a nonzero multiple of p.  Returns (m, m) when a midpoint m is
    the root.  The Fraction bisection it replaced is kept as the test
    oracle.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    a = p.int_coeffs()
    slo = _sign_at(a, lo)
    if slo == 0 or _sign_at(a, hi) == 0:
        raise ValueError("endpoints of an isolating interval must not be roots")
    while hi - lo > width:
        m = (lo + hi) / 2
        sm = _sign_at(a, m)
        if sm == 0:
            return m, m
        if sm == slo:
            lo = m
        else:
            hi = m
    return lo, hi


def _sign_at(a: list[int], x: Fraction) -> int:
    """The sign of the integer polynomial a at x, by homogenised Horner."""
    u, v = x.numerator, x.denominator
    acc, pw = 0, 1
    for c in reversed(a):
        acc = acc * u + c * pw
        pw *= v
    return (acc > 0) - (acc < 0)


# ---------------------------------------------------------------------------
# Gaussian rationals and the little complex-coefficient layer needed for
# disk counting at complex centers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussRat:
    """Element of Q(i) with exact components."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re, im=0) -> "GaussRat":
        return cls(as_rat(re), as_rat(im))

    def __add__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRat":
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussRat(self.re / n, -self.im / n)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def scale(self, r: Fraction) -> "GaussRat":
        return GaussRat(self.re * r, self.im * r)


def qpoly_at_disk(p: QPoly, center: GaussRat, radius) -> tuple[tuple[int, int], ...]:
    """A positive multiple of p(center + radius*X), low degree first, as
    primitive Gaussian-integer coefficients (re, im).

    The multiple is d^n p(center + radius*X) times the positive integer
    that clears the denominators of p, for d that of center and radius.
    """
    if p.is_zero:
        return ()
    ints = p.int_coeffs()
    if p.lc() < 0:
        ints = [-c for c in ints]
    re, im = _recentre(ints, center.re, center.im, as_rat(radius))
    g = math.gcd(*re, *im)
    # from a list, not a generator: a tuple built from a generator is
    # resized, and CPython then parks each final size on its tuple free
    # list, up to 2000 per size (about 1 MB of peak memory on `roots`)
    return tuple([(x // g, y // g) for x, y in zip(re, im)])


# ---------------------------------------------------------------------------
# Resultants and interpolation: the test oracle for equality verdicts.
# ---------------------------------------------------------------------------


def resultant(f: QPoly, g: QPoly) -> Fraction:
    """Res(f, g) over Q by the Euclidean remainder formula."""
    if f.is_zero or g.is_zero:
        return ZERO
    if f.degree == 0:
        return f.lc() ** g.degree
    if g.degree == 0:
        return g.lc() ** f.degree
    r = f % g
    if r.is_zero:
        return ZERO
    sign = -1 if (f.degree % 2 == 1 and g.degree % 2 == 1) else 1
    return sign * g.lc() ** (f.degree - r.degree) * resultant(g, r)


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> QPoly:
    """The unique polynomial of degree < len(points) through the points."""
    total = QPoly.zero()
    xs = [as_rat(x) for x, _ in points]
    for i, (xi, yi) in enumerate(points):
        xi, yi = as_rat(xi), as_rat(yi)
        if yi == 0:
            continue
        num = QPoly.one()
        den = ONE
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * QPoly((-xj, 1))
            den *= xi - xj
        total = total + num * (yi / den)
    return total


def composed_product(q: QPoly) -> QPoly:
    """Polynomial whose roots are all pairwise products of roots of q.

    Computed as Res_X(q(X), X^m q(Y/X)) by evaluation at integer sample
    points followed by interpolation; the X-degree of both arguments is
    constant in Y, so sampling commutes with the resultant.
    """
    m = q.degree
    if m < 1:
        return QPoly.one()
    target_deg = m * m
    samples: list[tuple[Fraction, Fraction]] = []
    y = 0
    while len(samples) < target_deg + 1:
        yv = as_rat(y)
        # X^m q(y/X) = sum_j b_j y^j X^(m-j)
        h = [ZERO] * (m + 1)
        pw = ONE
        for j, b in enumerate(q.coeffs):
            h[m - j] = b * pw
            pw *= yv
        samples.append((yv, resultant(q, QPoly(h))))
        y = -y + (1 if y <= 0 else 0)  # 0, 1, -1, 2, -2, ...
    return lagrange_interpolate(samples)
