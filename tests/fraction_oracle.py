"""The Fraction and GaussRat kernels that the faster kernels replaced.

These are the generic versions of the disk count, the Schur-Cohn chain,
Descartes isolation, the rational-root search, the polynomial gcd and
Yun's squarefree decomposition on it, the sign bisection of a real root
and the number-field product (on Fraction coordinates, and as a QPoly
remainder), kept as an independent oracle: they share no arithmetic
with the code they check.  So is the minimal
polynomial of an element, by elimination on Fractions.
Refinement of a nonreal root by quadtree steps alone is kept here too, as
the reference that the Newton boxes of `numfield` are checked against,
and so is the Newton step on GaussRats, certified by the Fraction disk
count, the reference for the Newton step on integers and Pellet's test.
So is the quadtree's cell test on rectangles with rational corners, the
reference for the cell test on integer coordinates; it shares the strict
disk count with that test, and checks the cells, models, pre-tests and
real-root counts built around it.  So is the Schur-Cohn count at 0 by
squarefree factors, each split by a gcd with its reverse and the rest
bracketed alone.  The chain-first count falls back instead to one gcd
of the whole scaled polynomial with its reverse, a gcd chain on that
gcd for the multiplicities of the circle roots, and one bracket of what
that gcd leaves, with no Yun split and no second direct chain, so the
two routes share only `_unit_circle_count`; the oracle
also checks the direct chain count on every other input.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional

from quiddity import polycrit
from quiddity.numfield import BoxC, FieldElement, RatInterval, _grid, _regrid
from quiddity.polynomials import GaussRat, QPoly, count_real_roots, real_roots_isolated


def _conj(x):
    return GaussRat(x.re, -x.im) if isinstance(x, GaussRat) else x


def _abs2(x) -> Fraction:
    return x.abs2() if isinstance(x, GaussRat) else x * x


def qpoly_at_disk(p: QPoly, center: GaussRat, radius) -> tuple[GaussRat, ...]:
    """Coefficients of p(center + radius*X) over Q(i)."""
    work = [GaussRat.of(c) for c in p.coeffs]
    n = len(work) - 1
    if n < 0:
        return ()
    out = []
    for _ in range(n + 1):
        rem = work[-1]
        new = [work[-1]]
        for k in range(len(work) - 2, -1, -1):
            rem = work[k] + rem * center
            new.append(rem)
        new.reverse()
        out.append(new[0])
        work = new[1:]
        if not work:
            break
    pw = Fraction(1)
    scaled = []
    for c in out:
        scaled.append(c.scale(pw))
        pw *= Fraction(radius)
    while scaled and not scaled[-1]:
        scaled.pop()
    return tuple(scaled)


def chain(f) -> Optional[int]:
    """Schur-Cohn unit-disk count over Fractions or GaussRats, None on a
    degenerate step, with no content removal."""
    n = len(f) - 1
    if n <= 0:
        return 0
    a0, an = f[0], f[-1]
    gamma = _abs2(a0) - _abs2(an)
    if gamma == 0:
        return None
    t = [_conj(a0) * f[k] - an * _conj(f[n - k]) for k in range(n)]
    while not t[-1]:
        t.pop()
    sub = chain(t)
    if sub is None:
        return None
    return sub if gamma > 0 else n - sub


def gauss_disk_count_strict(p: QPoly, center: GaussRat, radius) -> Optional[int]:
    q = list(qpoly_at_disk(p, center, Fraction(radius)))
    inside = 0
    while not q[0]:
        q.pop(0)
        inside += 1
    got = chain(q)
    return None if got is None else inside + got


def circle_free_unit_count(q: QPoly) -> int:
    """Unit-disk count of squarefree q with q(0) != 0 and no root on the
    circle: the Fraction chain, or when it degenerates the first equal
    pair of chain counts at radii 1 -+ 2^-k."""
    a = [Fraction(c) for c in q.int_coeffs()]
    n = len(a) - 1
    direct = chain(a)
    if direct is not None:
        return direct
    for k in range(1, 65):
        inner, outer = (
            chain([c * m ** i * 2 ** (k * (n - i)) for i, c in enumerate(a)])
            for m in (2 ** k - 1, 2 ** k + 1)
        )
        if inner is not None and inner == outer:
            return inner
    raise RuntimeError("bracket did not settle")


def schur_cohn_count(p: QPoly, radius) -> polycrit.DiskRootCount:
    """The count at 0 by the route that the chain-first count replaced:
    Yun's squarefree split, then per factor q = f(rX) without its roots
    at 0, the gcd of q with its reverse for the roots on the circle and
    the conjugate-reciprocal pairs, then the bracketed Fraction chain on
    the rest."""
    r = Fraction(radius)
    total = boundary = 0
    for factor, mult in yun_decomposition(p):
        v, q = factor.scale_arg(r).strip_low()
        inside, on = v, 0
        g = gcd(q, q.reverse())
        if g.degree >= 1:
            on = polycrit._unit_circle_count(g)
            inside += (g.degree - on) // 2
            q = q // g
        if q.degree >= 1:
            inside += circle_free_unit_count(q)
        total += mult * inside
        boundary += mult * on
    return polycrit.DiskRootCount(p, r, total, "SchurCohn", boundary == 0)


def sign_variations(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def descartes_bound(p: QPoly, a: Fraction, b: Fraction) -> int:
    """Sign variations of (1 + X)^n p((a + bX)/(1 + X)), expanded afresh."""
    n = p.degree
    out = QPoly.zero()
    num, den = QPoly((a, b)), QPoly((1, 1))
    for i, c in enumerate(p.coeffs):
        term = QPoly((c,))
        for _ in range(i):
            term = term * num
        for _ in range(n - i):
            term = term * den
        out = out + term
    return sign_variations(out.coeffs)


def real_roots_isolated(p: QPoly, lo=None, hi=None) -> list[tuple[Fraction, Fraction]]:
    """Bisection on (lo, hi) at midpoints, moved to a + (b - a)/2^j when
    the midpoint is a root; squarefree p only (it loops otherwise)."""
    bound = p.cauchy_root_bound()
    lo = -bound if lo is None else Fraction(lo)
    hi = bound if hi is None else Fraction(hi)
    intervals = []
    work = [(lo, hi)]
    while work:
        a, b = work.pop()
        v = descartes_bound(p, a, b)
        if v == 1:
            intervals.append((a, b))
        elif v > 1:
            m, denom = (a + b) / 2, 4
            while p(m) == 0:
                m, denom = a + (b - a) / denom, denom * 2
            work += [(a, m), (m, b)]
    return sorted(intervals)


def gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd by Euclid over Fractions, each remainder made monic."""
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def yun_decomposition(p: QPoly) -> list[tuple[QPoly, int]]:
    """Yun's squarefree decomposition (Yun, 1976) on the Fraction gcd:
    the pairs (factor, multiplicity) with a factor of positive degree."""
    p = p.monic()
    if p.degree <= 0:
        return []
    g = gcd(p, p.derivative())
    c = p // g
    d = p.derivative() // g - c.derivative()
    out, k = [], 1
    while c.degree > 0:
        a = gcd(c, d)
        if a.degree > 0:
            out.append((a, k))
        c2 = c // a
        c, d = c2, d // a - c2.derivative()
        k += 1
    return out


def refine_real_root(p: QPoly, lo: Fraction, hi: Fraction, width: Fraction):
    """Sign bisection with p evaluated at each midpoint over Fractions."""
    flo = p(lo)
    if flo == 0 or p(hi) == 0:
        raise ValueError("endpoints of an isolating interval must not be roots")
    while hi - lo > width:
        m = (lo + hi) / 2
        fm = p(m)
        if fm == 0:
            return m, m
        if (fm > 0) == (flo > 0):
            lo = m
        else:
            hi = m
    return lo, hi


def _divisors(n: int) -> list[int]:
    """The positive divisors of n > 0, built from its factorisation by
    trial division, so a product of many small primes costs no search
    up to n."""
    divs, d = [1], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        divs = [x * d ** k for x in divs for k in range(e + 1)]
        d += 1
    if n > 1:
        divs += [x * n for x in divs]
    return divs


def rational_roots(ints: list[int]) -> list[Fraction]:
    """Every rational root of the integer polynomial by the divisors of
    its end coefficients, each candidate u/v tested exactly as
    v^n p(u/v) = 0: 0 first, then by (|numerator|, denominator),
    positive before negative."""
    p = QPoly(ints)
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        p = p.strip_low()[1]
        if p.degree < 1:
            return roots
    cs = [int(c) for c in p.coeffs]

    def vanishes(u, v):
        # v^n p(u/v), by Horner on the homogeneous form
        acc, vk = cs[-1], 1
        for c in reversed(cs[:-1]):
            vk *= v
            acc = acc * u + c * vk
        return acc == 0

    found = {
        Fraction(s * u, v)
        for u in _divisors(abs(cs[0]))
        for v in _divisors(abs(cs[-1]))
        for s in (1, -1)
        if vanishes(s * u, v)
    }
    return roots + sorted(found, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def field_mul_fraction(a: FieldElement, b: FieldElement) -> tuple[Fraction, ...]:
    """Coordinates of a * b by the Fraction product that FieldElement ran
    before its integer coordinates."""
    return _mul_coords(a.field.min_poly.coeffs, a.coords, b.coords)


def _mul_coords(poly, x, y) -> tuple[Fraction, ...]:
    # the schoolbook product, whose coefficients of X^(2d-2)..X^d are
    # folded back top-down by poly, each into the d coefficients below it
    d = len(x)
    full = [Fraction(0)] * (2 * d - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            full[i + j] += u * v
    for top in range(2 * d - 2, d - 1, -1):
        c = full[top] / poly[d]
        full[top - d:top] = [u - c * m for u, m in zip(full[top - d:top], poly)]
    return tuple(full[:d])


def element_min_poly(x: FieldElement) -> tuple[Fraction, ...]:
    """Coefficients, low degree first, of the monic minimal polynomial of
    x over Q: x^k minus its combination of 1, x, ..., x^(k-1) for the
    least k at which one exists.  The powers come from the Fraction
    product and each combination from Gauss-Jordan elimination."""
    d = x.field.degree
    powers = [(Fraction(1),) + (Fraction(0),) * (d - 1)]
    for k in range(1, d + 1):
        powers.append(_mul_coords(x.field.min_poly.coeffs, powers[-1], x.coords))
        # rows of the system sum_j c_j * powers[j] = powers[k]
        rows = [[p[i] for p in powers] for i in range(d)]
        for col in range(k):
            piv = next(r for r in range(col, d) if rows[r][col] != 0)
            rows[col], rows[piv] = rows[piv], rows[col]
            rows[col] = [v / rows[col][col] for v in rows[col]]
            for r in range(d):
                if r != col and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [u - f * v for u, v in zip(rows[r], rows[col])]
        if all(row[k] == 0 for row in rows[k:]):
            return tuple(-rows[j][k] for j in range(k)) + (Fraction(1),)
    raise AssertionError("no minimal polynomial up to the field degree")


def field_mul_via_qpoly(a: FieldElement, b: FieldElement) -> FieldElement:
    """a * b as the remainder of the QPoly product by the minimal
    polynomial, with no use of FieldElement's reduction rows."""
    field = a.field
    red = (QPoly(a.coords) * QPoly(b.coords)) % field.min_poly
    coords = list(red.coeffs) + [Fraction(0)] * (field.degree - len(red.coeffs))
    return FieldElement(field, coords)


def _dyadic(x: Fraction, shift: int) -> Fraction:
    return Fraction(round(x * (1 << shift)), 1 << shift)


def newton_box(p: QPoly, box: BoxC, width: Fraction) -> Optional[BoxC]:
    """numfield._newton_box over GaussRats: each step reads p(z) and
    p'(z) off the Taylor coefficients of p at z, rounds z - p(z)/p'(z)
    half to even to the grid of step 2^-shift, and the last iterate's
    disk is certified by the Fraction chain alone."""
    shift = (width.denominator // width.numerator).bit_length() + 8
    unit = Fraction(1, 1 << shift)
    z = GaussRat(_dyadic(box.re.mid, shift), _dyadic(box.im.mid, shift))
    for _ in range(shift.bit_length() + 4):
        value, slope = qpoly_at_disk(p, z, 1)[:2]
        if not slope:
            return None
        step = value * slope.inverse()
        z = GaussRat(_dyadic(z.re - step.re, shift), _dyadic(z.im - step.im, shift))
        if not (box.re.contains(z.re) and box.im.contains(z.im)):
            return None
        if abs(step.re) <= unit and abs(step.im) <= unit:
            break
    else:
        return None
    r = min(width / 2, z.re - box.re.lo, box.re.hi - z.re, z.im - box.im.lo, box.im.hi - z.im)
    if r <= 0 or gauss_disk_count_strict(p, z, r) != 1:
        return None
    return BoxC(RatInterval(z.re - r, z.re + r), RatInterval(z.im - r, z.im + r))


def shrink_box(p: QPoly, box: BoxC, width: Fraction) -> BoxC:
    """Refine the nonreal root isolated by box by quadtree steps alone,
    each on a grid built afresh around this module's isolating intervals
    of the real roots."""
    reals = real_roots_isolated(p)
    while box.width > width:
        box = _regrid(_grid(p.int_coeffs(), reals, Fraction(1)), box)[0]
    return box


LADDER = tuple(Fraction(m, 17) for m in (17, 18, 19, 21, 23, 26))


def split4(cell: BoxC) -> list[BoxC]:
    """The quarters of cell: lower left, lower right, upper left, upper right."""
    rm, im = cell.re.mid, cell.im.mid
    return [
        BoxC(RatInterval(cell.re.lo, rm), RatInterval(cell.im.lo, im)),
        BoxC(RatInterval(rm, cell.re.hi), RatInterval(cell.im.lo, im)),
        BoxC(RatInterval(cell.re.lo, rm), RatInterval(im, cell.im.hi)),
        BoxC(RatInterval(rm, cell.re.hi), RatInterval(im, cell.im.hi)),
    ]


def sqrt_lower(s: Fraction) -> Fraction:
    """A rational lower bound for sqrt(s), s >= 0, within 2^-12."""
    scale = 1 << 12
    return Fraction(isqrt(s.numerator * s.denominator * scale * scale), s.denominator * scale)


def cell_excluded(p: QPoly, cell: BoxC, seen: Optional[set] = None) -> bool:
    """The quadtree's cell test on a rectangle with rational corners:
    the strict disk count of polycrit at the Fraction centre and radius
    of each rung, and count_real_roots on the real trace of each disk
    that crosses the axis.  `seen`, when given, collects the branches
    taken: "below" (a centre below the axis), "none" (a rung whose count
    degenerated), "tangent" (a disk tangent to the axis with roots in
    it) and "trace" (an exclusion by the real count)."""
    seen = set() if seen is None else seen
    r0 = (cell.re.width + cell.im.width) / 2
    c = cell.center
    if c.im < 0:
        seen.add("below")
    for mult in LADDER:
        r = r0 * mult
        got = polycrit.gauss_disk_count_strict(p, c, r)
        if got is None:
            seen.add("none")
            continue
        if got == 0:
            return True
        if abs(c.im) >= r:
            if abs(c.im) == r:
                seen.add("tangent")
            return False
        rho = sqrt_lower(r * r - c.im * c.im)
        if rho > 0 and got == count_real_roots(p, c.re - rho, c.re + rho):
            seen.add("trace")
            return True
    return False
