"""Number fields presented by a minimal polynomial, with certified roots.

A field is its monic minimal polynomial plus one isolating rectangle per
complex root; a distinguished index says which root the generator means.
Elements are exact coordinate vectors on the power basis, integer
numerators over one denominator, so all algebra is exact (a product
folds its powers X^(2d-2)..X^d back top-down by the primitive integer
minimal polynomial and builds no Fraction); only questions about a
specific embedding (which root is bigger, is the modulus at least 2)
touch the rectangles, and those are answered by refining rectangles
until the answer is certified, never by floating point.  An equality is
certified by a zero bound: a nonzero algebraic integer has norm at least
1, so an interval narrower than the bound that holds both sides proves
them equal.

Real roots are isolated by sign-variation bisection on integer
coefficients and refined by rational bisection.  Nonreal roots are
isolated in the upper half plane by a quadtree on integer cells.  Every
disk count there is read off root enclosures, disjoint disks on the
2^-bits grid that each hold one root: an Aberth-Ehrlich iteration on
Gaussian integers of the grid approximates all the roots, and Smith's
theorem turns the points into closed disks, returned only when they are
pairwise disjoint.  A disk that an enclosure straddles is skipped.  The
grid starts at 64 bits and doubles wherever Smith's disks overlap or the
cells come within 16 bits of it, so a cluster of roots gets a finer grid
instead of a slower count.  One limit ends both the doubling and the
subdivision: twice the bits of the root separation bound, and at least
64.  Where the disks still overlap on that grid, or cells 16 bits coarser
than it have not isolated the roots, the isolation gives up.  A cell is
dropped once a disk around it provably holds no nonreal root: its count
equals the real roots on the disk's trace, counted on their isolating
intervals.  A cluster of cells is accepted once a disk around it provably
holds exactly one root.  The lower half holds the conjugates.

A nonreal isolating box is refined by Newton's method from its centre,
on Gaussian rationals rounded to a dyadic grid; each step is one integer
Horner pass over the grid point's Gaussian-integer numerator, which gives
p(z) and p'(z) up to powers of the grid's step.  The refined box is the
square around one open disk inside the old box that provably holds
exactly one root, so it holds the old box's one root: Pellet's test
certifies the disk when the linear term of p recentred on it dominates.
When Newton does not converge or that test fails, one quadtree step
shrinks the box and Newton starts again.  A refinement keeps one grid:
its first quadtree step builds it, and each later step carries it on to
finer cells, as the isolation does from one depth to the next.  Both
steps commute with complex conjugation (the dyadic rounding is half to
even, and the cell test is symmetric), so a box below the real axis
needs no path of its own.  An embedding evaluates the element on the
root's box by interval Horner on integers: the element's numerators over
its one denominator, and the corners over their common denominator.

A field is only built over an irreducible polynomial, and that is
decided, not assumed.  The cheap certificates of polycrit settle most
inputs; when they do not, the isolated roots are searched for a factor:
every set of roots closed under conjugation, of total size up to half
the degree, gives a product whose coefficients, refined until each
interval is narrower than 1, name the one integer candidate that exact
division then checks.  Either a witness factor is found or the search
proves irreducibility by exhaustion.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd, isqrt, lcm, prod
from numbers import Rational
from operator import mul
from typing import Callable, Optional, Sequence

from .polynomials import (
    GaussRat,
    NotSquarefree,
    QPoly,
    _recentre,
    _separation_bound,
    _sign_at,
    as_rat,
    is_perfect_square,
    rational_sqrt,
    real_roots_isolated,
    refine_real_root,
)
from .polycrit import (
    _ceil_sqrt,
    _pellet,
    _trial_division,
    irreducible_over_Q,
)


class NotMonic(ValueError):
    """Minimal polynomial cannot be normalized to a monic one."""


class NotIrreducible(ValueError):
    """Candidate minimal polynomial factors over Q; `factor` is a witness
    that divides it exactly."""

    def __init__(self, factor: QPoly):
        super().__init__(f"minimal polynomial factors; witness factor {factor!r}")
        self.factor = factor


class AmbiguousHint(ValueError):
    """Root hint matches zero roots, or cannot be narrowed to one."""


class ZeroGenerator(ValueError):
    """Subgroup membership is degenerate for w = 0."""


class UndecidableAtPrecision(RuntimeError):
    """A certified answer was not reached within the allowed refinement."""


# the rounds of embed's refinement
_MAX_DEPTH = 64


# ---------------------------------------------------------------------------
# Exact interval and rectangle arithmetic.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    @classmethod
    def make(cls, lo, hi) -> "RatInterval":
        lo, hi = as_rat(lo), as_rat(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        return cls(lo, hi)

    @classmethod
    def point(cls, v) -> "RatInterval":
        v = as_rat(v)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_rat(other)
            return RatInterval(self.lo + q, self.hi + q)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_rat(other)
            a, b = self.lo * q, self.hi * q
            return RatInterval(min(a, b), max(a, b))
        ps = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(ps), max(ps))

    __rmul__ = __mul__

    def sq(self) -> "RatInterval":
        if self.lo <= 0 <= self.hi:
            return RatInterval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))
        a, b = self.lo * self.lo, self.hi * self.hi
        return RatInterval(min(a, b), max(a, b))

    def contains(self, v) -> bool:
        v = as_rat(v)
        return self.lo <= v <= self.hi

    def touches(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


@dataclass(frozen=True)
class BoxC:
    """Axis-aligned rectangle in C with exact rational corners."""

    re: RatInterval
    im: RatInterval

    @classmethod
    def make(cls, re_lo, re_hi, im_lo, im_hi) -> "BoxC":
        return cls(RatInterval.make(re_lo, re_hi), RatInterval.make(im_lo, im_hi))

    @classmethod
    def point(cls, re, im=0) -> "BoxC":
        return cls(RatInterval.point(re), RatInterval.point(im))

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    @property
    def center(self) -> GaussRat:
        return GaussRat(self.re.mid, self.im.mid)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return BoxC(self.re + other, self.im)
        return BoxC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BoxC(self.re * other, self.im * other)
        return BoxC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conj(self) -> "BoxC":
        return BoxC(self.re, -self.im)

    def abs2(self) -> RatInterval:
        return self.re.sq() + self.im.sq()

    def touches(self, other: "BoxC") -> bool:
        return self.re.touches(other.re) and self.im.touches(other.im)

    def within(self, other: "BoxC") -> bool:
        return (
            other.re.lo <= self.re.lo and self.re.hi <= other.re.hi
            and other.im.lo <= self.im.lo and self.im.hi <= other.im.hi
        )

    def is_point(self) -> bool:
        return self.re.width == 0 and self.im.width == 0

    def is_real_line(self) -> bool:
        return self.im.lo == 0 and self.im.hi == 0

    def sort_key(self):
        return (self.re.lo, self.re.hi, self.im.lo, self.im.hi)


# ---------------------------------------------------------------------------
# Certified root enclosures on the 2^-bits grid.
# ---------------------------------------------------------------------------


def _horner(b: list[int], x: int, y: int) -> tuple[int, int, int, int]:
    """B(z) and B'(z) at the Gaussian integer z = x + iy, as (re, im, re,
    im), by one Horner pass over the integers b, low degree first."""
    vr, vi, dr, di = b[-1], 0, 0, 0
    for c in reversed(b[:-1]):
        dr, di = dr * x - di * y + vr, dr * y + di * x + vi
        vr, vi = vr * x - vi * y + c, vr * y + vi * x
    return vr, vi, dr, di


def _smith_disks(
    ints: list[int], zs: list[tuple[int, int]], bits: int
) -> Optional[list[tuple[int, int, int]]]:
    """Disjoint closed disks (x, y, r) around the points zs of the 2^-bits
    grid, one per degree of the integer polynomial ints, each holding
    exactly one of its roots with its multiplicity: centre (x + iy) 2^-bits
    and radius r 2^-bits; None where they are not disjoint.  With distinct
    z_i, every root lies in a disk |z - z_i| <= n |p(z_i)| / (|a_n|
    prod_{j != i} |z_i - z_j|), and a disk that meets no other holds
    exactly one (B. T. Smith, 1970).  Each r is the integer ceiling of that
    radius in grid units, from exact Gaussian-integer norms, and the disks
    are returned only when N(Z_i - Z_j) > (r_i + r_j)^2 for every pair."""
    n = len(ints) - 1
    b = [c << bits * (n - k) for k, c in enumerate(ints)]
    norms = [[(x - u) ** 2 + (y - v) ** 2 for u, v in zs] for x, y in zs]
    scale = ints[-1] ** 2
    radii = []
    for i, (x, y) in enumerate(zs):
        # |p(z_i)| 2^(bits n) = |V|, and prod |z_i - z_j| 2^(bits (n-1)) = sqrt(gaps)
        vr, vi = _horner(b, x, y)[:2]
        gaps = prod(m for j, m in enumerate(norms[i]) if j != i)
        if not gaps:
            return None
        radii.append(_ceil_sqrt(-(-n * n * (vr * vr + vi * vi) // (scale * gaps))))
    if any(norms[i][j] <= (radii[i] + radii[j]) ** 2 for i in range(n) for j in range(i)):
        return None
    return [(x, y, r) for (x, y), r in zip(zs, radii)]


def root_enclosures(ints: list[int], bits: int) -> Optional[list[tuple[int, int, int]]]:
    """The disks of _smith_disks on the 2^-bits grid around approximations
    to all the roots of the integer polynomial ints, low degree first; None
    where the disks are not certified disjoint.

    The points come from the Aberth-Ehrlich iteration (Aberth, 1973; Bini,
    1996) on the grid, started from rho ((3 + 4i)/5)^j, j = 1..n, with rho
    half the Cauchy bound: points off the real axis and not closed under
    conjugation.  At the grid point Z_i one Horner pass gives V = 2^(bits
    n) p(z_i) and D = 2^(bits (n-1)) p'(z_i), and sigma = sum_{j != i}
    1/(Z_i - Z_j) is kept in fixed point with 2 bits bits: sigma is near
    2^-bits / d for points d apart, so that keeps about bits significant
    bits wherever d is near 1.  The correction V / (D - V sigma) is then
    one quotient of integers, in grid units.  A point stops moving once its
    correction is at most one unit in each part, and the sweeps stop at 2
    bits: seeded inputs of degree 3-16 certify within 10 sweeps at 64 bits;
    towards a cluster the points close in about a bit a sweep, and a^k (X^2
    + 1)^k + 1 for k = 3..6 and a = 2^20..2^60, with k roots about 1/a
    apart, took 49-58 there.  Converging points prove nothing; Smith's
    theorem does."""
    n, fix = len(ints) - 1, 2 * bits
    b = [c << bits * (n - k) for k, c in enumerate(ints)]
    lead = abs(ints[-1])
    rho = ((lead + max(abs(c) for c in ints[:-1])) << bits - 1) // lead
    zs, wr, wi = [], 1, 0
    for j in range(1, n + 1):
        wr, wi = 3 * wr - 4 * wi, 4 * wr + 3 * wi
        zs.append((rho * wr // 5 ** j, rho * wi // 5 ** j))
    moving = set(range(n))
    for _ in range(2 * bits):
        for i in sorted(moving):
            x, y = zs[i]
            vr, vi, dr, di = _horner(b, x, y)
            sr = si = 0
            for j, (u, v) in enumerate(zs):
                if j != i:
                    ex, ey = x - u, y - v
                    m = ex * ex + ey * ey
                    if not m:
                        return None
                    sr += (ex << fix) // m
                    si -= (ey << fix) // m
            # V / (D - V sigma) in grid units, with sr + i si = 2^fix sigma
            er = (dr << fix) - vr * sr + vi * si
            ei = (di << fix) - vr * si - vi * sr
            m = er * er + ei * ei
            if not m:
                return None
            cr = ((vr * er + vi * ei) << fix + 1) // m + 1 >> 1
            ci = ((vi * er - vr * ei) << fix + 1) // m + 1 >> 1
            zs[i] = x - cr, y - ci
            if abs(cr) <= 1 and abs(ci) <= 1:
                moving.discard(i)
        if not moving:
            break
    return _smith_disks(ints, zs, bits)


# ---------------------------------------------------------------------------
# Rectangle subdivision for nonreal roots.
# ---------------------------------------------------------------------------

# A cell (x0, x1, y0, y1) of integers is [x0 u, x1 u] x [y0 u, y1 u] for
# the unit u of its depth.  In the unit u/34 its centre 17(x0 + x1, y0 + y1)
# and its disk's radius (x1 - x0 + y1 - y0)m at the rung m/17 are integers.
_RUNGS = (17, 18, 19, 21, 23, 26)


def _enclosure_count(enc, cx: int, cy: int, r: int, unit, bits: int) -> Optional[int]:
    """The roots in the open disk of centre (cx + i cy) unit/34 and radius
    r unit/34, for integers cx, cy, r and a positive rational unit, read off
    the enclosures that root_enclosures gave on the 2^-bits grid: the number
    that lie strictly inside it, when every other one lies strictly outside
    its closed disk; None where an enclosure meets its circle.  All sizes
    are compared as integers, in the unit 2^-bits / (34 times the
    denominator of unit)."""
    k = 34 * unit.denominator
    cx, cy, r = (v * unit.numerator << bits for v in (cx, cy, r))
    count = 0
    for x, y, rho in enc:
        dx, dy, rho = cx - k * x, cy - k * y, k * rho
        d2 = dx * dx + dy * dy
        if d2 > (r + rho) ** 2:
            continue
        if rho >= r or d2 >= (r - rho) ** 2:
            return None
        count += 1
    return count


def _split4(cell: tuple) -> list[tuple]:
    """The quarters of cell, in the unit halved."""
    x0, x1, y0, y1 = (2 * v for v in cell)
    xm, ym = (x0 + x1) // 2, (y0 + y1) // 2
    return [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]


def _real_count(ints: list[int], reals, lo: Fraction, hi: Fraction) -> int:
    """Roots of ints in (lo, hi), given ascending isolating intervals of all
    its real roots (open, with no root at an end, or points); with a positive
    leading term, ints has the sign (-1)^(n - i) left of root i = 0..n-1."""
    n = len(reals)
    return sum(
        lo < b and a < hi
        and (lo <= a or _sign_at(ints, lo) == (-1) ** (n - i))
        and (b <= hi or _sign_at(ints, hi) == (-1) ** (n - i + 1))
        for i, (a, b) in enumerate(reals)
    )


def _bit_limit(ints: list[int]) -> int:
    """max(64, 2 log2(1/s)) for the root separation bound s of ints: the
    grid bits past which nothing of a squarefree input is left to resolve.
    Its roots lie at least s apart, and its nonreal roots at least s/2 off
    the real axis."""
    return max(64, 2 * _separation_bound(ints).denominator.bit_length())


def _grid(ints: list[int], reals, unit: Fraction, enc=None, bits: int = 0) -> tuple:
    """The grid (ints, reals, unit, enc, bits) that counts the cells of the
    given unit, with ascending isolating intervals reals of the real roots
    of ints: enc, the root enclosures of ints on the 2^-bits grid, is kept
    where it is certified and at least 16 bits finer than unit; otherwise
    it is computed again, from 64 bits on, with the bits doubled until it
    is.  Enclosures that still overlap at _bit_limit(ints) bits raise
    UndecidableAtPrecision, as on a repeated root."""
    while enc is None or unit.numerator << bits - 16 < unit.denominator:
        if enc is None and bits >= _bit_limit(ints):
            raise UndecidableAtPrecision("root enclosures overlap past the separation bound")
        bits = max(64, 2 * bits)
        enc = root_enclosures(ints, bits)
    return ints, reals, unit, enc, bits


def _cell_excluded(grid: tuple, cell: tuple) -> bool:
    """Certified: the closed cell holds no nonreal root of p.  A disk count
    equal to the number of real roots on the disk's trace leaves the disk
    free of nonreal roots.  Each rung's count is read off the grid's root
    enclosures, and a rung that one of them straddles is skipped.  A cell
    below the axis is tested as its mirror, whose disks hold the conjugate
    roots, so the test commutes with conjugation although the enclosures
    are not closed under it."""
    ints, reals, unit, enc, bits = grid
    x0, x1, y0, y1 = cell
    cx, cy, half = 17 * (x0 + x1), abs(17 * (y0 + y1)), x1 - x0 + y1 - y0
    for rung in _RUNGS:
        r = half * rung
        got = _enclosure_count(enc, cx, cy, r, unit, bits)
        if got is None:
            continue
        if got == 0 or cy >= r:
            return got == 0  # a disk off the axis is genuinely occupied
        # rho <= sqrt(r^2 - Im(c)^2) < wide <= rho + 2^-12: the short trace
        # only misses exclusions, and a disk with more roots than the long
        # trace holds a nonreal one, and so does every larger disk
        s = Fraction(r * r - cy * cy, 34 * 34) * unit * unit
        root, den = isqrt(s.numerator * s.denominator << 24), s.denominator << 12
        rho, wide, c = Fraction(root, den), Fraction(root + 1, den), Fraction(cx, 34) * unit
        if got == _real_count(ints, reals, c - rho, c + rho):
            return True
        if got > _real_count(ints, reals, c - wide, c + wide):
            return False
    return False


def _holds_one(grid: tuple, cell: tuple) -> bool:
    """Certified: a disk covering the cell, strictly above the real axis,
    contains exactly one root of p, by the grid's root enclosures at the
    first rung that none of them straddles."""
    _, _, unit, enc, bits = grid
    x0, x1, y0, y1 = cell
    cx, cy, half = 17 * (x0 + x1), 17 * (y0 + y1), x1 - x0 + y1 - y0
    for r in [half * rung for rung in _RUNGS if half * rung < cy]:
        got = _enclosure_count(enc, cx, cy, r, unit, bits)
        if got is not None:
            return got == 1
    return False


def _components(cells: list[tuple]) -> list[list[tuple]]:
    """The cells grouped into classes of cells connected by touching."""
    comps: list[list[tuple]] = []
    for cell in cells:
        x0, x1, y0, y1 = cell
        near = [c for c in comps if any(
            a0 <= x1 and x0 <= a1 and b0 <= y1 and y0 <= b1 for a0, a1, b0, b1 in c)]
        comps = [c for c in comps if c not in near] + [[cell] + [x for c in near for x in c]]
    return comps


def _hull(cells: Sequence[tuple]) -> tuple:
    x0s, x1s, y0s, y1s = zip(*cells)
    return min(x0s), max(x1s), min(y0s), max(y1s)


def _box(cell: tuple, unit: Fraction) -> BoxC:
    x0, x1, y0, y1 = cell
    return BoxC(RatInterval(x0 * unit, x1 * unit), RatInterval(y0 * unit, y1 * unit))


def _upper_half_roots(p: QPoly, pairs: int, reals) -> list[BoxC]:
    """Isolating boxes for the `pairs` >= 1 roots above the real axis of
    the squarefree p, given ascending isolating intervals of its real roots.
    The cells start at the Cauchy bound, at least 1, and subdivision stops
    once their unit falls below 2^(16 - _bit_limit), at least 2^16 times
    finer than the root separation bound, where the grid of _grid stops
    too, with nothing left to separate.  Each depth takes the grid of
    _grid, which keeps the previous depth's enclosures until the cells
    come within 16 bits of them."""
    unit, cells, ints = p.cauchy_root_bound(), [(-1, 1, 0, 1)], p.int_coeffs()
    grid, finest = _grid(ints, reals, unit), Fraction(1, 2 ** (_bit_limit(ints) - 16))
    while unit / 2 >= finest:
        unit /= 2
        grid = _grid(ints, reals, unit, *grid[3:])
        cells = [q for c in cells for q in _split4(c) if not _cell_excluded(grid, q)]
        comps = _components(cells)
        if len(comps) == pairs:
            hulls = [_hull(comp) for comp in comps]
            # the hulls are disjoint when each is a component of its own
            if len(_components(hulls)) == pairs and all(_holds_one(grid, h) for h in hulls):
                return sorted([_box(h, unit) for h in hulls], key=BoxC.sort_key)
    raise UndecidableAtPrecision("rectangle subdivision failed to isolate the nonreal roots")


def _regrid(grid: tuple, box: BoxC) -> tuple[BoxC, tuple]:
    """One quadtree step on the isolating rectangle of a nonreal root:
    split into 16 cells, drop provably empty ones, take the hull.  The
    cells' counts are read off the grid of _grid at the unit of the cells'
    corners, carried on from the given grid of the same polynomial; the
    hull comes back with that grid, for the next step."""
    corners = (box.re.lo, box.re.hi, box.im.lo, box.im.hi)
    den = lcm(*(c.denominator for c in corners))
    grid = _grid(*grid[:2], Fraction(1, 4 * den), *grid[3:])
    halves = _split4(tuple(int(c * den) for c in corners))
    kept = [q for c in halves for q in _split4(c) if not _cell_excluded(grid, q)]
    if not kept:
        raise UndecidableAtPrecision("root escaped its rectangle")
    nxt = _box(_hull(kept), grid[2])
    if nxt.width >= box.width:
        raise UndecidableAtPrecision("rectangle refinement stalled")
    return nxt, grid


def _round_div(a: int, b: int) -> int:
    """a / b for b > 0, rounded half to even, as `round` rounds a Fraction."""
    q, r = divmod(a, b)
    return q + (2 * r > b or (2 * r == b and q & 1))


def _newton_box(p: QPoly, box: BoxC, width: Fraction) -> Optional[BoxC]:
    """A square of side <= width around the root isolated by box, or None.

    Newton's method runs from the centre of box on the grid of step
    2^-s, about width/256, which keeps the numerators bounded.  At
    z = (x + iy)/2^s one integer Horner pass over the Gaussian integer
    x + iy gives 2^(sn) P(z) and 2^(s(n-1)) P'(z) for the integer model
    P of p, so their quotient is the step P(z)/P'(z) in grid units, and
    the next iterate is z less that step, rounded half to even to the
    grid.  Converging iterates prove nothing, so the result is certified
    by Pellet's test with k = 1 (polycrit._pellet) on the integer model
    of p recentred on the open disk of radius r <= width/2 around the
    last iterate: that disk lies inside box, and box holds exactly one
    root, so a disk that holds exactly one root holds that root.  Where
    the test fails, the answer is None, and refinement takes a quadtree
    step instead, as after any other failure of Newton's method.
    """
    shift = (width.denominator // width.numerator).bit_length() + 8
    grid = 1 << shift
    ints = p.int_coeffs()
    n = len(ints) - 1
    # the model's coefficients on the grid: 2^(sn) P(X/2^s) = sum b_k X^k
    b = [c << shift * (n - k) for k, c in enumerate(ints)]
    lo_re, hi_re = ceil(box.re.lo * grid), floor(box.re.hi * grid)
    lo_im, hi_im = ceil(box.im.lo * grid), floor(box.im.hi * grid)
    x, y = round(box.re.mid * grid), round(box.im.mid * grid)
    # near a simple root each step doubles the correct bits, so a few
    # more than log2(shift) steps reach the grid
    for _ in range(shift.bit_length() + 4):
        vr, vi, dr, di = _horner(b, x, y)
        norm = dr * dr + di * di
        if not norm:
            return None
        # the step is v/d = v conj(d)/|d|^2 grid units
        sr, si = vr * dr + vi * di, vi * dr - vr * di
        x, y = _round_div(x * norm - sr, norm), _round_div(y * norm - si, norm)
        if not (lo_re <= x <= hi_re and lo_im <= y <= hi_im):
            return None
        if abs(sr) <= norm and abs(si) <= norm:
            break
    else:
        return None
    c_re, c_im = Fraction(x, grid), Fraction(y, grid)
    r = min(width / 2, c_re - box.re.lo, box.re.hi - c_re, c_im - box.im.lo, box.im.hi - c_im)
    if r <= 0 or not _pellet(*_recentre(ints, c_re, c_im, r), 1):
        return None
    return BoxC(RatInterval(c_re - r, c_re + r), RatInterval(c_im - r, c_im + r))


# ---------------------------------------------------------------------------
# The field objects.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumberField:
    """Compares and hashes by min_poly and selected_root alone, so a
    refined handle equals the one it came from.  The minimal polynomial
    and the inverse of an element rely on a squarefree min_poly, so a
    repeated factor raises NotSquarefree; with_selected and refined copy
    the checked handle and do not check it again."""

    min_poly: QPoly
    root_boxes: tuple[BoxC, ...] = dataclass_field(compare=False)
    selected_root: int
    # the primitive integer multiple of min_poly, which products fold by
    _fold: tuple[int, ...] = dataclass_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (0 <= self.selected_root < len(self.root_boxes)):
            raise ValueError("selected root index out of range")
        if self.min_poly.gcd(self.min_poly.derivative()).degree > 0:
            raise NotSquarefree("minimal polynomial has repeated roots")
        object.__setattr__(self, "_fold", tuple(self.min_poly.int_coeffs()))

    def _with(self, name: str, value) -> "NumberField":
        out = copy(self)
        object.__setattr__(out, name, value)
        return out

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def selected_box(self) -> BoxC:
        return self.root_boxes[self.selected_root]

    def root_is_real(self, index: int) -> bool:
        return self.root_boxes[index].is_real_line()

    def with_selected(self, index: int) -> "NumberField":
        if not (0 <= index < len(self.root_boxes)):
            raise ValueError("selected root index out of range")
        return self._with("selected_root", index)

    def refined(self, index: int, width) -> "NumberField":
        """New field handle whose index-th box has width <= width."""
        if not (0 <= index < self.degree):
            raise ValueError("root index out of range")
        width = as_rat(width)
        if width <= 0:
            raise ValueError("width must be positive")
        box = self.root_boxes[index]
        if box.width <= width:
            return self
        new_box = _refine_one(self.min_poly, box, width)
        boxes = list(self.root_boxes)
        boxes[index] = new_box
        return self._with("root_boxes", tuple(boxes))

    def zero(self) -> "FieldElement":
        return _element(self, [0] * self.degree, 1)

    def one(self) -> "FieldElement":
        return _element(self, [1] + [0] * (self.degree - 1), 1)

    def from_rational(self, q) -> "FieldElement":
        q = as_rat(q)
        return _element(self, [q.numerator] + [0] * (self.degree - 1), q.denominator)

    def generator(self) -> "FieldElement":
        """The element alpha itself (the selected root as a number)."""
        if self.degree == 1:
            return self.from_rational(-self.min_poly.coeffs[0])
        return _element(self, [0, 1] + [0] * (self.degree - 2), 1)


def _refine_one(p: QPoly, box: BoxC, width: Fraction) -> BoxC:
    if box.is_point():
        return box
    if box.is_real_line():
        lo, hi = refine_real_root(p, box.re.lo, box.re.hi, width)
        return BoxC(RatInterval(lo, hi), RatInterval.point(0))
    if box.re.width == 0 and p.degree == 2 and p.lc() == 1:
        # quadratic shape: exact real part -c1/2, imaginary part the root
        # of the rational s = c0 - c1^2/4, a point when s is a square (the
        # lower box of a square s is already the conjugate point)
        s = p.coeffs[0] - p.coeffs[1] * p.coeffs[1] / 4
        if is_perfect_square(s):
            return BoxC(box.re, RatInterval.point(rational_sqrt(s)))
        lo, hi = refine_real_root(QPoly((-s, 0, 1)), box.im.lo, box.im.hi, width)
        return BoxC(box.re, RatInterval(lo, hi))
    # Newton with a disk certificate, whose box is narrow enough; where
    # that fails, one quadtree step shrinks the box and gives Newton a
    # closer start.  The first step builds the grid, and each later one
    # carries it on
    grid = None
    while box.width > width and (nxt := _newton_box(p, box, width)) is None:
        grid = grid or _grid(p.int_coeffs(), real_roots_isolated(p)[0], Fraction(1))
        box, grid = _regrid(grid, box)
    return box if box.width <= width else nxt


@dataclass(frozen=True, init=False, repr=False)
class FieldElement:
    """Exact element of a NumberField in power-basis coordinates, held as
    integer numerators over one positive denominator with no common
    factor, so equal elements hold equal ints.  `coords` is the read-only
    tuple of the Fraction coordinates, built anew on each read.  An
    element is an immutable value compared by (field, numerators,
    denominator); its identity is algebraic, since a field compares
    without its boxes.

    A product is the schoolbook product of the numerators, whose
    coefficients of X^(2d-2)..X^d are then folded back top-down, each
    into the d coefficients below it, by the primitive integer multiple
    P of the minimal polynomial: with L > 0 its leading coefficient,
    L*c*X^top = c*X^(top-d)*(L*X^d - P), so a fold multiplies the
    coefficients below X^top by L and subtracts c*P from them.  The
    denominator is den*den'*L^f for the f <= d - 1 folds, and one gcd
    reduces the result.

    The minimal polynomial of x is the squarefree part of the integer
    characteristic polynomial of den*x, the integer matrix of the
    products x*X^j over their common denominator den, rescaled to x.  The
    inverse x^-1 = -(x^(k-1) + a_(k-1) x^(k-2) + ... + a_1) / a_0 is read
    off that minimal polynomial X^k + ... + a_0 by Horner's rule.
    """

    # _min_poly, a slot but no field, so outside equality and the hash, is
    # set on the first min_poly_over_Q, so elements built by arithmetic
    # pay for it only when it is asked
    __slots__ = ("field", "_num", "_den", "_min_poly")
    field: NumberField
    _num: tuple[int, ...]
    _den: int

    def __init__(self, field: NumberField, coords: Sequence[Fraction]):
        coords = [as_rat(c) for c in coords]
        if len(coords) != field.degree:
            raise ValueError("coordinate vector has the wrong length")
        den = lcm(*[c.denominator for c in coords])
        _set_field(self, field)
        _set_num(self, tuple([c.numerator * (den // c.denominator) for c in coords]))
        _set_den(self, den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(c, self._den) for c in self._num])

    def __repr__(self):
        return f"FieldElement{self.coords}"

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.field.from_rational(other)
        (a, p), (b, q) = (self._num, self._den), (other._num, other._den)
        if p == q:
            return _element(self.field, [x + y for x, y in zip(a, b)], p)
        return _element(self.field, [x * q + y * p for x, y in zip(a, b)], p * q)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.field, [-c for c in self._num], self._den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            a, b = self._num, other._num
            d = len(a)
            full = [0] * (2 * d - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        full[i + j] += x * y
            den = self._den * other._den
            poly = self.field._fold
            lc = poly[d]
            for top in range(2 * d - 2, d - 1, -1):
                c = full[top]
                if c:
                    if lc != 1:
                        full[:top] = [u * lc for u in full[:top]]
                        den *= lc
                    low = full[top - d:top]
                    full[top - d:top] = [u - c * m if m else u for u, m in zip(low, poly)]
            return _element(self.field, full[:d], den)
        if isinstance(other, (int, Rational)):
            p, q = other.numerator, other.denominator
            return _element(self.field, [c * p for c in self._num], self._den * q)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        m = self.min_poly_over_Q().coeffs
        if not m[0]:
            # a zero divisor: the gcd divides the minimal polynomial
            raise NotIrreducible(QPoly(self._num).gcd(self.field.min_poly))
        acc = self.field.one()
        for a in m[-2:0:-1]:
            acc = acc * self + a
        return acc * (-1 / m[0])

    def rational_value(self) -> Optional[Fraction]:
        if not any(self._num[1:]):
            return Fraction(self._num[0], self._den)
        return None

    def min_poly_over_Q(self) -> QPoly:
        """Monic minimal polynomial of this element over Q, kept in the
        element once derived.  Over the squarefree minimal polynomial of
        the field, multiplication by x is diagonalizable, so its minimal
        polynomial, which is that of x, is the squarefree part of its
        characteristic polynomial (in a field, a power of it)."""
        try:
            return self._min_poly
        except AttributeError:
            pass
        cols, gen = [self], self.field.generator()
        for _ in range(self.field.degree - 1):
            cols.append(cols[-1] * gen)
        den = lcm(*[c._den for c in cols])
        cs = _charpoly([[v * (den // c._den) for v in c._num] for c in cols])
        _set_min_poly(self, QPoly(cs[::-1]).squarefree_part().scale_arg(den).monic())
        return self._min_poly


def _element(field: NumberField, num: list[int], den: int) -> FieldElement:
    """A FieldElement from integer numerators, as many as the field's
    degree, over a positive denominator, divided here by their gcd."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
    x = _new(FieldElement)
    _set_field(x, field)
    _set_num(x, tuple(num))
    _set_den(x, den)
    return x


# the slots' own setters, which pass by the frozen __setattr__ without a
# lookup of the name
_new = object.__new__
_set_field, _set_num, _set_den, _set_min_poly = (
    getattr(FieldElement, slot).__set__ for slot in FieldElement.__slots__
)


def _charpoly(cols: list[list[int]]) -> list[int]:
    """The characteristic polynomial det(T - A), high degree first, of the
    square integer matrix A with the given columns, by Faddeev-LeVerrier:
    M_1 = I, c_k = -tr(A M_k)/k and M_(k+1) = A M_k + c_k I.  The c_k are
    the integer coefficients below the leading 1, so each quotient is
    exact."""
    rows = list(zip(*cols))
    cs = [1]
    am = [[0] * len(cols) for _ in cols]
    for k in range(1, len(cols) + 1):
        m = [[v + cs[-1] if i == j else v for i, v in enumerate(col)] for j, col in enumerate(am)]
        am = [[sum(map(mul, row, col)) for row in rows] for col in m]
        cs.append(-sum(col[j] for j, col in enumerate(am)) // k)
    return cs


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------


def isolate_roots(p: QPoly) -> list[BoxC]:
    """Pairwise-disjoint isolating boxes for all complex roots of the
    squarefree p, sorted by (re.lo, re.hi, im.lo, im.hi); p and its
    monic form get the same boxes.  The zero polynomial is refused with
    ValueError, and a repeated root with NotSquarefree: a real one by the
    real-root isolation, a nonreal one once the quadtree has failed, so
    squarefree inputs pay for no check.  That failure comes early, as
    Smith's disks overlap around a repeated root on every grid, and _grid
    stops doubling at _bit_limit, the limit that also ends the
    subdivision."""
    if p.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    p = p.monic()
    d = p.degree
    if d == 1:
        return [BoxC.point(-p.coeffs[0])]
    pending = []
    # tighten to unit width so hint rectangles have something to grab
    for lo, hi in real_roots_isolated(p)[0]:
        if hi - lo > 1:
            lo, hi = refine_real_root(p, lo, hi, Fraction(1))
        pending.append((lo, hi))
    # separate touching isolating intervals so the closed boxes are disjoint
    changed = True
    while changed:
        changed = False
        pending.sort()
        for i in range(len(pending) - 1):
            if pending[i][1] < pending[i + 1][0]:
                continue
            pending[i], pending[i + 1] = [
                refine_real_root(p, lo, hi, (hi - lo) / 4)
                for lo, hi in (pending[i], pending[i + 1])
            ]
            changed = True
    real_boxes = [BoxC(RatInterval(lo, hi), RatInterval.point(0)) for lo, hi in pending]
    pairs = (d - len(pending)) // 2
    upper: list[BoxC] = []
    if pairs > 0 and d == 2:
        c1, c0 = p.coeffs[1], p.coeffs[0]
        s = c0 - c1 * c1 / 4  # im^2, and 0 < sqrt(s) < 1 + s
        box = BoxC(RatInterval.point(-c1 / 2), RatInterval(Fraction(0), 1 + s))
        upper = [_refine_one(p, box, Fraction(1, 4))]
    elif pairs > 0:
        try:
            upper = _upper_half_roots(p, pairs, pending)
        except UndecidableAtPrecision:
            if p.gcd(p.derivative()).degree > 0:
                raise NotSquarefree(f"{p!r} has a repeated nonreal root") from None
            raise
    lower = [b.conj() for b in upper]
    return sorted(real_boxes + upper + lower, key=BoxC.sort_key)


def _factor_from_roots(p: QPoly, boxes: Sequence[BoxC]) -> Optional[QPoly]:
    """A monic proper factor of p over Q, or None when p is irreducible.

    p is monic, squarefree, of degree n and without a rational root, and
    boxes isolate all its roots.  Let P be the primitive integer model of
    p and a its leading coefficient.  By Gauss's lemma every factor of p
    over Q is, up to a constant, a factor g of P in Z[X]; lc(g) divides
    a, so for the root set S of g, a * prod(X - r) over S equals
    (a / lc(g)) * g and has integer coefficients.  Every S of total size
    2..n//2 is tried (a factor of larger degree has a cofactor among
    those), each root refined to the width goal below on its first use
    and kept so.  S is dropped when the interval of the X^(s-1)
    coefficient -a * sum(r), for s the size of S, holds no integer; sum(r)
    adds each real root's interval and 2 Re z for a pair.  Otherwise
    a * prod(X - r) is formed in interval arithmetic: S is dropped when
    some coefficient interval holds no integer, else each is narrower than
    1, and the one integer candidate is checked by exact division.
    """
    ints = p.int_coeffs()
    a, n = ints[-1], p.degree
    prim = QPoly(ints)
    # Root boxes of width <= goal make every coefficient interval narrower
    # than 1/2: with |r| < B for every root and K = 2B + 3, a unit of size
    # s contributes a coefficient sum of at most K^s and widths of at most
    # s * goal * K^(s-1), so a product of total size m <= n//2 has widths
    # summing to at most 2 * m * K^(m-1) * goal before the factor a.
    m = n // 2
    k = 2 * p.cauchy_root_bound() + 3
    goal = 1 / (4 * a * m * k ** (m - 1))
    # a real root stands alone; a root z above the axis stands for the
    # pair {z, conj z} through the real quadratic X^2 - 2 Re(z) X + |z|^2
    units = [b for b in boxes if b.is_real_line() or b.im.hi > 0]
    sizes = [1 if b.is_real_line() else 2 for b in units]
    # a * prod(X - r) has the X^(s-1) coefficient -a * sum(r), the sum of
    # the units' shares, -a * r or -2a * Re z for a pair, each set when its
    # root is refined: a cheap test to run before the product
    shares: list[Optional[RatInterval]] = [None] * len(units)
    for count in range(1, m + 1):
        for subset in combinations(range(len(units)), count):
            if not 2 <= sum(sizes[i] for i in subset) <= m:
                continue
            trace = RatInterval.point(0)
            for i in subset:
                if shares[i] is None:
                    if units[i].width > goal:
                        units[i] = _refine_one(p, units[i], goal)
                    shares[i] = units[i].re * (-a * sizes[i])
                trace = trace + shares[i]
            if ceil(trace.lo) > floor(trace.hi):
                continue
            coeffs = [RatInterval.point(a)]
            for i in subset:
                b = units[i]
                if b.is_real_line():
                    coeffs = _interval_poly_mul(coeffs, (-b.re, RatInterval.point(1)))
                else:
                    coeffs = _interval_poly_mul(coeffs, (b.abs2(), b.re * -2, RatInterval.point(1)))
            if any(ceil(c.lo) > floor(c.hi) for c in coeffs):
                continue
            if any(c.width >= 1 for c in coeffs):
                raise UndecidableAtPrecision(
                    "root-subset coefficients stayed wide at the guaranteed width"
                )
            candidate = QPoly([floor(c.hi) for c in coeffs])
            if (prim % candidate).is_zero:
                return candidate.monic()
    return None


def _interval_poly_mul(f: Sequence[RatInterval], g: Sequence[RatInterval]) -> list[RatInterval]:
    out = [RatInterval.point(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return out


def field_make(min_poly: QPoly, root_hint: Optional[BoxC] = None) -> NumberField:
    """Build a NumberField whose generator is the root inside root_hint.

    The polynomial is normalized monic over Q and its irreducibility is
    decided, never assumed.  The cheap certificates of irreducible_over_Q
    settle most inputs; when they leave it open, the root-subset search
    over the isolated roots either finds a factor or proves by exhaustion
    that there is none.  A reducible polynomial raises NotIrreducible
    with a witness factor that divides it exactly.
    """
    if min_poly.degree < 1:
        raise NotMonic("minimal polynomial must have degree >= 1")
    p = min_poly.monic()
    if p.gcd(p.derivative()).degree > 0:
        raise NotSquarefree("minimal polynomial has repeated roots")
    verdict = irreducible_over_Q(p)
    if verdict.status == "Disproven":
        raise NotIrreducible(verdict.factor)
    boxes = isolate_roots(p)
    if verdict.status == "Unknown":
        factor = _factor_from_roots(p, boxes)
        if factor is not None:
            raise NotIrreducible(factor)
    if root_hint is not None:
        selected = _select_root(p, boxes, root_hint)
    elif p.degree == 1:
        selected = 0
    else:
        raise AmbiguousHint("a root hint is required for degree >= 2")
    return NumberField(min_poly=p, root_boxes=tuple(boxes), selected_root=selected)


def _select_root(p: QPoly, boxes: Sequence[BoxC], hint: BoxC) -> int:
    # touched boxes are refined on a copy, so a field keeps the
    # isolating boxes whatever the hint's shape
    boxes = list(boxes)
    for _ in range(80):
        hits = [i for i, b in enumerate(boxes) if b.touches(hint)]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise AmbiguousHint("root hint contains no root")
        if sum(boxes[i].within(hint) for i in hits) >= 2:
            raise AmbiguousHint("root hint contains more than one root")
        for i in hits:
            boxes[i] = _refine_one(p, boxes[i], boxes[i].width / 4)
    raise AmbiguousHint("root hint cannot be narrowed to a single root")


# ---------------------------------------------------------------------------
# Embeddings and exact comparisons.
# ---------------------------------------------------------------------------


def _range(a0: int, a1: int, b0: int, b1: int) -> tuple[int, int]:
    ps = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    return min(ps), max(ps)


def _box_image(num: Sequence[int], q: int, box: BoxC) -> BoxC:
    """p(box) by interval Horner, the rectangle that QPoly.__call__
    gives, on integers, for p the polynomial of the integer numerators num
    (low degree first, not all zero) over the positive denominator q: with
    the corners over their common denominator d, the bounds after k steps
    are q d^k times the rational ones, and a positive scale moves no min
    or max."""
    corners = (box.re.lo, box.re.hi, box.im.lo, box.im.hi)
    d = lcm(*(c.denominator for c in corners))
    x0, x1, y0, y1 = (c.numerator * (d // c.denominator) for c in corners)
    # a leading zero would only multiply every bound by d once more
    ints = list(num)
    while not ints[-1]:
        ints.pop()
    re0 = re1 = ints[-1]
    im0 = im1 = 0
    scale = 1
    for c in reversed(ints[:-1]):
        scale *= d
        a0, a1 = _range(re0, re1, x0, x1)
        b0, b1 = _range(im0, im1, y0, y1)
        e0, e1 = _range(re0, re1, y0, y1)
        f0, f1 = _range(im0, im1, x0, x1)
        re0, re1 = a0 - b1 + c * scale, a1 - b0 + c * scale
        im0, im1 = e0 + f0, e1 + f1
    den = q * scale
    return BoxC(
        RatInterval(Fraction(re0, den), Fraction(re1, den)),
        RatInterval(Fraction(im0, den), Fraction(im1, den)),
    )


def embed(x: FieldElement, conjugate_index: int, precision: int) -> BoxC:
    """Rectangle of width <= 2^-precision containing the image of x
    under the embedding sending the generator to the chosen root."""
    field = x.field
    if not (0 <= conjugate_index < field.degree):
        raise ValueError("conjugate index out of range")
    if not isinstance(precision, int) or precision < 0:
        raise ValueError("precision must be a nonnegative integer")
    tol = Fraction(1, 2 ** precision)
    if not any(x._num[1:]):
        return BoxC.point(x.rational_value())
    # crude growth estimate: each refinement halves the box width, and
    # the interval evaluation is Lipschitz on the bounded box
    target = tol
    for _ in range(_MAX_DEPTH):
        field = field.refined(conjugate_index, target)
        out = _box_image(x._num, x._den, field.root_boxes[conjugate_index])
        if out.width <= tol:
            return out
        target = target / 4
    raise UndecidableAtPrecision("embedding did not converge")


def subgroup_member(x: FieldElement, w: FieldElement) -> Optional[int]:
    """k such that x = k*w with k a rational integer, else None."""
    if w.is_zero:
        raise ZeroGenerator("membership in <0> reduces to x = 0")
    q = x * w.inverse()
    val = q.rational_value()
    if val is not None and val.denominator == 1:
        return int(val)
    return None


def modulus_compare(x: FieldElement, conjugate_index: int, threshold) -> str:
    """Sign of |embedded x| - threshold, as "Less"/"Equal"/"Greater".

    With zeta the image of x, this compares zeta * conj(zeta) with
    threshold^2.  Interval refinement decides the strict cases, and the
    zero bound of _compare_refined certifies equality.
    """
    t = as_rat(threshold)
    if t < 0:
        raise ValueError("threshold must be >= 0")
    if x.is_zero:
        return "Equal" if t == 0 else "Less"
    return _compare_refined(x, conjugate_index, BoxC.abs2, t * t, 1)


def _compare_refined(
    x: FieldElement,
    index: int,
    image: Callable[[BoxC], RatInterval],
    s: Fraction,
    k: int,
) -> str:
    """Sign of y - s as "Less"/"Equal"/"Greater", where y = F(zeta, conj zeta)
    for the image zeta of the nonzero x under the embedding `index`, and
    F(u, v) is uv (k = 1) or (u - v)^2 (k = 4), so |F(u, v)| <= k R^2
    whenever |u|, |v| <= R.  image maps a box holding zeta to an interval
    holding y.

    Each round refines the root box forward from the last round's, to a
    width squared every round from 1/16, and an interval without s decides
    a strict case.  Equality rests on a zero bound (after Burnikel,
    Fleischer, Mehlhorn and Schirra, 2000): y != s implies |y - s| >= gap,
    so on any shrinking boxes an interval narrower than gap that holds s
    proves y = s.  The loop ends after about log2(log2(1/gap)) rounds; gap
    depends on m_x, s and k alone and is built when first needed, so no
    other root is refined.

    Proof.  Let m_x = sum a_j X^j, monic of degree n, be the minimal
    polynomial of x, and c the least integer with all c^(n-j) a_j in Z:
    c^n m_x(X/c) is monic over Z, so c times each root of m_x is an
    algebraic integer.  conj(zeta) is a root of m_x and F is an integer
    form of degree 2, so c^2 y is an algebraic integer, and so is the
    real b = q c^2 (y - s), for q the denominator of s.  F is symmetric
    and each conjugate of y is F(zeta_i, zeta_j) for roots of m_x, with
    i != j unless zeta is real, so b has a degree D' <= D = max(n,
    n(n-1)/2).  Every root of m_x has modulus below its Cauchy bound
    R >= 1, so every conjugate of b has modulus at most M = q c^2 (k R^2
    + |s|), and M >= 1.  If b != 0 its norm is a nonzero integer, so
    1 <= |b| M^(D'-1) <= |b| M^(D-1), and |y - s| >= 1 / (q c^2
    M^(D-1)) = gap.
    """
    field, width, gap = x.field, Fraction(1, 16), None
    while True:
        field = field.refined(index, width)
        iv = image(_box_image(x._num, x._den, field.root_boxes[index]))
        if iv.lo > s:
            return "Greater"
        if iv.hi < s:
            return "Less"
        if gap is None:
            m = x.min_poly_over_Q()
            n = m.degree
            scale = s.denominator * _integral_scale(m) ** 2
            r2 = m.cauchy_root_bound() ** 2
            gap = 1 / (scale * (scale * (k * r2 + abs(s))) ** (max(n, n * (n - 1) // 2) - 1))
        if iv.width < gap:
            return "Equal"
        width *= width


def _integral_scale(p: QPoly) -> int:
    """The least c >= 1 with all c^(n-j) a_j integral, for the monic
    p = sum a_j X^j of degree n.  Trial division finds the primes below
    2^16; a rest without such factors enters c whole, so c stays valid."""
    n, exps = p.degree, {}
    for j, a in enumerate(p.coeffs[:-1]):
        for f, e in _trial_division(a.denominator):
            exps[f] = max(exps.get(f, 0), -(-e // (n - j)))
    return prod(f ** e for f, e in exps.items())


# ---------------------------------------------------------------------------
# JSON descriptors.
# ---------------------------------------------------------------------------


def _rat_str(v) -> str:
    return str(Fraction(v))


def field_to_descriptor(field: NumberField) -> dict:
    """Serializable form: coefficients low degree first, as exact strings.

    The selected root's isolating box doubles as the root hint, so the
    descriptor reloads to an equal field with the same descriptor.
    """
    box = field.selected_box()
    return {
        "min_poly": [_rat_str(c) for c in field.min_poly.coeffs],
        "root_hint": {
            "re": [_rat_str(box.re.lo), _rat_str(box.re.hi)],
            "im": [_rat_str(box.im.lo), _rat_str(box.im.hi)],
        },
    }


def field_from_descriptor(desc: dict) -> NumberField:
    """Inverse of field_to_descriptor.  Other keys are ignored, among
    them the irreducibility flag that older documents carry."""
    poly = QPoly(tuple(_rats_from_json(desc["min_poly"])))
    hint = None
    if "root_hint" in desc and desc["root_hint"] is not None:
        re, im = (_rats_from_json(desc["root_hint"][k]) for k in ("re", "im"))
        hint = BoxC.make(re[0], re[1], im[0], im[1])
    return field_make(poly, root_hint=hint)


def _rats_from_json(values) -> list[Fraction]:
    """Rationals written in JSON, each an integer or a string such as
    "-5/2" or "1.6".  A float is refused, as JSON has already rounded it,
    and so is a boolean."""
    if not isinstance(values, (list, tuple)) or any(type(c) not in (int, str) for c in values):
        raise ValueError(f"expected a list of JSON integers or strings, not {values!r}")
    return [Fraction(c) for c in values]


def coords_to_json(x: FieldElement) -> list[str]:
    return [_rat_str(c) for c in x.coords]


def coords_from_json(field: NumberField, data) -> FieldElement:
    coords = _rats_from_json(data)
    if len(coords) != field.degree:
        raise ValueError("coordinate vector length does not match the field degree")
    return FieldElement(field, coords)
