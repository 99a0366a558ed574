"""Exact polynomial layer: ring ops, real-root isolation, resultants.

numpy.roots is used as an independent floating-point oracle for root
counts and locations; all assertions against it leave generous margins
so float noise cannot flip a verdict.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraction_oracle as oracle
import quiddity
from quiddity.polynomials import (
    GaussRat,
    NotSquarefree,
    QPoly,
    _recentre,
    _taylor_shift,
    composed_product,
    count_real_roots,
    lagrange_interpolate,
    qpoly_at_disk,
    real_roots_isolated,
    refine_real_root,
    resultant,
    sign_variations,
)

small_rats = st.fractions(
    min_value=-6, max_value=6, max_denominator=8
)
small_polys = st.lists(small_rats, min_size=1, max_size=6).map(QPoly)


def np_poly(p: QPoly) -> np.polynomial.Polynomial:
    return np.polynomial.Polynomial([float(c) for c in p.coeffs] or [0.0])


# -- ring operations -------------------------------------------------------


def test_zero_and_degree():
    assert QPoly(()).is_zero
    assert QPoly((0, 0)).is_zero
    assert QPoly((0, 0)).degree == -1
    assert QPoly((3,)).degree == 0
    assert QPoly((0, 0, F(1, 2))).degree == 2


def test_qpoly_is_an_immutable_value():
    # a polynomial, and so the field it defines, cannot change once built:
    # assigning any attribute raises, and equal polynomials hash equal
    sqrt2 = quiddity.field_make(QPoly((-2, 0, 1)), root_hint=quiddity.BoxC.make(1, 2, 0, 0))
    for p in (QPoly((1, 2)), QPoly(()), sqrt2.min_poly):
        for name in ("coeffs", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, (5, 1))
    assert sqrt2.min_poly == QPoly((F(-2), 0, 1)) and hash(sqrt2.min_poly) == hash(QPoly((-2, 0, 1)))


def test_arith_known():
    p = QPoly((1, 2))      # 1 + 2X
    q = QPoly((-1, 0, 1))  # X^2 - 1
    assert p * q == QPoly((-1, -2, 1, 2))
    assert p + q == QPoly((0, 2, 1))
    assert (q - q).is_zero
    assert q(F(3)) == 8
    assert q(-1) == 0


def test_divmod_reconstructs():
    p = QPoly((2, -3, 0, 1, 5))
    d = QPoly((1, 1, 2))
    quo, rem = divmod(p, d)
    assert quo * d + rem == p
    assert rem.degree < d.degree


@given(small_polys, small_polys)
def test_mul_matches_numpy(p, q):
    got = np_poly(p * q)
    want = np_poly(p) * np_poly(q)
    assert np.allclose(
        np.resize(got.coef, max(got.coef.size, want.coef.size)),
        np.resize(want.coef, max(got.coef.size, want.coef.size)),
        atol=1e-9,
    )


@given(small_polys, small_polys)
def test_divmod_identity(p, d):
    if d.is_zero:
        return
    quo, rem = divmod(p, d)
    assert quo * d + rem == p
    assert rem.is_zero or rem.degree < d.degree


def test_shift_and_scale():
    assert _taylor_shift([0, 0, 1], 1) == [1, 2, 1]  # (X+1)^2
    ints = [1, -3, 0, 2]
    for c in (-3, 0, 5):
        # the integer shift agrees with the composition p(X + c)
        assert QPoly(_taylor_shift(list(ints), c)) == QPoly(ints)(QPoly((c, 1)))
    p = QPoly((0, 0, 1))  # X^2
    assert p.scale_arg(F(1, 2)) == QPoly((0, 0, F(1, 4)))
    q = QPoly(ints)
    c = F(5, 3)
    x = F(7, 11)
    assert q.scale_arg(c)(x) == q(c * x)


def test_reverse_and_strip():
    p = QPoly((0, 0, 3, 1))
    v, core = p.strip_low()
    assert v == 2 and core == QPoly((3, 1))
    assert QPoly((2, 0, 1)).reverse() == QPoly((1, 0, 2))


def test_gcd_and_squarefree():
    a = QPoly((-1, 0, 1))       # (X-1)(X+1)
    b = QPoly((-1, 1)) * QPoly((2, 1))
    assert a.gcd(b) == QPoly((-1, 1))
    sq = QPoly((-1, 1)) * QPoly((-1, 1)) * QPoly((3, 1))
    assert sq.squarefree_part() == (QPoly((-1, 1)) * QPoly((3, 1))).monic()


def test_yun_multiplicities():
    # the oracle's squarefree split, which its Schur-Cohn count runs on:
    # (X-1)^3 (X+2)^2 (X-5)
    p = QPoly((-1, 1)) * QPoly((-1, 1)) * QPoly((-1, 1)) * QPoly((2, 1)) * QPoly((2, 1)) * QPoly((-5, 1))
    decomp = oracle.yun_decomposition(p)
    got = {(tuple(f.coeffs), m) for f, m in decomp}
    assert got == {
        (QPoly((-5, 1)).coeffs, 1),
        (QPoly((2, 1)).coeffs, 2),
        (QPoly((-1, 1)).coeffs, 3),
    }
    # X^2 alone: the motivating multiplicity-2 case
    assert oracle.yun_decomposition(QPoly((0, 0, 1))) == [(QPoly((0, 1)), 2)]


def test_int_coeffs_primitive():
    p = QPoly((F(1, 2), F(-3, 4), F(5, 2)))
    assert p.int_coeffs() == [2, -3, 10]
    assert QPoly((-2, 0, -4)).int_coeffs() == [1, 0, 2]


# -- real root isolation ----------------------------------------------------


def test_sign_variations():
    assert sign_variations([F(1), F(-1), F(1)]) == 2
    assert sign_variations([F(1), F(0), F(1)]) == 0
    assert sign_variations([F(0), F(-2), F(3), F(4), F(-1)]) == 2


def test_count_known_quadratics():
    two = QPoly((-2, 0, 1))  # X^2 - 2
    assert count_real_roots(two, F(-10), F(10)) == 2
    assert count_real_roots(two, F(0), F(10)) == 1
    assert count_real_roots(two, F(1), F(2)) == 1
    assert count_real_roots(two, F(3, 2), F(2)) == 0
    none = QPoly((1, 0, 1))  # X^2 + 1
    assert count_real_roots(none, F(-10), F(10)) == 0


def test_isolation_separates_close_roots():
    # roots 1/3, 100/299, 2: two of them ~1e-3 apart
    p = QPoly((F(-1, 3), 1)) * QPoly((F(-100, 299), 1)) * QPoly((-2, 1))
    ivs, exact = real_roots_isolated(p)
    assert len(ivs) + len(exact) == 3
    pts = sorted(list(exact) + [iv[0] for iv in ivs])
    assert len(pts) == 3


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4, unique=True))
def test_isolation_counts_constructed_roots(roots):
    p = QPoly((1,))
    for r in roots:
        p = p * QPoly((-r, 1))
    ivs, exact = real_roots_isolated(p)
    assert len(ivs) + len(exact) == len(roots)
    for r in roots:
        hits = [e for e in exact if e == r]
        hits += [iv for iv in ivs if iv[0] < r < iv[1]]
        assert len(hits) == 1


@given(small_polys)
def test_root_count_matches_numpy(p):
    p = p.squarefree_part()
    if p.degree < 1:
        return
    got = count_real_roots(p, F(-10 ** 6), F(10 ** 6))
    rts = np.roots([float(c) for c in reversed(p.coeffs)])
    # only trust numpy when roots are comfortably real or comfortably not
    if any(1e-7 < abs(r.imag) < 1e-3 for r in rts):
        return
    want = sum(1 for r in rts if abs(r.imag) <= 1e-7 and abs(r.real) < 10 ** 6)
    assert got == want


@pytest.mark.parametrize("factor", [(-1, 1), (-2, 0, 1)])
def test_isolation_stops_on_a_repeated_root(factor):
    # (X - 1)^2 and (X^2 - 2)^2: the variation count near the double root
    # stays at 2, and the separation bound ends the bisection
    p = QPoly(factor) * QPoly(factor)
    start = time.perf_counter()
    with pytest.raises(NotSquarefree):
        real_roots_isolated(p)
    assert time.perf_counter() - start < 1.0
    assert quiddity.NotSquarefree is NotSquarefree


def test_refine_narrows():
    p = QPoly((-2, 0, 1))
    lo, hi = refine_real_root(p, F(1), F(2), F(1, 10 ** 6))
    assert hi - lo <= F(1, 10 ** 6)
    assert lo * lo < 2 < hi * hi or lo == hi


# -- Gaussian rational layer --------------------------------------------------


def test_gauss_field_ops():
    z = GaussRat.of(F(1, 2), F(-3, 4))
    w = GaussRat.of(2, 5)
    assert (z * w).re == F(1, 2) * 2 - F(-3, 4) * 5
    assert (z * z.inverse()) == GaussRat.of(1, 0)
    assert z.abs2() == F(1, 4) + F(9, 16)


def test_disk_recentre_evaluates():
    p = QPoly((1, 0, 1))  # X^2 + 1
    cs = qpoly_at_disk(p, GaussRat.of(0, 1), F(1, 2))
    # p(i + X/2) = (i + X/2)^2 + 1 = X^2/4 + i X + 0, times 4 to be
    # primitive over the Gaussian integers
    assert cs == ((0, 0), (0, 4), (1, 0))


def _recentre_unskipped(a, c_re, c_im, radius):
    """The Taylor shift of `_recentre`, run whatever the centre is."""
    n = len(a) - 1
    d = math.lcm(c_re.denominator, c_im.denominator, radius.denominator)
    cr = c_re.numerator * (d // c_re.denominator)
    ci = c_im.numerator * (d // c_im.denominator)
    s = radius.numerator * (d // radius.denominator)
    re = [c * d ** (n - k) for k, c in enumerate(a)]
    im = [0] * (n + 1)
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            r1, i1 = re[k + 1], im[k + 1]
            re[k] += cr * r1 - ci * i1
            im[k] += cr * i1 + ci * r1
    return [c * s**k for k, c in enumerate(re)], [c * s**k for k, c in enumerate(im)]


def test_recentre_at_zero_only_scales():
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(1, 10)
        a = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice((-3, -1, 1, 2))]
        radius = F(rng.randint(1, 9), rng.randint(1, 9))
        d = radius.denominator
        re, im = _recentre(a, F(0), F(0), radius)
        assert re == [c * d ** (n - k) * radius.numerator**k for k, c in enumerate(a)]
        assert im == [0] * (n + 1)
        centre = (F(rng.randint(-5, 5), rng.randint(1, 4)), F(rng.randint(-5, 5), rng.randint(1, 4)))
        if centre == (0, 0):
            centre = (F(1, 2), F(0))
        assert _recentre(a, *centre, radius) == _recentre_unskipped(a, *centre, radius)


# -- resultants ---------------------------------------------------------------


def test_resultant_known():
    f = QPoly((-1, 0, 1))  # X^2 - 1
    g = QPoly((-2, 1))     # X - 2
    # res = f evaluated at 2, times lc(f)^deg g sign conventions
    assert abs(resultant(f, g)) == 3
    assert resultant(f, QPoly((-1, 1))) == 0


@given(small_polys, small_polys)
def test_resultant_zero_iff_common_root(p, q):
    if p.degree < 1 or q.degree < 1:
        return
    r = resultant(p, q)
    has_common = p.gcd(q).degree > 0
    assert (r == 0) == has_common


def test_lagrange_roundtrip():
    p = QPoly((2, -1, F(1, 3)))
    pts = [(F(k), p(F(k))) for k in range(-1, 3)]
    assert lagrange_interpolate(pts) == p


def test_composed_product_roots():
    # q = (X-2)(X-3): root products 4, 6, 6, 9
    q = QPoly((-2, 1)) * QPoly((-3, 1))
    cp = composed_product(q)
    assert cp.degree == 4
    for v in (4, 6, 9):
        assert cp(F(v)) == 0
    assert cp(F(5)) != 0
