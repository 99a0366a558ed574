"""The integer kernels against the Fraction oracle in fraction_oracle.

Disk counts, Schur-Cohn counts, real-root isolation and refinement and
the polynomial gcd run on primitive integer coefficients; the generic
Fraction/GaussRat versions they replaced must give the same answers,
every None included, on seeded inputs chosen to hit the degenerate cases.
"""

import math
import random
from fractions import Fraction as F

import pytest

import fraction_oracle as oracle
from quiddity import polycrit
from quiddity.polycrit import _rational_roots, gauss_disk_count_strict, schur_cohn_count
from quiddity.polynomials import (
    GaussRat,
    QPoly,
    qpoly_at_disk,
    real_roots_isolated,
    refine_real_root,
)


def _poly(rng, degree, bound):
    return QPoly([rng.randint(-bound, bound) for _ in range(degree)] + [rng.randint(1, bound)])


def _point(rng, den):
    return GaussRat.of(F(rng.randint(-8, 8), den), F(rng.randint(-8, 8), den))


def _times_roots(p, *zs):
    """Squarefree part of p times the real quadratic of each z."""
    for z in zs:
        p = p * QPoly((z.abs2(), -2 * z.re, 1))
    return p.squarefree_part()


def test_disk_recentre_is_a_positive_primitive_multiple():
    rng = random.Random(31)
    for _ in range(200):
        p = _poly(rng, rng.randint(0, 7), 9) * F(rng.choice((1, -1)), rng.randint(1, 6))
        c = GaussRat.of(F(rng.randint(-9, 9), rng.randint(1, 8)), F(rng.randint(-9, 9), rng.randint(1, 8)))
        r = F(rng.randint(1, 9), rng.randint(1, 8))
        got, want = qpoly_at_disk(p, c, r), oracle.qpoly_at_disk(p, c, r)
        assert len(got) == len(want)
        assert math.gcd(*(x for pair in got for x in pair)) == 1
        scale = {F(x, w.re) for (x, _), w in zip(got, want) if w.re}
        scale |= {F(y, w.im) for (_, y), w in zip(got, want) if w.im}
        assert len(scale) == 1 and scale.pop() > 0, (p, c, r)
        assert all(bool(x or y) == bool(w) for (x, y), w in zip(got, want))


def _strict_inputs(rng):
    """(p, centre, radius) triples: random squarefree, a root on a
    Pythagorean point of the circle, and a conjugate-reciprocal pair."""
    out = []
    while len(out) < 120:
        p = _poly(rng, rng.randint(1, 6), 5).squarefree_part()
        if p.degree >= 1:
            out.append((p, _point(rng, 4), F(rng.randint(1, 12), 4)))
    for _ in range(40):
        c, r = _point(rng, 4), F(rng.randint(1, 8), rng.choice((1, 2, 4)))
        a, b, h = rng.choice(((3, 4, 5), (5, 12, 13), (8, 15, 17), (0, 1, 1)))
        u = GaussRat.of(F(rng.choice((1, -1)) * a, h), F(rng.choice((1, -1)) * b, h))
        out.append((_times_roots(_poly(rng, rng.randint(0, 3), 4), c + u.scale(r)), c, r))
    while len(out) < 200:
        c, r = _point(rng, 4), F(rng.randint(1, 8), rng.choice((1, 2, 4)))
        a = _point(rng, 3)
        if a.abs2() in (0, 1):
            continue
        mirror = GaussRat(a.re, -a.im).inverse()
        out.append((_times_roots(QPoly((1,)), c + a.scale(r), c + mirror.scale(r)), c, r))
    return out


def test_strict_counts_match_the_oracle():
    nones = 0
    for p, c, r in _strict_inputs(random.Random(32)):
        got = gauss_disk_count_strict(p, c, r)
        assert got == oracle.gauss_disk_count_strict(p, c, r), (p, c, r)
        nones += got is None
    # every input on the circle or with a reciprocal pair gives None
    assert nones >= 80


def _disk_fields(s):
    return s.count, s.boundary_clear, s.method, s.radius


def test_schur_cohn_counts_match_the_oracle():
    rng = random.Random(33)
    cases = []
    for _ in range(60):
        p = _poly(rng, rng.randint(1, 8), 9)
        bits = rng.randint(0, 30)
        cases.append((p, F(rng.randint(1, 3 << bits), 1 << bits)))
    for _ in range(20):
        # |a0| = |an| at radius 1: the chain degenerates and the bracket runs
        p = _poly(rng, rng.randint(3, 8), 9)
        cases.append((QPoly((rng.choice((1, -1)) * p.coeffs[-1],) + p.coeffs[1:]), F(1)))
    for p, r in cases:
        assert _disk_fields(schur_cohn_count(p, r)) == _disk_fields(oracle.schur_cohn_count(p, r)), (p, r)


# factors with roots on the unit circle or a conjugate-reciprocal pair
# about it: X, X -+ 1, X^2 + 1, (3 +- 4i)/5, 2 and 1/2, and 2 +- 3i with
# (2 +- 3i)/13
_CIRCLE_FACTORS = (
    QPoly((0, 1)),
    QPoly((-1, 1)),
    QPoly((1, 1)),
    QPoly((1, 0, 1)),
    QPoly((5, -6, 5)),
    QPoly((2, -5, 2)),
    QPoly((13, -4, 1)) * QPoly((1, -4, 13)),
)


def _schur_cohn_inputs(rng, count):
    """(p, radius) pairs where the chain and the squarefree split part
    ways: squares and cubes, roots at 0 and +-1, roots on the circle and
    conjugate-reciprocal pairs (scaled to the radius), non-monic rational
    inputs, and |a0| = |an| at radius 1."""
    cases = []
    for i in range(count):
        r = rng.choice((F(1), F(1), F(2), F(1, 2), F(3, 2), F(rng.randint(1, 40), rng.randint(1, 20))))
        kind = i % 6
        if kind == 0:
            g = _rat_poly(rng, rng.randint(1, 3))
            p = g * g * (g if rng.random() < 0.5 else _rat_poly(rng, rng.randint(0, 3)))
        elif kind == 1:
            p = _rat_poly(rng, rng.randint(0, 5)) * rng.choice(_CIRCLE_FACTORS).scale_arg(1 / r)
        elif kind == 2:
            f = rng.choice(_CIRCLE_FACTORS)
            p = f * f * _rat_poly(rng, rng.randint(0, 3))
        elif kind == 3:
            p, r = _poly(rng, rng.randint(2, 8), 9), F(1)
            p = QPoly((rng.choice((1, -1)) * p.coeffs[-1],) + p.coeffs[1:])
        else:
            p = _rat_poly(rng, rng.randint(0, 9))
        cases.append((p, r))
    return cases


def test_chain_first_counts_match_the_split_route(monkeypatch):
    # the degenerate branch alone reverses the scaled polynomial
    calls = []
    reverse = QPoly.reverse
    monkeypatch.setattr(QPoly, "reverse", lambda self: calls.append(self) or reverse(self))
    fallback = 0
    cases = _schur_cohn_inputs(random.Random(38), 2100)
    for p, r in cases:
        before = len(calls)
        got = schur_cohn_count(p, r)
        split = len(calls) > before
        # the split runs exactly when the chain at radius r degenerates
        assert split == (gauss_disk_count_strict(p, GaussRat.of(0), r) is None), (p, r)
        fallback += split
        assert _disk_fields(got) == _disk_fields(oracle.schur_cohn_count(p, r)), (p, r)
    assert 500 <= fallback <= len(cases) - 500


def test_isolation_matches_the_oracle_with_roots_on_split_points():
    rng = random.Random(34)
    for _ in range(60):
        # on (-4, 4) the first split points are 0, -2, 2, -3, -1, 1, 3,
        # and a + (b - a)/4 replaces a midpoint that is a root
        roots = rng.sample([F(k, 2 ** e) for e in (0, 1, 2) for k in range(-15, 16)], rng.randint(1, 4))
        p = _poly(rng, rng.randint(0, 3), 4)
        for x in roots:
            p = p * QPoly((-x, 1))
        p = p.squarefree_part()
        got, rest = real_roots_isolated(p, F(-4), F(4))
        assert rest == []
        assert got == oracle.real_roots_isolated(p, F(-4), F(4)), p
        assert real_roots_isolated(p)[0] == oracle.real_roots_isolated(p)


def test_rational_roots_match_the_divisor_search():
    rng = random.Random(35)
    for _ in range(80):
        p = _poly(rng, rng.randint(0, 3), 5)
        for _ in range(rng.randint(0, 3)):
            p = p * QPoly((rng.randint(-6, 6), rng.randint(1, 4)))
        ints = p.int_coeffs()
        if len(ints) >= 2:
            assert _rational_roots(ints) == oracle.rational_roots(ints), ints


_CUBIC = QPoly((1, 1, 0, 1))  # X^3 + X + 1, no root mod 2
_LEAD = math.prod(polycrit._MODP_PRIMES)


@pytest.mark.parametrize(
    "p, roots, isolated",
    [
        # the root 1/30030 is no residue mod 2, 3, 5, 7, 11 or 13; those
        # primes divide the leading coefficient, so the sieve must pass
        # over them, not read them as "no root"
        (QPoly((-1, 30030)) * _CUBIC, [F(1, 30030)], 1),
        # no prime of the sieve is usable, so the search goes on to isolation
        (QPoly((-7, _LEAD)) * _CUBIC, [F(7, _LEAD)], 1),
        # 2, 3 or 6 is a square mod every prime, so only isolation shows
        # that no root is rational
        (QPoly((-2, 0, 1)) * QPoly((-3, 0, 1)) * QPoly((-6, 0, 1)), [], 1),
        (_CUBIC, [], 0),
    ],
    ids=["denominator-30030", "every-prime-in-lead", "root-mod-every-prime", "no-root-mod-2"],
)
def test_root_sieve(monkeypatch, p, roots, isolated):
    seen = []

    def counting(h, *args):
        seen.append(h)
        return real_roots_isolated(h, *args)

    monkeypatch.setattr(polycrit, "real_roots_isolated", counting)
    ints = p.int_coeffs()
    assert _rational_roots(ints) == oracle.rational_roots(ints) == roots
    assert len(seen) == isolated


def _rat_poly(rng, degree):
    """Rational coefficients, the leading one negative half the time."""
    cs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
    cs.append(F(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 6)))
    return QPoly(cs)


def _gcd_pairs(rng):
    """Planted common factors, squared factors with the derivative, and
    zero and constant operands on either side."""
    pairs = []
    for _ in range(150):
        common = _rat_poly(rng, rng.randint(0, 3))
        pairs.append((common * _rat_poly(rng, rng.randint(0, 4)), common * _rat_poly(rng, rng.randint(0, 4))))
    for _ in range(40):
        f = _rat_poly(rng, rng.randint(1, 3))
        a = f * f * _rat_poly(rng, rng.randint(0, 3))
        pairs += [(a, a.derivative()), (a, f * _rat_poly(rng, rng.randint(0, 2)))]
    zero = QPoly()
    pairs.append((zero, zero))
    for _ in range(10):
        p, c = _rat_poly(rng, rng.randint(1, 5)), _rat_poly(rng, 0)
        pairs += [(p, zero), (zero, p), (p, c), (c, p), (c, zero), (zero, c)]
    return pairs


def test_gcd_matches_the_euclid_oracle():
    nontrivial = 0
    for a, b in _gcd_pairs(random.Random(36)):
        got = a.gcd(b)
        assert got == oracle.gcd(a, b), (a, b)
        nontrivial += got.degree > 0
    assert nontrivial >= 150
    assert QPoly().gcd(QPoly()) == QPoly()
    assert QPoly((F(-3, 2),)).gcd(QPoly()) == QPoly.one()


def test_refinement_matches_the_fraction_bisection():
    rng = random.Random(37)
    refined = 0
    for _ in range(80):
        sign = F(rng.choice((1, -1)), rng.randint(1, 5))
        p = _rat_poly(rng, rng.randint(1, 7)).squarefree_part() * sign
        for lo, hi in real_roots_isolated(p)[0]:
            width = F(1, 2 ** rng.randint(0, 40))
            assert refine_real_root(p, lo, hi, width) == oracle.refine_real_root(p, lo, hi, width)
            refined += 1
    assert refined >= 100


def test_refinement_stops_on_a_root_at_a_midpoint():
    # 3/8 is the third midpoint of (0, 1); sqrt(2) lies outside
    p = QPoly((F(-3, 8), 1)) * QPoly((-2, 0, 1)) * F(-5, 3)
    for q in (p, -p):
        assert refine_real_root(q, F(0), F(1), F(1, 2 ** 20)) == (F(3, 8), F(3, 8))
        assert oracle.refine_real_root(q, F(0), F(1), F(1, 2 ** 20)) == (F(3, 8), F(3, 8))
        for lo, hi in ((F(3, 8), F(1)), (F(0), F(3, 8))):
            for refine in (refine_real_root, oracle.refine_real_root):
                with pytest.raises(ValueError):
                    refine(q, lo, hi, F(1, 8))
