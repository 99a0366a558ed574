"""Number field handles: root isolation, exact arithmetic, embeddings."""

import hashlib
import json
import random
import time
from fractions import Fraction as F
from math import lcm

import numpy
import pytest
from hypothesis import given, strategies as st

import fraction_oracle as oracle
import quiddity.numfield as numfield_module
import quiddity.polycrit as polycrit_module
from quiddity.numfield import (
    AmbiguousHint,
    BoxC,
    FieldElement,
    NotIrreducible,
    NotMonic,
    NotSquarefree,
    NumberField,
    UndecidableAtPrecision,
    ZeroGenerator,
    _box_image,
    _integral_scale,
    _newton_box,
    _refine_one,
    _regrid,
    coords_from_json,
    coords_to_json,
    embed,
    field_from_descriptor,
    field_make,
    field_to_descriptor,
    isolate_roots,
    modulus_compare,
    subgroup_member,
)
from quiddity.polycrit import gauss_disk_count_strict, irreducible_over_Q
from quiddity.polynomials import (
    GaussRat,
    QPoly,
    _recentre,
    composed_product,
    count_real_roots,
    qpoly_at_disk,
    real_roots_isolated,
)


def sqrt2_field():
    return field_make(QPoly((-2, 0, 1)), root_hint=BoxC.make(1, 2, 0, 0))


def gauss_field():
    # root 1+i of X^2 - 2X + 2
    return field_make(QPoly((2, -2, 1)), root_hint=BoxC.make(F(1, 2), F(3, 2), F(1, 2), F(3, 2)))


def zeta8_field():
    return field_make(QPoly((1, 0, 0, 0, 1)), root_hint=BoxC.make(0, 1, 0, 1))


def zeta9_field():
    return field_make(
        QPoly((1, 0, 0, 1, 0, 0, 1)), root_hint=BoxC.make(F(1, 2), 1, F(1, 2), F(3, 4))
    )


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------


class TestFieldMake:
    def test_rational_generator(self):
        f = field_make(QPoly((-3, 1)))
        assert f.degree == 1
        assert f.generator().rational_value() == 3

    def test_sqrt2(self):
        f = sqrt2_field()
        w = f.generator()
        assert f.degree == 2
        assert (w * w).rational_value() == 2
        assert f.root_is_real(f.selected_root)

    def test_non_monic_is_normalized(self):
        f = field_make(QPoly((-1, 0, 2)), root_hint=BoxC.make(0, 1, 0, 0))
        assert f.min_poly == QPoly((F(-1, 2), 0, 1))
        w = f.generator()
        assert (w * w).rational_value() == F(1, 2)

    def test_negative_quadratic_root(self):
        # lower root of X^2 - X - 5/2, about -1.158
        f = field_make(QPoly((F(-5, 2), -1, 1)), root_hint=BoxC.make(F(-3, 2), -1, 0, 0))
        w = f.generator()
        assert (w * w - w).rational_value() == F(5, 2)
        b = f.selected_box()
        assert b.re.hi < 0

    def test_gaussian_point_boxes(self):
        f = gauss_field()
        b = f.selected_box()
        assert b.is_point()
        assert (b.re.lo, b.im.lo) == (1, 1)

    def test_zeta8_isolation(self):
        f = zeta8_field()
        assert len(f.root_boxes) == 4
        w = f.generator()
        w4 = (w * w) * (w * w)
        assert w4 == -f.one()

    def test_boxes_pairwise_disjoint(self):
        for f in (zeta8_field(), field_make(QPoly((-6, 1, 0, 1)), root_hint=BoxC.make(1, 2, 0, 0))):
            boxes = f.root_boxes
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert not boxes[i].touches(boxes[j])

    def test_constant_rejected(self):
        with pytest.raises(NotMonic):
            field_make(QPoly((5,)))

    def test_repeated_root_rejected(self):
        with pytest.raises(NotSquarefree):
            field_make(QPoly((0, 0, 1)))

    def test_large_coefficients_build_fast(self):
        # the generator 2^(1/3) + i k 2^(-1/3) at k = 1 - 2^-11; its
        # primitive minimal polynomial has a constant term near 1e21
        k = 1 - F(1, 2 ** 11)
        p = QPoly((k ** 6 / 4 + 4, -3 * k ** 4, 9 * k ** 2, -4, 0, 0, 1))
        start = time.perf_counter()
        f = field_make(p, root_hint=BoxC.make(F(5, 4), F(13, 10), F(3, 4), F(4, 5)))
        assert time.perf_counter() - start < 5.0
        assert f.degree == 6 and not f.root_is_real(f.selected_root)

    def test_reducible_rejected_with_witness(self):
        with pytest.raises(NotIrreducible):
            field_make(QPoly((-1, 0, 1)), root_hint=BoxC.make(0, 2, 0, 0))

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1, 0, 1, 0, 1),  # (X^2 + X + 1)(X^2 - X + 1)
            (4, 0, 0, 0, 1),  # (X^2 + 2X + 2)(X^2 - 2X + 2)
            (1, 1, 0, 0, 0, 0, 0, 0, 1),  # (X^2 + X + 1)(X^6 - X^5 + X^3 - X^2 + 1)
        ],
        ids=["x^4+x^2+1", "x^4+4", "x^8+x+1"],
    )
    def test_factor_without_rational_root_refused(self, coeffs):
        # no rational root, so the cheap certificates leave these open
        p = QPoly(coeffs)
        assert irreducible_over_Q(p).status == "Unknown"
        with pytest.raises(NotIrreducible) as info:
            field_make(p, root_hint=BoxC.make(0, 1, 0, 1))
        factor = info.value.factor
        assert 2 <= factor.degree <= p.degree // 2
        assert (p % factor).is_zero

    def test_pseudoprime_constant_term_refused(self):
        # Osada's prime: 318665857834031151167461 is a strong pseudoprime
        # to the bases 2..37, and the quartic is a product of quadratics
        f = 399165290221
        p = QPoly((f, 1, 1)) * QPoly((2 * f - 1, 1, 1))
        with pytest.raises(NotIrreducible) as info:
            field_make(p, root_hint=BoxC.make(-1, 0, 600000, 700000))
        assert info.value.factor == QPoly((f, 1, 1))

    def test_roots_far_below_the_cauchy_bound_refused(self):
        # the Cauchy bound 1 + max|a_i| is about 3.3e24 while every root
        # has modulus below 1.7e6, so the quadtree needs more than 64
        # halvings before its cells come down to the roots
        f = 1287836182261
        p = QPoly((f, 1, 1)) * QPoly((2 * f - 1, 1, 1))
        assert p.cauchy_root_bound() > 2 ** 81
        with pytest.raises(NotIrreducible) as info:
            field_make(p)
        assert info.value.factor == QPoly((f, 1, 1))

    def test_irreducible_mod_no_prime_accepted(self):
        # sqrt(2) + sqrt(3): X^4 - 10X^2 + 1 factors mod every prime
        p = QPoly((1, 0, -10, 0, 1))
        assert irreducible_over_Q(p).status == "Unknown"
        f = field_make(p, root_hint=BoxC.make(3, 4, 0, 0))
        w = f.generator()
        w2 = w * w
        assert (w2 * w2 - w2 * 10).rational_value() == -1
        assert (w * w.inverse()).rational_value() == 1

    def test_products_refused_with_dividing_witness(self):
        # seeded: products of two monic factors of degree 2-3 with
        # |coeff| <= 3 and no rational root
        rng = random.Random(20261018)

        def factor():
            while True:
                d = rng.choice((2, 3))
                c = [rng.randint(-3, 3) for _ in range(d)] + [1]
                if c[0] != 0 and irreducible_over_Q(QPoly(c)).status == "Proven":
                    return QPoly(c)

        for _ in range(6):
            p = factor() * factor()
            if p.gcd(p.derivative()).degree > 0:
                continue
            # the factor check runs before the hint is looked at
            with pytest.raises(NotIrreducible) as info:
                field_make(p)
            assert (p % info.value.factor).is_zero

    def test_zero_divisor_names_factor(self):
        # a handle built without field_make over X^4 + X^2 + 1: inversion
        # still refuses the zero divisor w^2 + w + 1 with a witness
        p = QPoly((1, 0, 1, 0, 1))
        f = NumberField(p, tuple(isolate_roots(p)), 0)
        w = f.generator()
        with pytest.raises(NotIrreducible) as info:
            (w * w + w + f.one()).inverse()
        assert info.value.factor == QPoly((1, 1, 1))

    @pytest.mark.parametrize("coeffs", [(1, 0, 2, 0, 1), (0, 0, 1)], ids=["(x^2+1)^2", "x^2"])
    def test_repeated_factor_refused_on_a_hand_built_handle(self, coeffs):
        # the minimal polynomial and the inverse of an element read a
        # squarefree min_poly; over (X^2 + 1)^2 they would answer for X^2 + 1
        with pytest.raises(NotSquarefree):
            NumberField(QPoly(coeffs), (BoxC.point(0),), 0)

    def test_copies_of_a_checked_handle_are_not_checked_again(self, monkeypatch):
        f = zeta8_field()
        calls, gcd = [], QPoly.gcd
        monkeypatch.setattr(QPoly, "gcd", lambda a, b: calls.append(a) or gcd(a, b))
        g = f.refined(f.selected_root, F(1, 2 ** 20)).with_selected(1)
        assert calls == []
        assert g == f.with_selected(1) and g.selected_root == 1
        assert g.root_boxes[f.selected_root].width <= F(1, 2 ** 20)
        assert g._fold == f._fold and f.root_boxes == zeta8_field().root_boxes

    @pytest.mark.parametrize("coeffs", [(-2, 0, 1), (-2, 1)], ids=["quadratic", "linear"])
    def test_hint_touching_no_root(self, coeffs):
        with pytest.raises(AmbiguousHint):
            field_make(QPoly(coeffs), root_hint=BoxC.make(5, 6, 0, 0))

    def test_hint_straddling_two_roots(self):
        with pytest.raises(AmbiguousHint):
            field_make(QPoly((-2, 0, 1)), root_hint=BoxC.make(-2, 2, 0, 0))

    def test_missing_hint_on_multiroot_poly(self):
        with pytest.raises(AmbiguousHint):
            field_make(QPoly((-2, 0, 1)))

    def test_hint_holding_two_roots_fails_fast(self):
        # [0,1]x[0,1] holds both e^(2 pi i/9) and e^(4 pi i/9)
        start = time.perf_counter()
        with pytest.raises(AmbiguousHint):
            field_make(QPoly((1, 0, 0, 1, 0, 0, 1)), root_hint=BoxC.make(0, 1, 0, 1))
        assert time.perf_counter() - start < 5

    def test_hint_with_two_roots_on_its_edge_cannot_be_narrowed(self):
        # the upper roots i phi and i / phi of X^4 + 3X^2 + 1 lie on the
        # edge re = 0 of the hint, so every refined box touches it and
        # none lies within it
        with pytest.raises(AmbiguousHint, match="cannot be narrowed"):
            field_make(QPoly((1, 0, 3, 0, 1)), root_hint=BoxC.make(0, 1, F(1, 2), 2))


class TestIsolateRoots:
    def test_cubic_one_real_one_pair(self):
        p = QPoly((-6, 1, 0, 1))
        boxes = isolate_roots(p)
        assert len(boxes) == 3
        real = [b for b in boxes if b.is_real_line()]
        assert len(real) == 1
        lo, hi = real[0].re.lo, real[0].re.hi
        assert hi - lo <= 1
        assert p(lo) * p(hi) < 0  # the root is inside

    def test_conjugate_symmetry(self):
        boxes = isolate_roots(QPoly((-6, 1, 0, 1)))
        complexes = [b for b in boxes if not b.is_real_line()]
        lows = sorted((b.im.lo, b.im.hi) for b in complexes)
        assert lows[0] == (-lows[1][1], -lows[1][0])

    def test_pure_real_quartic(self):
        # (X^2-2)(X^2-3) has four real roots
        boxes = isolate_roots(QPoly((6, 0, -5, 0, 1)))
        assert len(boxes) == 4
        assert all(b.is_real_line() for b in boxes)

    def test_non_monic_input_gets_its_monic_forms_boxes(self):
        # 4X^2 + 2X + 1 and 2X^2 + 2 have nonreal roots; read as if monic,
        # the first lost its root and the second got a box that was no point
        for coeffs in ((1, 2, 4), (2, 0, 2), (-6, 4, 8), (3, 0, 2, -4), (6, 2, 0, 2)):
            p = QPoly(coeffs)
            assert isolate_roots(p) == isolate_roots(p.monic()), coeffs
        assert isolate_roots(QPoly((2, 0, 2))) == [BoxC.point(0, -1), BoxC.point(0, 1)]


def _pin_polys():
    """X^2 - 2X + 2 and X^2 + 4, whose imaginary parts squared are
    squares, and X^2 + 2, whose is not; then four seeded monic squarefree
    polynomials of each degree 2..6 with coefficients in {-3..3} / {1, 2}."""
    polys = [QPoly((2, -2, 1)), QPoly((4, 0, 1)), QPoly((2, 0, 1))]
    rng = random.Random(22)
    for degree in range(2, 7):
        count = 0
        while count < 4:
            low = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(degree)]
            p = QPoly(low + [1])
            if low[0] == 0 or p.gcd(p.derivative()).degree > 0:
                continue
            polys.append(p)
            count += 1
    return polys


def _box_text(b):
    return ",".join(str(v) for v in (b.re.lo, b.re.hi, b.im.lo, b.im.hi))


def test_pinned_boxes_and_descriptors():
    """The isolating boxes of _pin_polys, and the descriptor of the field
    that each box selects as its own hint, hash to the digest recorded
    before the field layer was simplified."""
    lines = []
    for p in _pin_polys():
        boxes = isolate_roots(p)
        lines.append(" ".join([str(c) for c in p.coeffs] + ["|"] + [_box_text(b) for b in boxes]))
        for box in boxes:
            try:
                f = field_make(p, root_hint=box)
            except NotIrreducible:
                lines.append("reducible")
                break
            lines.append(json.dumps(field_to_descriptor(f), sort_keys=True))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "6b6ca4b7ef8608557818804cbcc70aaaf650555508aa6a193fc8dfdeee2557cc"


# ---------------------------------------------------------------------------
# Arithmetic.
# ---------------------------------------------------------------------------


small_coords = st.lists(st.integers(-9, 9), min_size=2, max_size=2)


def elem(field, coords):
    return FieldElement(field, [F(c) for c in coords])


class TestFieldArithmetic:
    @given(small_coords, small_coords, small_coords)
    def test_ring_axioms_sqrt2(self, a, b, c):
        f = sqrt2_field()
        x, y, z = elem(f, a), elem(f, b), elem(f, c)
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x * y == y * x
        assert x - x == f.zero()

    @given(small_coords)
    def test_inverse(self, a):
        f = sqrt2_field()
        x = elem(f, a)
        if x.is_zero:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == f.one()

    def test_defining_relation(self):
        for f in (sqrt2_field(), gauss_field(), zeta8_field()):
            w = f.generator()
            acc = f.zero()
            p = f.one()
            for c in f.min_poly.coeffs:
                acc = acc + p * c
                p = p * w
            assert acc.is_zero

    def test_min_poly_of_generator(self):
        f = sqrt2_field()
        assert f.generator().min_poly_over_Q() == QPoly((-2, 0, 1))

    def test_min_poly_of_shifted(self):
        f = sqrt2_field()
        x = f.one() + f.generator()
        assert x.min_poly_over_Q() == QPoly((-1, -2, 1))

    def test_min_poly_of_subfield_element(self):
        f = zeta8_field()
        w = f.generator()
        assert (w * w).min_poly_over_Q() == QPoly((1, 0, 1))

    def test_min_poly_of_rational(self):
        f = sqrt2_field()
        assert f.from_rational(F(7, 3)).min_poly_over_Q() == QPoly((F(-7, 3), 1))

    def test_rational_value(self):
        f = sqrt2_field()
        assert f.from_rational(5).rational_value() == 5
        assert f.generator().rational_value() is None

    def test_equal_elements_hash_equal(self):
        # equal elements built by the constructor, by arithmetic and by
        # from_rational hash equal, whichever of them is hashed first
        for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
            f = sqrt2_field()
            w = f.generator()
            made = [
                FieldElement(f, (F(3), F(0))),
                w * w + f.one(),
                f.from_rational(3),
            ]
            hashes = {i: hash(made[i]) for i in order}
            assert len(set(hashes.values())) == 1
            assert made[0] == made[1] == made[2]
            assert hash(made[1]) == hashes[1]
            assert {made[0], made[1], made[2]} == {made[order[0]]}
            for x in made:
                with pytest.raises(AttributeError):
                    x.coords = (F(1), F(0))
                with pytest.raises(AttributeError):
                    x._min_poly = QPoly((0, 1))


def _random_min_poly(rng, degree):
    # leading coefficients that are not 1 exercise the division by lc(p)
    lc = rng.choice((1, 2, 3, -1, F(1, 2)))
    low = [F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))) for _ in range(degree)]
    return QPoly(low + [lc])


def _random_element(rng, f):
    roll = rng.random()
    if roll < 0.1:
        return f.zero()
    if roll < 0.2:
        return f.from_rational(F(rng.randint(-9, 9), rng.randint(1, 4)))
    return elem(f, [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(f.degree)])


class TestLeanProduct:
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_matches_the_qpoly_route(self, degree):
        rng = random.Random(degree)
        for _ in range(20):
            p = _random_min_poly(rng, degree)
            # a handle built without field_make keeps p as given, non-monic
            # included; the product never looks at the root boxes
            f = NumberField(p, (BoxC.point(0),), 0)
            for _ in range(15):
                x, y = _random_element(rng, f), _random_element(rng, f)
                for a, b in ((x, y), (x, x)):
                    got = a * b
                    assert got == oracle.field_mul_via_qpoly(a, b), (p, a, b)
                    assert len(got.coords) == degree
                    assert all(type(c) is F for c in got.coords)

    def test_fields_in_use_match_the_qpoly_route(self):
        rng = random.Random(7)
        for f in (sqrt2_field(), gauss_field(), zeta8_field(), zeta9_field()):
            w = f.generator()
            for _ in range(30):
                x = _random_element(rng, f)
                assert x * w == oracle.field_mul_via_qpoly(x, w)
                assert w * x == x * w

    def test_sums_and_differences_stay_exact(self):
        f = zeta9_field()
        rng = random.Random(9)
        for _ in range(30):
            x, y = _random_element(rng, f), _random_element(rng, f)
            for got, want in (
                (x - y, [a - b for a, b in zip(x.coords, y.coords)]),
                (x + y, [a + b for a, b in zip(x.coords, y.coords)]),
                (-x, [-a for a in x.coords]),
                (3 - x, [3 - x.coords[0]] + [-a for a in x.coords[1:]]),
                (x * F(2, 3), [a * F(2, 3) for a in x.coords]),
            ):
                assert got.coords == tuple(want)
                assert all(type(c) is F for c in got.coords)


def _eisenstein_field(rng, degree, monic):
    # Eisenstein at 2 with an odd leading coefficient other than +-1, so
    # the polynomial is irreducible and its roots are not algebraic
    # integers; as given, or made monic as field_make makes it
    low = [2 * rng.randint(-3, 3) for _ in range(degree)]
    low[0] = 4 * rng.randint(-2, 2) + 2
    p = QPoly(low + [rng.choice((3, 5, -7, 9))])
    return NumberField(p.monic() if monic else p, (BoxC.point(0),), 0)


class TestIntegerCoordinates:
    """FieldElement on integer numerators against the Fraction oracle."""

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_matches_the_fraction_oracle(self, degree):
        rng = random.Random(4400 + degree)
        for trial in range(8):
            f = _eisenstein_field(rng, degree, monic=trial % 2 == 0)
            one = (F(1),) + (F(0),) * (degree - 1)
            for _ in range(6):
                x, y = _random_element(rng, f), _random_element(rng, f)
                for a, b in ((x, y), (x, x), (y, f.generator())):
                    got = a * b
                    assert got.coords == oracle.field_mul_fraction(a, b), (f, a, b)
                    assert all(type(c) is F for c in got.coords)
                for q in (rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 5))):
                    assert (x * q).coords == (q * x).coords == tuple(c * q for c in x.coords)
                if not x.is_zero:
                    assert oracle.field_mul_fraction(x, x.inverse()) == one
                assert x.min_poly_over_Q().coeffs == oracle.element_min_poly(x)

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_equality_and_hash_follow_the_coordinates(self, degree):
        rng = random.Random(4500 + degree)
        for trial in range(8):
            f = _eisenstein_field(rng, degree, monic=trial % 2 == 0)
            for _ in range(6):
                x, y = _random_element(rng, f), _random_element(rng, f)
                assert (x == y) == (x.coords == y.coords)
                # the same element built by the constructor and by
                # arithmetic that passes through other denominators
                for same in (FieldElement(f, x.coords), (x * 6) * F(1, 6), x + y - y):
                    assert same == x and hash(same) == hash(x), (x, same)
                assert x * y == y * x and hash(x * y) == hash(y * x)

    def test_subfield_elements_match_the_fraction_oracle(self):
        # at degree 8-12 an element of a proper subfield has a proper power
        # of its minimal polynomial as characteristic polynomial; each
        # subfield element is a seeded polynomial in a generator theta of
        # it, over denominators up to 3, and one handle is non-monic
        rng = random.Random(4600)

        def powers(x, k):
            out = [x.field.one()]
            for _ in range(k):
                out.append(out[-1] * x)
            return out

        cases = []
        for p, thetas in (
            (_cyclotomic(13), lambda w: [w[1] + w[12], w[1] + w[5] + w[8] + w[12], w[1] + w[3] + w[9]]),
            (_cyclotomic(16), lambda w: [w[2], w[4], w[1] - w[7]]),
            (_cyclotomic(21), lambda w: [w[3], w[7], w[1] + w[8]]),
            # Eisenstein at 2
            (QPoly((2, 0, 0, 0, -4, 0, 0, 0, 3)), lambda w: [w[4], w[2]]),
        ):
            f = NumberField(p, (BoxC.point(0),), 0)
            cases += [f.zero(), f.from_rational(F(-7, 3))]
            for theta in thetas(powers(f.generator(), 12)):
                k = len(oracle.element_min_poly(theta)) - 1
                assert 1 < k < f.degree
                basis = powers(theta, k - 1)
                cases.append(theta)
                for _ in range(4):
                    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in basis]
                    cases.append(sum((c * b for c, b in zip(coeffs, basis)), f.zero()))
        assert sum(not x.is_zero and x.rational_value() is None for x in cases) >= 50
        for x in cases:
            assert x.min_poly_over_Q().coeffs == oracle.element_min_poly(x), x
            one = (F(1),) + (F(0),) * (x.field.degree - 1)
            if x.is_zero:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
            else:
                assert oracle.field_mul_fraction(x, x.inverse()) == one, x


# ---------------------------------------------------------------------------
# Subgroup membership.
# ---------------------------------------------------------------------------


class TestSubgroupMember:
    @given(st.integers(-100, 100))
    def test_round_trip(self, k):
        f = sqrt2_field()
        w = f.generator()
        assert subgroup_member(w * k, w) == k

    def test_non_member(self):
        f = sqrt2_field()
        w = f.generator()
        assert subgroup_member(f.one() + w, w) is None
        assert subgroup_member(f.one(), w) is None

    def test_rational_generator(self):
        f = field_make(QPoly((-3, 1)))
        w = f.generator()
        assert subgroup_member(f.from_rational(12), w) == 4
        assert subgroup_member(f.from_rational(1), w) is None

    def test_zero_generator_rejected(self):
        f = field_make(QPoly((0, 1)))
        with pytest.raises(ZeroGenerator):
            subgroup_member(f.one(), f.generator())


# ---------------------------------------------------------------------------
# Embeddings and modulus comparison.
# ---------------------------------------------------------------------------


class TestEmbed:
    def test_width_budget(self):
        f = zeta8_field()
        b = embed(f.generator(), f.selected_root, 30)
        assert b.width <= F(1, 2**30)

    def test_rational_is_point(self):
        f = sqrt2_field()
        b = embed(f.from_rational(F(3, 7)), f.selected_root, 10)
        assert b.is_point() and b.re.lo == F(3, 7)

    def test_conjugate_embeddings_differ(self):
        f = sqrt2_field()
        w = f.generator()
        pos = embed(w, f.selected_root, 10)
        other = embed(w, 1 - f.selected_root, 10)
        assert pos.re.lo > 0 > other.re.hi

    def test_respects_multiplication(self):
        f = sqrt2_field()
        w = f.generator()
        b = embed(w * w, f.selected_root, 12)
        assert b.re.contains(F(2))

    def test_refined_narrows(self):
        f = sqrt2_field()
        g = f.refined(f.selected_root, F(1, 10**6))
        assert g.selected_box().width <= F(1, 10**6)
        assert g.selected_box().touches(f.selected_box())

    @pytest.mark.parametrize("precision", [-1, 2.5])
    def test_bad_precision_refused(self, precision):
        f = sqrt2_field()
        with pytest.raises(ValueError, match="precision"):
            embed(f.generator(), 0, precision)

    def test_box_image_matches_interval_horner(self):
        # the integer route gives QPoly.__call__'s rectangle exactly, on
        # point boxes, boxes on the real line and degree 1 too
        rng = random.Random(30)

        def rat():
            return F(rng.randint(-40, 40), rng.choice((1, 2, 3, 8, 12, 1024)))

        shapes = {"point": 0, "real": 0, "linear": 0}
        for i in range(300):
            p = QPoly([rat() for _ in range(rng.randint(1, 7))] + [rat() or F(1)])
            re = sorted((rat(), rat()))
            im = sorted((rat(), rat()))
            if i % 5 == 0:
                re = im = [rat()] * 2
            elif i % 5 == 1:
                im = [F(0)] * 2
            box = BoxC.make(re[0], re[1], im[0], im[1])
            shapes["point"] += box.is_point()
            shapes["real"] += box.is_real_line()
            shapes["linear"] += p.degree == 1
            q = lcm(*(c.denominator for c in p.coeffs))
            num = [c.numerator * (q // c.denominator) for c in p.coeffs]
            assert _box_image(num, q, box) == p(box), (p, box)
        assert min(shapes.values()) > 10

    def test_refined_handle_equals_its_source(self):
        width = F(1, 2**20)
        for f in (sqrt2_field(), zeta8_field(), zeta9_field()):
            coords = [F(i - 1, 3) for i in range(f.degree)]
            for i in range(f.degree):
                g = f.refined(i, width)
                assert g.root_boxes[i].width <= width < f.root_boxes[i].width
                assert g == f and hash(g) == hash(f)
                assert g != f.with_selected((f.selected_root + 1) % f.degree)
                x, y = FieldElement(f, coords), FieldElement(g, coords)
                assert x == y and hash(x) == hash(y) and len({x, y}) == 1


def _float_inside(box, z, margin):
    """Whether the float z lies in box; None when it is within margin of
    an edge line, where a float cannot decide."""
    gaps = (
        z.real - float(box.re.lo),
        float(box.re.hi) - z.real,
        z.imag - float(box.im.lo),
        float(box.im.hi) - z.imag,
    )
    if min(abs(g) for g in gaps) <= margin:
        return None
    return min(gaps) > 0


def _nearest_float_root(coeffs, box):
    c = complex(float(box.re.mid), float(box.im.mid))
    return min(numpy.roots(coeffs[::-1]), key=lambda z: abs(z - c))


def _nonreal_field_poly(rng, degree):
    """Seeded monic irreducible integer polynomial, |coeff| <= 2, with
    nonreal roots; its coefficients (constant first) and root boxes."""
    while True:
        coeffs = [rng.randint(-2, 2) for _ in range(degree)] + [1]
        if coeffs[0] == 0:
            continue
        p = QPoly(coeffs)
        if irreducible_over_Q(p).status != "Proven":
            continue
        boxes = isolate_roots(p)
        if not all(b.is_real_line() for b in boxes):
            return coeffs, boxes


class TestNewtonRefinement:
    @pytest.mark.parametrize("degree", [4, 5, 6])
    def test_against_quadtree_and_float_roots(self, degree):
        rng = random.Random(2026 + degree)
        coeffs, boxes = _nonreal_field_poly(rng, degree)
        p = QPoly(coeffs)
        upper = [b for b in boxes if b.im.lo > 0]
        lower = [b for b in boxes if b.im.hi < 0]
        for box in (rng.choice(upper), rng.choice(lower)):
            fine = _refine_one(p, box, F(1, 2**20))
            assert fine.width <= F(1, 2**20)
            assert fine.within(box)
            assert fine.touches(oracle.shrink_box(p, box, F(1, 2**12)))
            z = _nearest_float_root(coeffs, fine)
            assert _float_inside(fine, z, 1e-12) in (True, None)

    def test_matches_the_fraction_newton(self):
        # the integer Newton and Pellet's certificate give the Fraction
        # route's box, or its None, on every upper-half isolating box, on
        # a seeded box inside it that holds its root off centre, and on
        # one whose corner is within 2^-30 of the root
        rng = random.Random(31)

        def between(a, b):
            return a + (b - a) * F(rng.randint(0, 64), 64)

        results = []
        for degree in (3, 4, 5, 6, 6):
            coeffs, boxes = _nonreal_field_poly(rng, degree)
            p = QPoly(coeffs)
            for box in [b for b in boxes if b.im.lo > 0]:
                root = _refine_one(p, box, F(1, 2**30))
                starts = [
                    box,
                    BoxC.make(
                        between(box.re.lo, root.re.lo), between(root.re.hi, box.re.hi),
                        between(box.im.lo, root.im.lo), between(root.im.hi, box.im.hi),
                    ),
                    BoxC.make(root.re.lo, box.re.hi, root.im.lo, box.im.hi),
                ]
                for start in starts:
                    for bits in (3, 5, 8, 12, 20, 30, 40):
                        got = _newton_box(p, start, F(1, 2**bits))
                        assert got == oracle.newton_box(p, start, F(1, 2**bits)), (p, start, bits)
                        results.append(got is not None)
        assert 0 < sum(results) < len(results)

    def test_refinement_takes_no_quadtree_step(self, monkeypatch):
        # Newton's disk, certified by Pellet's test alone, refines every
        # nonreal isolating box of 40 seeded inputs of degree 3-16 to each
        # width without a quadtree step
        steps = []
        monkeypatch.setattr(numfield_module, "_regrid", lambda grid, box: steps.append(box) or _regrid(grid, box))
        refined = 0
        for p in _squarefree_polys(37, 40, range(3, 17), 3):
            for box in [b for b in isolate_roots(p) if not b.is_real_line()]:
                for bits in (3, 20, 256):
                    assert _refine_one(p, box, F(1, 2**bits)).width <= F(1, 2**bits)
                    refined += 1
        assert steps == [] and refined > 600

    def test_critical_centre_falls_back_to_a_quadtree_step(self, monkeypatch):
        # the box isolates the root near 0.298 + 1.807i of X^3 + 3X + 2
        # and is centred on i, where the derivative 3X^2 + 3 vanishes:
        # Newton gives up at its first step, and one quadtree step gives
        # it a start off the critical point
        coeffs = [2, 3, 0, 1]
        p, width = QPoly(coeffs), F(1, 2**20)
        box = BoxC.make(F(-9, 10), F(9, 10), F(1, 10), F(19, 10))
        assert (box.re.mid, box.im.mid) == (0, 1) and p.derivative() == QPoly((3, 0, 3))
        assert _newton_box(p, box, width) is None
        steps = []
        monkeypatch.setattr(numfield_module, "_regrid", lambda grid, b: steps.append(b) or _regrid(grid, b))
        fine = _refine_one(p, box, width)
        assert steps == [box] and fine.width <= width and fine.within(box)
        assert fine.touches(oracle.shrink_box(p, box, F(1, 2**12)))
        assert _float_inside(fine, _nearest_float_root(coeffs, fine), 1e-12) in (True, None)

    def test_newton_cycle_gives_up(self):
        # the box isolates the real root near -1.77 of X^3 - 2X + 2, and
        # Newton's method from its centre 0 runs 0 -> 1 -> 0 and never
        # settles
        p = QPoly((2, -2, 0, 1))
        box = BoxC.make(F(-9, 5), F(9, 5), F(-1, 2), F(1, 2))
        newton = lambda x: x - p(x) / p.derivative()(x)
        assert box.re.mid == box.im.mid == 0 and newton(0) == 1 and newton(1) == 0
        assert _newton_box(p, box, F(1, 2**20)) is None

    def test_neighbour_past_the_edge_fails_pellet(self, monkeypatch):
        # the box isolates i among the roots +-i and 1/4 +- i of
        # (X^2 + 1)(X^2 - X/2 + 17/16); Newton converges to i, but the
        # disk of radius 9/40 it would certify comes within 1/40 of
        # 1/4 + i, too close for Pellet's test, so refinement takes a
        # quadtree step first
        p = QPoly((1, 0, 1)) * QPoly((F(17, 16), F(-1, 2), 1))
        box = BoxC.make(F(-1, 2), F(9, 40), F(1, 2), F(3, 2))
        assert not polycrit_module._pellet(*numfield_module._recentre(p.int_coeffs(), 0, 1, F(9, 40)), 1)
        assert _newton_box(p, box, F(1, 2)) is None
        steps = []
        monkeypatch.setattr(numfield_module, "_regrid", lambda grid, b: steps.append(b) or _regrid(grid, b))
        fine = _refine_one(p, box, F(1, 2))
        assert steps == [box] and fine.width <= F(1, 2) and fine.within(box)
        assert fine.re.lo <= 0 <= fine.re.hi and fine.im.lo <= 1 <= fine.im.hi

    def test_phi13_at_1024_bits_runs_no_chain(self, monkeypatch):
        # Pellet's test certifies every Newton disk on the way, so no
        # Schur-Cohn chain runs; the box is the one the chain certified
        f = field_make(QPoly((1,) * 13), root_hint=BoxC.make(F(88, 100), F(89, 100), F(46, 100), F(47, 100)))
        chains = []
        chain = polycrit_module._chain
        monkeypatch.setattr(polycrit_module, "_chain", lambda g: chains.append(g) or chain(g))
        start = time.perf_counter()
        b = embed(f.generator(), f.selected_root, 1024)
        assert time.perf_counter() - start < 1
        assert chains == [] and b.width <= F(1, 2**1024)
        digest = hashlib.sha256(_box_text(b).encode()).hexdigest()
        assert digest == "a965b625a6ccf788e619edfdc3e6d226adcc29ad46e2fcd48c2eacce43f7f582"

    def test_quadtree_fallback(self, monkeypatch):
        # with Newton never certifying, refinement is quadtree steps alone
        p = QPoly((-1, 1, 1, -1, 1))
        monkeypatch.setattr(numfield_module, "_newton_box", lambda p, box, width: None)
        boxes = [b for b in isolate_roots(p) if not b.is_real_line()]
        assert sorted(b.im.lo > 0 for b in boxes) == [False, True]
        for box in boxes:
            assert _refine_one(p, box, F(1, 2**10)) == oracle.shrink_box(p, box, F(1, 2**10))

    def test_quadtree_refinement_keeps_one_grid(self, monkeypatch):
        # with Newton never certifying, a refinement to 2^-64 isolates the
        # real roots once and runs Aberth once per grid bits, and its boxes
        # are those of quadtree steps on grids built afresh.  A step's cell
        # unit, 1/(4 x the common denominator of the box's corners), can
        # grow on inputs with coefficients in (1/3)Z, (1/5)Z or (1/6)Z, so
        # the carried grid may hold more bits than a fresh one would; the
        # boxes are still the same
        monkeypatch.setattr(numfield_module, "_newton_box", lambda p, box, width: None)
        isolations, enclosures, units = [], [], []
        isolate, enclose = numfield_module.real_roots_isolated, numfield_module.root_enclosures
        grid = numfield_module._grid

        def enclose_spy(ints, bits):
            enclosures.append(bits)
            return enclose(ints, bits)

        def grid_spy(ints, reals, unit, *carried):
            units.append(unit)
            return grid(ints, reals, unit, *carried)

        monkeypatch.setattr(numfield_module, "real_roots_isolated", lambda p: isolations.append(p) or isolate(p))
        monkeypatch.setattr(numfield_module, "root_enclosures", enclose_spy)
        polys = [QPoly((-1, 1, 1, -1, 1)), _squarefree_polys(38, 1, [8], 3)[0]]
        for q in (3, 5, 6):
            polys += _squarefree_polys(18, 2, range(3, 9), 6, q)
        grew = 0
        for p in polys:
            for box in [b for b in isolate_roots(p) if b.im.lo > 0]:
                isolations.clear()
                enclosures.clear()
                units.clear()
                monkeypatch.setattr(numfield_module, "_grid", grid_spy)
                got = _refine_one(p, box, F(1, 2**64))
                monkeypatch.setattr(numfield_module, "_grid", grid)
                assert isolations == [p] and sorted(set(enclosures)) == enclosures
                assert got == oracle.shrink_box(p, box, F(1, 2**64))
                # the first grid is the plane's at unit 1, then one a step
                grew += any(b > a for a, b in zip(units[1:], units[2:]))
        assert grew

    def test_isolation_cap_fails_fast(self, monkeypatch):
        # with a separation bound of 1 the limit is 64 bits and the cells
        # stop at 2^-48: the cluster of (a^2 (X^2 + 1)^2 + 1)(X^6 + 3), two
        # roots 2^-61 apart, stays unseparated, while X^4 + 1 isolates
        monkeypatch.setattr(numfield_module, "_separation_bound", lambda ints: 1)
        a2 = 2 ** 122
        start = time.perf_counter()
        with pytest.raises(UndecidableAtPrecision, match="subdivision failed"):
            isolate_roots(QPoly((a2 + 1, 0, 2 * a2, 0, a2)) * QPoly((3, 0, 0, 0, 0, 0, 1)))
        assert time.perf_counter() - start < 0.5
        assert len(isolate_roots(QPoly((1, 0, 0, 0, 1)))) == 4

    def test_embedding_cap_fails_fast(self, monkeypatch):
        f = zeta8_field()
        stored = f.selected_box().width
        monkeypatch.setattr(numfield_module, "_MAX_DEPTH", 0)
        with pytest.raises(UndecidableAtPrecision, match="did not converge"):
            embed(f.generator(), f.selected_root, stored.denominator.bit_length() + 8)

    def test_quadtree_step_below_the_axis(self):
        # x^4 - x^3 + x^2 + x - 1 at a lower-half root
        coeffs = [-1, 1, 1, -1, 1]
        p = QPoly(coeffs)
        box = next(b for b in isolate_roots(p) if b.im.hi < 0)
        grid = numfield_module._grid(p.int_coeffs(), real_roots_isolated(p)[0], F(1))
        step = _regrid(grid, box)[0]
        assert step.within(box) and step.width < box.width
        assert _float_inside(step, _nearest_float_root(coeffs, step), 1e-12) in (True, None)

    def test_anchor_embed_at_64_bits(self):
        p = QPoly((1, 0, 0, 1, 0, 0, 1))
        f = field_make(p, root_hint=BoxC.make(F(1, 2), 1, F(1, 2), F(3, 4)))
        start = time.perf_counter()
        b = embed(f.generator(), f.selected_root, 64)
        assert time.perf_counter() - start < 2
        assert b.width <= F(1, 2**64)
        assert abs(complex(float(b.re.lo), float(b.im.lo)) - numpy.exp(2j * numpy.pi / 9)) < 1e-12


def _box(corners):
    return BoxC.make(*(F(c) for c in corners))


# upper-half roots: (isolating box, refined at 2^-30), as re_lo, re_hi,
# im_lo, im_hi.  x^2+2 and x^2+x+1 refine the imaginary part as a square
# root, x^2+2x+5 has a point box, and the rest run Newton
UPPER_HALF_BOXES = [
    ((2, 0, 1), [
        (("0", "0", "21/16", "3/2"),
         ("0", "0", "6074000997/4294967296", "759250125/536870912")),
    ]),
    ((1, 1, 1), [
        (("-1/2", "-1/2", "21/32", "7/8"),
         ("-1/2", "-1/2", "1859775393/2147483648", "7439101579/8589934592")),
    ]),
    ((5, 2, 1), [
        (("-1", "-1", "2", "2"),
         ("-1", "-1", "2", "2")),
    ]),
    ((1, 1, 1, 1, 1), [
        (("-1", "-1/2", "3/8", "3/4"),
         ("-13898806139/17179869184", "-13898806123/17179869184",
          "323138359509/549755813888", "323138360021/549755813888")),
        (("0", "1/2", "3/4", "9/8"),
         ("5308871531/17179869184", "5308871547/17179869184",
          "522848848913/549755813888", "522848849425/549755813888")),
    ]),
    ((-1, 1, 1, -1, 1), [
        (("0", "1", "3/4", "3/2"),
         ("326385178659/549755813888", "326385179171/549755813888",
          "328797499665/274877906944", "328797499921/274877906944")),
    ]),
    ((1, 0, 0, 1, 0, 0, 1), [
        (("-1", "-7/8", "1/4", "7/16"),
         ("-516601481801/549755813888", "-516601481289/549755813888",
          "47006890501/137438953472", "47006890629/137438953472")),
        (("1/8", "1/4", "7/8", "17/16"),
         ("95464094987/549755813888", "95464095499/549755813888",
          "135350946881/137438953472", "135350947009/137438953472")),
        (("5/8", "7/8", "9/16", "3/4"),
         ("421137386045/549755813888", "421137386557/549755813888",
          "22086014079/34359738368", "22086014111/34359738368")),
    ]),
]


class TestConjugateSymmetry:
    """A box below the real axis refines, on the general path, to exactly
    the conjugate of its mirror image's refinement: p has real
    coefficients, Newton's dyadic rounding is symmetric, and the disk
    counts and the quadtree step read the imaginary part only through
    its absolute value."""

    @pytest.mark.parametrize(
        "coeffs, pinned", UPPER_HALF_BOXES, ids=[str(c) for c, _ in UPPER_HALF_BOXES]
    )
    def test_pinned_boxes_in_both_half_planes(self, coeffs, pinned):
        p = QPoly(coeffs)
        width = F(1, 2**30)
        nonreal = [b for b in isolate_roots(p) if not b.is_real_line()]
        upper = [b for b in nonreal if b.im.lo >= 0]
        lower = [b for b in nonreal if b.im.hi < 0]
        assert upper == [_box(iso) for iso, _ in pinned]
        assert sorted(lower, key=BoxC.sort_key) == sorted(
            (b.conj() for b in upper), key=BoxC.sort_key
        )
        for box, (_, fine) in zip(upper, pinned):
            refined = _refine_one(p, box, width)
            assert refined == _box(fine)
            assert _refine_one(p, box.conj(), width) == refined.conj()

    @pytest.mark.parametrize("newton", [True, False], ids=["newton", "quadtree"])
    @pytest.mark.parametrize("degree", [4, 5, 6])
    def test_seeded_boxes_in_both_half_planes(self, monkeypatch, degree, newton):
        if not newton:
            monkeypatch.setattr(numfield_module, "_newton_box", lambda p, box, width: None)
        rng = random.Random(1800 + degree)
        coeffs, boxes = _nonreal_field_poly(rng, degree)
        p = QPoly(coeffs)
        box = rng.choice([b for b in boxes if b.im.lo > 0])
        for width in (F(1, 2**12), F(1, 2**40)):
            assert _refine_one(p, box.conj(), width) == _refine_one(p, box, width).conj()


def _squarefree_polys(seed, count, degrees, bound, denominator=1):
    """Seeded monic squarefree polynomials with p(0) != 0 and the other
    coefficients in [-bound, bound] / denominator."""
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        degree = rng.choice(degrees)
        coeffs = [F(rng.randint(-bound, bound), denominator) for _ in range(degree)] + [1]
        p = QPoly(coeffs)
        if coeffs[0] != 0 and p.gcd(p.derivative()).degree == 0:
            polys.append(p)
    return polys


class TestIntegerCells:
    """The quadtree runs its cell test on integer cell coordinates; the
    cell test it replaced, on rectangles with rational corners, is the
    oracle in fraction_oracle."""

    def test_decisions_and_boxes_match_the_fraction_oracle(self, monkeypatch):
        # every cell visited while isolating the roots of 200 polynomials,
        # and taking one quadtree step below the axis on every tenth
        seen, visited, tangent_rows = set(), [], set()
        integer_test = numfield_module._cell_excluded

        def both(grid, cell):
            got = integer_test(grid, cell)
            box, events = numfield_module._box(cell, grid[2]), set()
            assert got == oracle.cell_excluded(QPoly(grid[0]), box, events), (grid[0], box)
            if "tangent" in events:
                tangent_rows.add(cell[2] / (cell[3] - cell[2]))
            seen.update(events)
            visited.append(got)
            return got

        monkeypatch.setattr(numfield_module, "_cell_excluded", both)
        lines = []
        for i, p in enumerate(_squarefree_polys(23, 200, range(3, 9), 1)):
            boxes = isolate_roots(p)
            lines.append(" ".join([str(c) for c in p.coeffs] + ["|"] + [_box_text(b) for b in boxes]))
            lower = [b for b in boxes if b.im.hi < 0]
            if lower and i % 10 == 0:
                grid = numfield_module._grid(p.int_coeffs(), real_roots_isolated(p)[0], F(1))
                lines.append(_box_text(_regrid(grid, lower[0])[0]))
        # a degenerate rung, an exclusion by the trace count, a cell of the
        # second row whose first disk is tangent to the axis, a step below it
        assert {"below", "none", "tangent", "trace"} <= seen and 1 in tangent_rows
        assert len(visited) > 10_000 and 0 < sum(visited) < len(visited)
        # the boxes isolated before the cells moved onto integer coordinates
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "6421447e7f7ac12a860f1ddef0814eacc5729f1af7cbece0453a7d4d297e026b"

    def test_a_root_on_every_rung_keeps_the_cell(self):
        # the cell (-1, 1, 0, 1) at unit 1 has centre i/2 and rung radii
        # 3m/34; a root i(1/2 + 3m/34) on each circle makes every rung's
        # enclosure count None, so the cell is kept, as the Fraction cell
        # test keeps it
        p = QPoly((1,))
        for m in numfield_module._RUNGS:
            top = F(1, 2) + F(3 * m, 34)
            p = p * QPoly((top * top, 0, 1))
        grid = numfield_module._grid(p.int_coeffs(), real_roots_isolated(p)[0], F(1))
        cell, enc, bits = (-1, 1, 0, 1), grid[3], grid[4]
        assert all(
            numfield_module._enclosure_count(enc, 0, 17, 3 * m, F(1), bits) is None
            for m in numfield_module._RUNGS
        )
        seen = set()
        assert not oracle.cell_excluded(p, numfield_module._box(cell, F(1)), seen)
        assert seen == {"none"}
        assert not numfield_module._cell_excluded(grid, cell)

    def test_quarters_match_the_rectangle_split(self):
        rng = random.Random(4)
        for _ in range(50):
            x0, y0 = rng.randint(-40, 40), rng.randint(-40, 40)
            cell = (x0, x0 + rng.randint(1, 9), y0, y0 + rng.randint(1, 9))
            unit = F(rng.randint(1, 99), rng.randint(1, 99))
            quarters = [numfield_module._box(q, unit / 2) for q in numfield_module._split4(cell)]
            assert quarters == oracle.split4(numfield_module._box(cell, unit))

    def test_real_root_between_the_short_and_the_long_trace(self):
        # the disk of radius 3/2 around i/2 meets the axis in (-sqrt 2, sqrt 2);
        # its short trace ends at 5792/4096 < 1.4141 < sqrt 2, so the first
        # rung counts one root, finds none on the short trace and one on the
        # long one, and the second rung excludes the cell
        p = QPoly((F(-14141, 10000), 1)) * QPoly((100, 0, 1))
        grid = numfield_module._grid(p.int_coeffs(), real_roots_isolated(p)[0], F(1))
        cell = (-1, 1, 0, 1)
        seen = set()
        assert oracle.cell_excluded(p, numfield_module._box(cell, F(1)), seen)
        assert seen == {"trace"}
        assert numfield_module._cell_excluded(grid, cell)

    @given(
        roots=st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=5, unique=True),
        nonreal=st.booleans(),
        points=st.lists(st.booleans(), min_size=5, max_size=5),
        ends=st.lists(st.fractions(-4, 4, max_denominator=8), min_size=2, max_size=2),
        on_roots=st.lists(st.integers(0, 4), min_size=2, max_size=2),
        use_root=st.lists(st.booleans(), min_size=2, max_size=2),
    )
    def test_interval_count_matches_count_real_roots(
        self, roots, nonreal, points, ends, on_roots, use_root
    ):
        p = QPoly((1,))
        for r in roots:
            p = p * QPoly((-r, 1))
        if nonreal:
            p = p * QPoly((2, 1, 1))
        # some roots isolated by points (m, m), as refinement can return
        reals = [
            (r, r) if point else (lo, hi)
            for (lo, hi), r, point in zip(real_roots_isolated(p)[0], sorted(roots), points)
        ]
        # ends on roots, between roots or inside isolating intervals
        ends = [sorted(roots)[k % len(roots)] if on else e for e, k, on in zip(ends, on_roots, use_root)]
        lo, hi = min(ends), max(ends)
        if lo == hi:
            hi += F(1, 3)
        assert numfield_module._real_count(p.int_coeffs(), reals, lo, hi) == count_real_roots(p, lo, hi)

    def test_dominance_clears_only_empty_disks(self, monkeypatch):
        chained = []
        chain = polycrit_module._chain
        monkeypatch.setattr(polycrit_module, "_chain", lambda f: chained.append(f) or chain(f))
        rng = random.Random(2018)
        cleared = 0
        for p in _squarefree_polys(2018, 300, range(3, 9), 3):
            unit = F(rng.randint(1, 9), rng.choice((1, 2, 8, 17)))
            cx, cy, r = rng.randint(-99, 99), rng.randint(-99, 99), rng.randint(1, 60)
            centre = GaussRat(F(cx, 34) * unit, F(cy, 34) * unit)
            calls = len(chained)
            # the rung's rational disk, as the quadtree counts it
            got = polycrit_module._disk_count(p.int_coeffs(), centre.re, centre.im, F(r, 34) * unit)
            skipped = len(chained) == calls
            # the chain alone is the oracle
            strict = chain(qpoly_at_disk(p, centre, F(r, 34) * unit))
            assert got == strict == gauss_disk_count_strict(p, centre, F(r, 34) * unit)
            if skipped:
                cleared += 1
                assert strict == 0
        assert cleared >= 30


_GRID = 2 ** 64


class TestRootEnclosures:
    """Smith's disks around the Aberth points of numfield answer the
    quadtree's disk counts first; the strict count and the Fraction count
    of fraction_oracle are their oracles."""

    def test_each_enclosure_holds_one_root(self):
        # widened by one grid unit, each disk holds one root by Pellet's
        # test, and up to degree 6 by the Fraction count, which grows too
        # slow above it
        for degree in range(3, 17):
            for p in _squarefree_polys(1970 + degree, 2, [degree], 2):
                enc = numfield_module.root_enclosures(p.int_coeffs(), 64)
                assert enc is not None and len(enc) == degree
                for x, y, r in enc:
                    re, im, radius = F(x, _GRID), F(y, _GRID), F(r + 1, _GRID)
                    assert polycrit_module._pellet(*_recentre(p.int_coeffs(), re, im, radius), 1)
                    if degree <= 6:
                        assert oracle.gauss_disk_count_strict(p, GaussRat(re, im), radius) == 1

    def test_smith_disks_off_the_roots(self):
        # points up to 2^-20 off the roots: where their disks are disjoint,
        # each holds one root by the Fraction count, though Newton's distance
        # to the root alone, without the factor n, is no bound at all
        rng = random.Random(1970)
        checked = 0
        for p in _squarefree_polys(1970, 30, range(3, 6), 2):
            zs = [
                (x + rng.randint(-2 ** 44, 2 ** 44), y + rng.randint(-2 ** 44, 2 ** 44))
                for x, y, _ in numfield_module.root_enclosures(p.int_coeffs(), 64)
            ]
            disks = numfield_module._smith_disks(p.int_coeffs(), zs, 64)
            if disks is None:
                continue
            checked += 1
            for x, y, r in disks:
                centre = GaussRat(F(x, _GRID), F(y, _GRID))
                assert oracle.gauss_disk_count_strict(p, centre, F(r + 1, _GRID)) == 1
        assert checked >= 20

    def test_enclosure_count_reads_inside_outside_and_straddling(self):
        # one enclosure of radius 1/16 at 0; at the unit 1/16 a rung disk's
        # centre and radius are in units of 1/544, so the enclosure's radius is 34
        enc, unit = [(0, 0, _GRID // 16)], F(1, 16)
        count = numfield_module._enclosure_count
        assert count(enc, 0, 0, 35, unit, 64) == 1
        assert count(enc, 0, 0, 34, unit, 64) is None  # the disk holds no margin
        assert count(enc, 69, 0, 35, unit, 64) is None  # tangent from outside
        assert count(enc, 70, 0, 35, unit, 64) == 0
        assert count(enc + [(_GRID // 8, 0, 1)], 0, 0, 35, unit, 64) == 1
        assert count(enc + [(_GRID // 8, 0, 1)], 0, 0, 67, unit, 64) == 1
        assert count(enc + [(_GRID // 8, 0, 1)], 0, 0, 68, unit, 64) is None
        # an enclosure wider than the disk, though around its centre
        assert count([(0, 0, _GRID // 8)], 0, 0, 35, unit, 64) is None

    def test_enclosure_counts_match_the_strict_count(self, monkeypatch):
        # every rung count while isolating the roots of the 200 polynomials
        # of the pinned digest: where the enclosures decide it, the strict
        # count on the rung's rational disk decides it the same way
        calls = []
        enclosure_count = numfield_module._enclosure_count

        def spy(enc, cx, cy, r, unit, bits):
            got = enclosure_count(enc, cx, cy, r, unit, bits)
            calls.append((unit, cx, cy, r, got))
            return got

        monkeypatch.setattr(numfield_module, "_enclosure_count", spy)
        decided, fallbacks = 0, []
        for p in _squarefree_polys(23, 200, range(3, 9), 1):
            calls.clear()
            isolate_roots(p)
            for unit, cx, cy, r, got in calls:
                disk = (F(v, 34) * unit for v in (cx, cy, r))
                strict = polycrit_module._disk_count(p.int_coeffs(), *disk)
                if got is None:
                    fallbacks.append(strict)
                else:
                    assert got == strict
                    decided += 1
        # the strict count degenerates on each rung where an enclosure
        # straddles the circle
        assert (decided, fallbacks) == (16209, [None] * 61)

    def test_clustered_roots_take_a_finer_grid(self):
        # a^3 (X^2 + 1)^3 + 1 with a near 2^61.3 has three roots within about
        # 2^-61 of i: Smith's disks overlap on the 2^-64 grid and are disjoint
        # on the 2^-128 one, and the boxes are those the strict count gave
        a3 = 2744696176657098029 ** 3
        p = QPoly((a3 + 1, 0, 3 * a3, 0, 3 * a3, 0, a3))
        assert numfield_module.root_enclosures(p.int_coeffs(), 64) is None
        assert numfield_module.root_enclosures(p.int_coeffs(), 128) is not None
        start = time.perf_counter()
        text = " ".join(_box_text(b) for b in isolate_roots(p))
        assert time.perf_counter() - start < 0.2
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "5aedc66d4ae825f11e27919b7bbc08e8a8d28c4c02bb8a384a475d817d094790"

    @pytest.mark.parametrize("tail", [(3, 0, 0, 0, 0, 0, 1), (3, 0, 0, 0, 0, 0, 0, 0, 1)])
    def test_unseparated_cluster_isolates(self, tail):
        # (a^2 (X^2 + 1)^2 + 1)(X^6 + 3), and with X^8 + 3, for a = 2^61: two
        # roots 2^-61 apart, which the enclosures separate on a finer grid,
        # and the cells below 2^-64 that the separation bound allows
        a2 = 2 ** 122
        p = QPoly((a2 + 1, 0, 2 * a2, 0, a2)) * QPoly(tail)
        start = time.perf_counter()
        boxes = isolate_roots(p)
        assert time.perf_counter() - start < 0.5
        assert len(boxes) == p.degree
        assert not any(a.touches(b) for i, a in enumerate(boxes) for b in boxes[:i])
        # each box lies in a disk of radius its width that holds one root
        for b in boxes:
            assert polycrit_module._disk_count(p.int_coeffs(), b.center.re, b.center.im, b.width) == 1
        digest = hashlib.sha256(" ".join(_box_text(b) for b in boxes).encode()).hexdigest()
        assert digest == {
            10: "0159a51efc93f0cc6f0035c9395f1a853323afc2fa4ef25cf4e9a3c193e945c9",
            12: "11db81e12494f0721391f33793b47aa3868e6bdc7162119baf7476662934de83",
        }[p.degree]

    def test_repeated_nonreal_root_fails_fast(self):
        # Smith's disks overlap around a double root at every grid, and the
        # grid stops doubling at twice the bits of the separation bound
        q = QPoly((1, 1, 0, 0, 1))
        start = time.perf_counter()
        with pytest.raises(NotSquarefree, match="repeated nonreal root"):
            isolate_roots(q * q * QPoly((-2, 0, 0, 1)))
        assert time.perf_counter() - start < 0.5


class TestModulusCompare:
    def test_three_way_answers(self):
        f = sqrt2_field()
        w = f.generator()
        i = f.selected_root
        assert modulus_compare(f.one() + w, i, 2) == "Greater"
        assert modulus_compare(w, i, 2) == "Less"
        assert modulus_compare(f.from_rational(2), i, 2) == "Equal"

    def test_unit_circle_exact(self):
        f = zeta8_field()
        assert modulus_compare(f.generator(), f.selected_root, 1) == "Equal"
        assert modulus_compare(f.generator(), f.selected_root, 2) == "Less"

    def test_conjugate_index_changes_answer(self):
        # 1 - sqrt(2) is small but its conjugate 1 + sqrt(2) exceeds 2
        f = field_make(QPoly((-1, -2, 1)), root_hint=BoxC.make(-1, 0, 0, 0))
        w = f.generator()
        assert modulus_compare(w, f.selected_root, 2) == "Less"
        assert modulus_compare(w, 1 - f.selected_root, 2) == "Greater"

    def test_zero_element(self):
        f = sqrt2_field()
        assert modulus_compare(f.zero(), f.selected_root, 1) == "Less"
        assert modulus_compare(f.zero(), f.selected_root, 0) == "Equal"

    def test_against_float_oracle(self):
        import math

        f = sqrt2_field()
        w = f.generator()
        for p, q in ((3, 2), (7, 5), (1, 1), (141421, 100000)):
            x = w * p - f.from_rational(q)
            true = abs(math.sqrt(2) * p - q)
            got = modulus_compare(x, f.selected_root, 2)
            if abs(true - 2) > 1e-6:
                assert got == ("Greater" if true > 2 else "Less")

    @pytest.mark.parametrize(
        "make",
        [
            zeta9_field,
            zeta8_field,
            lambda: field_make(QPoly((1, 0, -10, 0, 1)), root_hint=BoxC.make(3, 4, 0, 0)),
            lambda: field_make(QPoly((1, -3, 0, 1)), root_hint=BoxC.make(1, 2, 0, 0)),
        ],
        ids=["zeta9", "zeta8", "sqrt2_plus_sqrt3", "real_cubic"],
    )
    def test_equal_verdicts_match_the_oracle(self, make):
        # |x| = t makes t^2 = x * conj(x) a root of the composed product
        # of m_x, the independent resultant route
        f = make()
        w = f.generator()
        rng = random.Random(f.degree)
        xs = [f.from_rational(1), f.from_rational(-2), w, w * w * 2]
        for _ in range(8):
            coords = [F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(f.degree)]
            xs.append(FieldElement(f, coords))
        equal = 0
        for x in xs:
            for t in (1, 2):
                for idx in {0, f.selected_root}:
                    if x.is_zero or modulus_compare(x, idx, t) != "Equal":
                        continue
                    equal += 1
                    assert composed_product(x.min_poly_over_Q()).squarefree_part()(F(t * t)) == 0
        assert equal >= 2

    def test_planted_equalities(self):
        for f in (zeta8_field(), zeta9_field()):
            for idx in range(f.degree):
                assert modulus_compare(f.generator() * 2, idx, 2) == "Equal"
        # |1 + zeta8^2| = sqrt 2, written through its square and through
        # the quotient by sqrt 2 = zeta8 - zeta8^3 (up to sign)
        f = zeta8_field()
        w = f.generator()
        u = f.one() + w * w
        for idx in range(4):
            assert modulus_compare(u * u, idx, 2) == "Equal"
            assert modulus_compare(u * (w - w * w * w) * F(1, 2), idx, 1) == "Equal"

    def test_near_misses_are_never_equal(self):
        # 3 - 2 sqrt 2 = [0; 5, 1, 4, 1, 4, ...] against its convergents
        f = sqrt2_field()
        x = f.from_rational(3) - f.generator() * 2
        convergents = [(0, 1), (1, 5), (1, 6), (5, 29), (6, 35), (29, 169), (35, 204), (169, 985)]
        for p, q in convergents:
            # 3 - 2 sqrt 2 > p/q exactly when (3q - p)^2 > 8 q^2
            want = "Greater" if (3 * q - p) ** 2 > 8 * q * q else "Less"
            assert modulus_compare(x, f.selected_root, F(p, q)) == want

    def test_integral_scale_is_least(self):
        def integral(p, c):
            return all((c ** (p.degree - j) * a).denominator == 1 for j, a in enumerate(p.coeffs[:-1]))

        for coeffs, want in (
            ((F(289, 16), F(135, 2), 57, F(-15, 2), 18, 0, 1), 2),
            ((F(1, 12), 0, 1), 6),
            ((F(1, 8), F(1, 2), 1), 4),
            ((F(1, 375), 0, 0, 1), 15),
            ((F(3, 2), 1), 2),
        ):
            p = QPoly(coeffs)
            assert _integral_scale(p) == want
            assert integral(p, want) and not any(integral(p, c) for c in range(1, want))
        # a square of a prime above the trial-division bound enters whole:
        # valid, though not least
        big = 2**31 - 1
        p = QPoly((F(1, big * big), 0, 1))
        assert integral(p, _integral_scale(p))


def _adjoin_sqrt(f, c):
    """f(X + sqrt c) f(X - sqrt c), as A^2 - c B^2 for f(X + sqrt c) = A + sqrt(c) B."""
    x, a, b = QPoly((0, 1)), QPoly(()), QPoly(())
    # (X + sqrt c)^k = P + sqrt(c) Q
    P, Q = QPoly((1,)), QPoly(())
    for ck in f.coeffs:
        a, b = a + P * ck, b + Q * ck
        P, Q = P * x + Q * c, Q * x + P
    return a * a - b * b * c


def _unknown_inputs(seed, count):
    """Seeded squarefree inputs of degree 8-16 that irreducible_over_Q
    leaves open: shifted minimal polynomials of sqrt a + sqrt b + sqrt c,
    reducible where a, b, c are dependent, and products of irreducible
    factors of degree 2-4 without rational roots."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            p = QPoly((0, 1))
            for c in rng.sample((2, 3, 5, 6, 7, 10, 11), 3):
                p = _adjoin_sqrt(p, c)
            p = p(QPoly((rng.randint(-2, 2), 1)))
        else:
            p, degree = QPoly((1,)), rng.randint(12, 16)
            while p.degree < degree:
                g = QPoly([rng.randint(-3, 3) for _ in range(rng.choice((2, 3, 4)))] + [1])
                if g.coeffs[0] != 0 and irreducible_over_Q(g).status == "Proven":
                    p = p * g
        if (
            p.degree <= 16 and p not in out and p.gcd(p.derivative()).degree == 0
            and irreducible_over_Q(p).status == "Unknown"
        ):
            out.append(p)
    return out


def _cyclotomic(n):
    p = QPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            p = p // _cyclotomic(d)
    return p


_TRACE_INPUTS = {
    "Phi35": lambda: _cyclotomic(35),
    "Phi21": lambda: _cyclotomic(21),
    # the minimal polynomial of sqrt2 + sqrt3 + sqrt5 (Swinnerton-Dyer)
    "sqrt2+sqrt3+sqrt5": lambda: QPoly((576, 0, -960, 0, 352, 0, -40, 0, 1)),
}


def _refine_spy(monkeypatch):
    """Record (box, width, refined box) for every _refine_one call of
    numfield."""
    calls, refine = [], numfield_module._refine_one

    def spy(p, box, width):
        out = refine(p, box, width)
        calls.append((box, width, out))
        return out

    monkeypatch.setattr(numfield_module, "_refine_one", spy)
    return calls


class TestRefinementReuse:
    """Each consumer of root refinement refines a box once, or forward
    from where it left it."""

    @pytest.mark.parametrize("t, want", [(2, "Equal"), (2 + F(1, 2 ** 40), "Less")])
    def test_compare_rounds_refine_forward(self, monkeypatch, t, want):
        # |2 zeta13| = 2, and a threshold 2^-40 above it
        f = field_make(QPoly((1,) * 13), root_hint=BoxC.make(F(4, 5), 1, F(2, 5), F(1, 2)))
        x, idx = f.generator() * 2, f.selected_root
        calls = _refine_spy(monkeypatch)

        def image(box):
            calls.append("round")
            return box.abs2()

        assert numfield_module._compare_refined(x, idx, image, F(t) ** 2, 1) == want
        # at most one refinement before each round, each from the last box,
        # so every refinement is at the compared index and no other root
        # is refined for the zero bound
        pattern = "".join("r" if c == "round" else "f" for c in calls)
        assert "ff" not in pattern and pattern.count("r") >= 4
        steps = [c for c in calls if c != "round"]
        assert [c[0] for c in steps] == [f.root_boxes[idx]] + [c[2] for c in steps[:-1]]

    def test_equality_waits_for_an_interval_narrower_than_the_gap(self):
        # |sqrt2|^2 = 2 over Q(sqrt2): m_x = X^2 - 2, so n = 2, D = 2, c = 1
        # and q = 1, and gap = 1 / (q c^2 (q c^2 (k R^2 + |s|))^(D-1)) with
        # R the Cauchy bound of m_x, here 3.  An interval of width gap
        # around s decides nothing, and the next, just narrower, decides
        # "Equal"; a point, which any gap would take, comes only after them
        f = sqrt2_field()
        x, idx, s = f.generator(), f.selected_root, F(2)
        gap = 1 / (x.min_poly_over_Q().cauchy_root_bound() ** 2 + abs(s))
        assert gap == F(1, 11)
        widths = [gap, gap * F(99, 100), 0]
        rounds = []

        def image(box):
            rounds.append(box)
            width = widths[min(len(rounds), len(widths)) - 1]
            return numfield_module.RatInterval(s - width / 2, s + width / 2)

        assert numfield_module._compare_refined(x, idx, image, s, 1) == "Equal"
        assert len(rounds) == 2

    def test_factor_search_refines_each_root_once(self, monkeypatch):
        # each root is refined on its first use, from its isolating box to
        # the width goal, and never again, so an input whose factor comes
        # early leaves the roots it never reads unrefined
        calls = _refine_spy(monkeypatch)
        early = 0
        for p in _unknown_inputs(35, 4):
            boxes = isolate_roots(p)
            calls.clear()
            numfield_module._factor_from_roots(p, boxes)
            m, a = p.degree // 2, p.int_coeffs()[-1]
            goal = 1 / (4 * a * m * (2 * p.cauchy_root_bound() + 3) ** (m - 1))
            units = [b for b in boxes if b.is_real_line() or b.im.hi > 0]
            refined = [box for box, width, _ in calls if width == goal and box in units]
            assert len(set(refined)) == len(refined) == len(calls)
            early += len(calls) < len(units)
        assert early >= 1

    @pytest.mark.parametrize(
        "name, products",
        [("Phi35", 0), ("Phi21", 0), ("sqrt2+sqrt3+sqrt5", 12)],
    )
    def test_trace_test_comes_before_the_products(self, monkeypatch, name, products):
        # each of these irreducible inputs splits mod every prime; of its
        # 2,509, 41 and 154 root subsets, only those whose trace interval
        # holds an integer are multiplied out, each product starting from
        # the constant a
        p = _TRACE_INPUTS[name]()
        assert irreducible_over_Q(p).status == "Unknown"
        count, mul = [0], numfield_module._interval_poly_mul

        def spy(f, g):
            count[0] += len(f) == 1
            return mul(f, g)

        monkeypatch.setattr(numfield_module, "_interval_poly_mul", spy)
        assert numfield_module._factor_from_roots(p, isolate_roots(p)) is None
        assert count[0] == products

    def test_phi35_is_decided_fast(self):
        # 24 roots, 12 pairs: the trace test drops every subset unmultiplied
        start = time.perf_counter()
        with pytest.raises(AmbiguousHint):
            field_make(_cyclotomic(35))
        assert time.perf_counter() - start < 1.5

    def test_factors_match_the_pinned_digest(self):
        # the factor or None on 16 seeded open inputs, as the search found
        # them when it refined the roots of each subset in steps until the
        # subset was decided
        rows = []
        for p in _unknown_inputs(35, 16):
            factor = numfield_module._factor_from_roots(p, isolate_roots(p))
            found = "None" if factor is None else " ".join(str(c) for c in factor.coeffs)
            rows.append(" ".join(str(c) for c in p.coeffs) + " | " + found)
        assert {len(r.split(" | ")[0].split()) - 1 for r in rows} >= {8, 16}
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == "628d78283904e054adbf4e841f7455bf0e3abe31e2b5f0bb2393cf7d5d6734dd"


# ---------------------------------------------------------------------------
# Descriptors.
# ---------------------------------------------------------------------------


def _stretched_hint(boxes, i):
    """Box i stretched to the centre of the nearest other box, so the
    hint touches at least two isolating boxes."""
    b = boxes[i]
    c = min(
        (o.center for j, o in enumerate(boxes) if j != i),
        key=lambda z: (z.re - b.center.re) ** 2 + (z.im - b.center.im) ** 2,
    )
    return BoxC.make(
        min(b.re.lo, c.re), max(b.re.hi, c.re), min(b.im.lo, c.im), max(b.im.hi, c.im)
    )


class TestDescriptors:
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_round_trip_after_a_two_box_hint(self, degree):
        rng = random.Random(40 + degree)
        trips = 0
        while trips < 6:
            p = QPoly([F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(degree)] + [1])
            if irreducible_over_Q(p).status != "Proven":
                continue
            boxes = isolate_roots(p)
            hint = _stretched_hint(boxes, rng.randrange(degree))
            assert sum(b.touches(hint) for b in boxes) >= 2
            try:
                f = field_make(p, root_hint=hint)
            except AmbiguousHint:
                continue  # the hint reached the other root too
            # the field keeps the isolating boxes, and its descriptor
            # names the selected one, so a reload is a fixed point
            assert f.root_boxes == tuple(boxes)
            d = field_to_descriptor(f)
            g = field_from_descriptor(d)
            assert g == f and g.root_boxes == f.root_boxes
            assert field_to_descriptor(g) == d
            trips += 1

    def test_round_trip_sqrt2(self):
        f = sqrt2_field()
        d = field_to_descriptor(f)
        assert d["min_poly"] == ["-2", "0", "1"]
        assert set(d) == {"min_poly", "root_hint"}
        g = field_from_descriptor(d)
        assert g.min_poly == f.min_poly
        assert g.selected_root == f.selected_root

    def test_round_trip_zeta8(self):
        f = zeta8_field()
        g = field_from_descriptor(field_to_descriptor(f))
        assert g.selected_root == f.selected_root

    def test_coords_json(self):
        f = sqrt2_field()
        x = f.generator() * 3 - f.from_rational(F(1, 2))
        back = coords_from_json(f, coords_to_json(x))
        assert back == x

    def test_fractional_strings(self):
        d = {
            "min_poly": ["-5/2", "-1", "1"],
            "root_hint": {"re": ["-3/2", "-1"], "im": ["0", "0"]},
        }
        f = field_from_descriptor(d)
        assert f.degree == 2 and f.selected_box().re.lo < -1
        w = f.generator()
        assert (w * w - w).rational_value() == F(5, 2)

    def test_older_document_with_flag_loads(self):
        # documents written before irreducibility was always decided
        # carry a flag; it is ignored
        d = {
            "min_poly": ["-2", "0", "1"],
            "root_hint": {"re": ["1", "2"], "im": ["0", "0"]},
            "assume_irreducible": False,
        }
        f = field_from_descriptor(d)
        assert f.min_poly == QPoly((-2, 0, 1)) and f.root_is_real(f.selected_root)
