"""Word matrices, continuants, gluing, equivalence, unit-entry reduction."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from quiddity.core import (
    Mat2,
    NotPlusMinusOne,
    _WordKernel,
    QuiddityTuple,
    SizeTooSmall,
    brute_force_quiddities,
    canonical_form,
    canonical_multipliers,
    continuant,
    dihedral_images,
    e_matrix,
    e_times,
    equivalent,
    euler_expansion,
    is_quiddity,
    m_from_continuants,
    m_product,
    m_product_entries,
    oplus_multipliers,
    oplus_sum,
    reduce_pm_one,
    times_e,
)
from quiddity.classify import enumerate_quiddities, irreducible_census
from quiddity.numfield import BoxC, FieldElement, _integral_scale, field_make, subgroup_member
from quiddity.polynomials import QPoly


def int_field():
    return field_make(QPoly((-1, 1)))


def sqrt2_field():
    return field_make(QPoly((-2, 0, 1)), root_hint=BoxC.make(1, 2, 0, 0))


def sqrt3_field():
    return field_make(QPoly((-3, 0, 1)), root_hint=BoxC.make(F(3, 2), 2, 0, 0))


def zt(field, ks):
    return QuiddityTuple(field, field.generator(), ks)


def phi_field():
    return field_make(QPoly((-1, -1, 1)), root_hint=BoxC.make(F(3, 2), 2, 0, 0))


multiplier_lists = st.lists(st.integers(-5, 5), min_size=1, max_size=7)


# ---------------------------------------------------------------------------
# Word matrices.
# ---------------------------------------------------------------------------


class TestWordMatrix:
    def test_generator_matrix_shape(self):
        f = int_field()
        m = e_matrix(f.from_rational(4))
        assert m.m11.rational_value() == 4
        assert m.m12.rational_value() == -1
        assert m.m21.rational_value() == 1
        assert m.m22.rational_value() == 0

    def test_two_zeros_gives_minus_id(self):
        f = int_field()
        assert is_quiddity(zt(f, [0, 0])) == -1

    def test_three_ones_gives_minus_id(self):
        f = int_field()
        assert is_quiddity(zt(f, [1, 1, 1])) == -1

    def test_1212(self):
        f = int_field()
        assert is_quiddity(zt(f, [1, 2, 1, 2])) == -1

    def test_non_quiddity(self):
        f = int_field()
        assert is_quiddity(zt(f, [1, 2, 3])) is None
        assert is_quiddity(zt(f, [5])) is None

    @given(multiplier_lists)
    def test_det_one(self, ks):
        t = zt(int_field(), ks)
        assert m_product(t).det().rational_value() == 1

    @given(multiplier_lists)
    def test_product_order_left_appends(self, ks):
        # appending an entry multiplies on the left
        f = int_field()
        t = zt(f, ks + [3])
        head = m_product(zt(f, ks))
        assert m_product(t) == e_matrix(f.from_rational(3)) * head

    def test_sqrt2_constant_four(self):
        f = sqrt2_field()
        assert is_quiddity(zt(f, [1, 1, 1, 1])) == -1

    def test_sqrt3_constant_six(self):
        f = sqrt3_field()
        assert is_quiddity(zt(f, [1, 1, 1, 1, 1, 1])) == -1

    def test_even_length_doubles(self):
        # gluing a 2n-fold constant tuple: over sqrt2 the 8-fold constant
        # tuple closes up with sign +1, over the rationals the 12-fold
        # all-ones tuple does
        f = sqrt2_field()
        assert is_quiddity(zt(f, [1] * 8)) == 1
        g = int_field()
        assert is_quiddity(zt(g, [1] * 12)) == 1

    def test_golden_ratio_five_tuple(self):
        f = phi_field()
        assert is_quiddity(zt(f, [1, 1, 1, 1, 1])) == -1

    def test_zero_generator_degenerate(self):
        f = field_make(QPoly((0, 1)))
        t = zt(f, [3, -1, 4])
        assert all(e.is_zero for e in t.entries())
        assert is_quiddity(t) is None  # n=3 word of E(0) is not +-Id


class TestBruteForceWalk:
    @pytest.mark.parametrize(
        "make",
        [lambda: int_field().generator(), lambda: FieldElement(sqrt2_field(), (1, 1))],
        ids=["integers", "1+sqrt2"],
    )
    def test_matches_is_quiddity_per_word(self, make):
        # 1+sqrt2 is not the generator of its field
        w = make()
        want = []
        for n in range(1, 5):
            for ks in itertools.product(range(-2, 3), repeat=n):
                eps = is_quiddity(QuiddityTuple(w.field, w, ks))
                if eps is not None:
                    want.append((ks, eps))
        got = list(brute_force_quiddities(w, 4, 2))
        assert want and sorted(got) == sorted(want)


class TestContinuants:
    def test_empty_is_one(self):
        f = int_field()
        assert continuant([], f) == f.one()
        assert continuant([]) == 1

    def test_k2_known_value(self):
        f = int_field()
        a = [f.from_rational(3), f.from_rational(2)]
        assert continuant(a).rational_value() == 5

    def test_k4_closed_form(self):
        f = int_field()
        vals = (2, 3, 5, 7)
        a = [f.from_rational(v) for v in vals]
        a1, a2, a3, a4 = vals
        expect = a1 * a2 * a3 * a4 - a3 * a4 - a1 * a4 - a1 * a2 + 1
        assert continuant(a).rational_value() == expect

    @given(multiplier_lists)
    def test_assembly_matches_product(self, ks):
        t = zt(int_field(), ks)
        assert m_from_continuants(t) == m_product(t)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    def test_assembly_matches_product_sqrt2(self, ks):
        t = zt(sqrt2_field(), ks)
        assert m_from_continuants(t) == m_product(t)

    def test_single_entry_assembly(self):
        t = zt(int_field(), [9])
        m = m_from_continuants(t)
        assert m.m22.is_zero and m.m11.rational_value() == 9


class TestEulerExpansion:
    def test_triple_ones(self):
        assert euler_expansion([1, 1, 1]) == QPoly((0, -2, 0, 1))

    def test_single(self):
        assert euler_expansion([7]) == QPoly((0, 7))

    def test_quadruple_ones(self):
        assert euler_expansion([1, 1, 1, 1]) == QPoly((1, 0, -3, 0, 1))

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=8))
    def test_grading(self, ks):
        # only exponents of the parity of n occur
        p = euler_expansion(ks)
        assert all(c == 0 or (len(ks) - k) % 2 == 0 for k, c in enumerate(p.coeffs))

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    def test_evaluation_matches_continuant(self, ks):
        f = sqrt2_field()
        w = f.generator()
        p = euler_expansion(ks)
        entries = [w * k for k in ks]
        direct = continuant(entries, f)
        acc = f.zero()
        wp = f.one()
        for c in p.coeffs:
            acc = acc + wp * c
            wp = wp * w
        assert acc == direct

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=6).filter(lambda l: len(l) % 2 == 0))
    def test_even_tuple_rescaling(self, ks):
        # K(k1 w, k2 w, ..., k2n w) = K(k1, k2 w^2, k3, k4 w^2, ...)
        f = sqrt2_field()
        w = f.generator()
        w2 = w * w
        lhs = continuant([w * k for k in ks], f)
        mixed = [
            f.from_rational(k) if i % 2 == 0 else w2 * k
            for i, k in enumerate(ks)
        ]
        assert lhs == continuant(mixed, f)


# ---------------------------------------------------------------------------
# The word kernel against the generic Mat2 route.
# ---------------------------------------------------------------------------


def _generator(coeffs, hint=None):
    f = field_make(QPoly(tuple(F(c) for c in coeffs)), root_hint=hint)
    return f.generator()


def _sqrt2_element(a, b):
    return FieldElement(sqrt2_field(), (a, b))


KERNEL_GENERATORS = {
    "integers": lambda: _generator((-1, 1)),
    "sqrt2": lambda: _generator((-2, 0, 1), BoxC.make(1, 2, 0, 0)),
    "1+i": lambda: _generator((2, -2, 1), BoxC.make(F(1, 2), F(3, 2), F(1, 2), F(3, 2))),
    "zeta5": lambda: _generator((1, 1, 1, 1, 1), BoxC.make(0, F(1, 2), F(1, 2), 1)),
    "2^(1/4)": lambda: _generator((-2, 0, 0, 0, 1), BoxC.make(1, 2, 0, 0)),
    "1/2": lambda: _generator(("-1/2", 1)),
    "3/2": lambda: _generator(("-3/2", 1)),
    "2/3": lambda: _generator(("-2/3", 1)),
    "1/sqrt2": lambda: _generator(("-1/2", 0, 1), BoxC.make(0, 1, 0, 0)),
    "(1+i)/2": lambda: _generator(("1/2", -1, 1), BoxC.make(0, 1, 0, 1)),
    "1+sqrt2 in Q(sqrt2)": lambda: _sqrt2_element(1, 1),
    "2sqrt2 in Q(sqrt2)": lambda: _sqrt2_element(0, 2),
    "0": lambda: _generator((0, 1)),
    # degree 3 with d = 2: X^3 - 1/4
    "2^(1/3)/2": lambda: _generator(("-1/4", 0, 0, 1), BoxC.make(0, 1, 0, 0)),
}


def _omega():
    return _generator((1, 1, 1), BoxC.make(-1, 0, F(1, 2), 1))


def _pack(coords, bits):
    """The int whose base-2^bits digits are the coordinates, lowest first."""
    return sum(x * 2 ** (bits * i) for i, x in enumerate(coords))


def _coordinates(x, bits, m):
    """The m balanced base-2^bits digits of x, lowest first."""
    half, base, coords = 2 ** (bits - 1), 2**bits, []
    for _ in range(m - 1):
        coords.append((x + half) % base - half)
        x = (x - coords[-1]) // base
    return coords + [x]


def _unheld(kernel, w, n, held):
    """The Mat2 of a word of size n over w from the kernel's held matrix:
    each entry an int whose digits are its coordinates on the powers of
    v = d*w, and d^n * T*M*T^-1 with T = diag(1, 1/d)."""
    poly = w.min_poly_over_Q()
    d, m = _integral_scale(poly), poly.degree
    powers = [w.field.one()]
    for _ in range(m - 1):
        powers.append(powers[-1] * w * d)
    a, b, c, e = (
        sum((p * x for p, x in zip(powers, _coordinates(x, kernel.bits, m))), w.field.zero())
        for x in held
    )
    s = F(1, d**n)
    return Mat2(a * s, b * (s / d), c * (s * d), e * s)


def _check_forced(w, words):
    """Compare the kernel's forced solution on every cyclic window of the
    words with the one of E(b_l) * P * E(b_1) = eps * Id read on Mat2, P
    the window's product; return how many windows are forced and how many
    have a forced b_1 or b_l outside <w>."""
    kernel = _WordKernel(w, max(map(len, words)), max(abs(k) for ks in words for k in ks))
    one = w.field.one()
    forced = outside = 0
    for ks in words:
        for r in range(len(ks)):
            for j in range(1, len(ks) - 1):
                window = (ks[r:] + ks[:r])[:j]
                p = m_product_entries([w * k for k in window])
                want = None
                if p.m11 in (one, -one):
                    eps = -p.m11.rational_value()
                    k1, kl = _member(p.m12 * eps, w), _member(-p.m21 * eps, w)
                    if k1 is None or kl is None:
                        outside += 1
                    else:
                        want = (eps, k1, kl)
                got = kernel.forced(kernel.product(window[::-1]), j)
                assert got == want, (ks, window)
                forced += got is not None
    return forced, outside


def _sign(kernel, ks):
    """The kernel's sign of the word, read off its held product."""
    return kernel.identity_sign(kernel.product(ks), len(ks))


def _member(x, w):
    """k with x = k*w on the field route, else None."""
    if w.is_zero:
        return 0 if x.is_zero else None
    return subgroup_member(x, w)


class TestWordKernel:
    @pytest.mark.parametrize("name", sorted(KERNEL_GENERATORS))
    def test_products_match_m_product(self, name):
        w = KERNEL_GENERATORS[name]()
        kernel = _WordKernel(w, 8, 3)
        rng = random.Random(name)
        for _ in range(12):
            ks = [rng.randint(-3, 3) for _ in range(rng.randint(1, 8))]
            want = m_product(QuiddityTuple(w.field, w, ks))
            assert _unheld(kernel, w, len(ks), kernel.product(ks)) == want, ks

    @pytest.mark.parametrize("name", sorted(KERNEL_GENERATORS))
    def test_step_matches_e_times(self, name):
        # on any held matrix, not only a word's: the held E(k*w) * M of a
        # word of size n + 1 is step of the held M of size n
        # random coordinates up to 9, and a step of them, lie well inside
        # the width of a kernel built for words of length 8
        w = KERNEL_GENERATORS[name]()
        kernel = _WordKernel(w, 8, 3)
        rng = random.Random(name)
        size = w.min_poly_over_Q().degree
        for _ in range(20):
            n, k = rng.randint(0, 4), rng.randint(-3, 3)
            held = tuple(
                _pack([rng.randint(-9, 9) for _ in range(size)], kernel.bits) for _ in range(4)
            )
            want = e_times(w * k, _unheld(kernel, w, n, held))
            assert _unheld(kernel, w, n + 1, kernel.step(held, k)) == want, (n, k, held)

    @pytest.mark.parametrize("name", sorted(KERNEL_GENERATORS))
    def test_words_depth_first(self, name, monkeypatch):
        # every word of length <= 3 that extends the start word, the start
        # word included, in depth-first order, which is sorted order; the
        # words held at once are those stepped and not yet yielded, plus
        # the one being yielded
        kernel = _WordKernel(KERNEL_GENERATORS[name](), 3, 1)
        step, count = type(kernel).step, {"steps": 0}

        def counted_step(kernel, m, k):
            count["steps"] += 1
            return step(kernel, m, k)

        monkeypatch.setattr(type(kernel), "step", counted_step)
        for start, pool, want in (((), range(-1, 2), 40), ((1,), range(0, 2), 7)):
            count["steps"], words, held = 0, [], 0
            for ks, m in kernel.words(3, pool, start):
                words.append((ks, m))
                held = max(held, 2 + count["steps"] - len(words))
            got = [ks for ks, _ in words]
            assert got == sorted(got) and len(set(got)) == len(got) == want
            assert all(len(ks) <= 3 and ks[: len(start)] == start for ks in got)
            assert all(k in pool for ks in got for k in ks[len(start) :])
            assert held <= 3 * len(pool)
            for ks, m in words:
                assert m == kernel.product(ks)

    def test_signs_of_known_quiddities(self):
        kernel = _WordKernel(KERNEL_GENERATORS["sqrt2"](), 8, 1)
        assert _sign(kernel, [1, 1, 1, 1]) == -1
        assert _sign(kernel, [1] * 8) == 1
        assert _sign(kernel, [1, 1, 1]) is None
        # d = 2: the held matrix of a size-3 word is 8 * T*M*T^-1
        half = _WordKernel(KERNEL_GENERATORS["1/2"](), 3, 2)
        assert _sign(half, [2, 2, 2]) == -1
        assert _sign(half, [-2, -2, -2]) == 1
        assert _sign(half, [1, 1, 1]) is None
        assert _sign(_WordKernel(KERNEL_GENERATORS["1/sqrt2"](), 4, 2), [2, 2, 2, 2]) == -1

    def test_subgroup_multipliers(self):
        # k with f*x = k*s*v, where v = 1+sqrt2 has coordinates (0, 1)
        kernel = _WordKernel(KERNEL_GENERATORS["1+sqrt2 in Q(sqrt2)"](), 4, 2)
        bits = kernel.bits
        assert kernel._multiple(_pack((0, -3), bits), 1, 1) == -3
        assert kernel._multiple(_pack((0, 0), bits), 1, 1) == 0
        assert kernel._multiple(_pack((1, 0), bits), 1, 1) is None  # 1 is not in <1+sqrt2>
        assert kernel._multiple(_pack((2, 1), bits), 1, 1) is None
        assert kernel._multiple(_pack((0, 6), bits), -1, 2) == -3
        assert kernel._multiple(_pack((0, 3), bits), 1, 2) is None
        # 1/sqrt2 has d = 2 and v = sqrt2; the rational generator 3/2 has
        # v = 3, its one coordinate
        half = _WordKernel(KERNEL_GENERATORS["1/sqrt2"](), 4, 2)
        assert half.d == 2
        assert half._multiple(_pack((0, 2), half.bits), 1, 1) == 2
        assert half._multiple(_pack((0, 1), half.bits), 1, 2) is None
        assert half._multiple(_pack((1, 0), half.bits), 1, 1) is None
        three = _WordKernel(KERNEL_GENERATORS["3/2"](), 4, 2)
        assert three._multiple(_pack((12,), three.bits), 1, 2) == 2
        assert three._multiple(_pack((4,), three.bits), 1, 2) is None

    def test_zero_generator(self):
        w = KERNEL_GENERATORS["0"]()
        kernel = _WordKernel(w, 2, 3)
        assert _unheld(kernel, w, 2, kernel.product([3, -1])) == m_product(zt(w.field, [3, -1]))
        assert _sign(kernel, [3, -1]) == -1
        assert kernel._multiple(_pack((0,), kernel.bits), 1, 1) == 0
        assert kernel._multiple(_pack((1,), kernel.bits), 1, 1) is None

    @pytest.mark.parametrize("name", sorted(KERNEL_GENERATORS))
    def test_forced_boundary_matches_mat2(self, name):
        w = KERNEL_GENERATORS[name]()
        members = enumerate_quiddities(w.field, w, 6, 2).members
        forced, _ = _check_forced(w, [m.multipliers for m in members])
        assert forced

    def test_forced_boundary_outside_the_subgroup(self):
        # over omega, the root of x^2 + x + 1, these quiddities have windows
        # whose forced b_1 or b_l is not a multiple of omega
        w = _omega()
        forced, outside = _check_forced(
            w, [(-3, -1, 1, 1, -1, 3, 1, -1, -1, 1), (-3, 0, 3, -1, -1, 1, 0, -1, 1, 1)]
        )
        assert forced and outside

    def test_higher_powers_of_v_are_not_multiples_of_v(self):
        # over 2^(1/4) the ints of v^2 and v^3 are multiples of the int of
        # v, so a bare division would take them for k*v; these windows of
        # length 8 have Q11 = +-1 and a forced entry with a v^3 part
        w = KERNEL_GENERATORS["2^(1/4)"]()
        kernel = _WordKernel(w, 10, 2)
        one, minus, zero = (_pack((c, 0, 0, 0), kernel.bits) for c in (1, -1, 0))
        for power in (2, 3):
            x = _pack([0] * power + [1] + [0] * (3 - power), kernel.bits)
            for f in (1, -1):
                assert kernel._multiple(x, f, 1) is None
            assert kernel.forced((one, x, zero, one), 2) is None
            assert kernel.forced((minus, zero, x, minus), 2) is None
        windows = [(-1, -1, -2, 0, -1, -2, 1, -1), (-1, 1, -2, -2, 0, -1, -1, -1)]
        _check_forced(w, [window[::-1] + (0, 0) for window in windows])

    def test_forced_reads_v_squared_entries_as_mat2_does(self):
        # over 2^(1/3)/2, d = 2 and v^3 = 2: a held matrix with q11 = +-d^n
        # and an off-diagonal entry in Z*v^2 or Z*v^3 is forced exactly
        # when the Mat2 route finds both boundary entries in <w>
        w = KERNEL_GENERATORS["2^(1/3)/2"]()
        kernel = _WordKernel(w, 6, 2)
        bits, checked = kernel.bits, 0
        for n in (2, 3, 4):
            s = kernel.d**n
            zero = _pack((0, 0, 0), bits)
            for x, y in itertools.product(
                [_pack(c, bits) for c in ((0, 0, 0), (0, 0, 4), (0, 0, -8), (2, 0, 0), (0, 2, 0))],
                repeat=2,
            ):
                for q11 in (_pack((s, 0, 0), bits), _pack((-s, 0, 0), bits)):
                    held = (q11, x, y, q11)
                    q = _unheld(kernel, w, n, held)
                    # P = D*Q^T*D: P11 = Q11, P12 = -Q21, P21 = -Q12
                    eps = -q.m11.rational_value()
                    k1, kl = _member(-q.m21 * eps, w), _member(q.m12 * eps, w)
                    want = None if k1 is None or kl is None else (eps, k1, kl)
                    assert kernel.forced(held, n) == want, (n, held)
                    checked += want is None and (x != zero or y != zero)
        assert checked

    @pytest.mark.parametrize("name", ["integers", "sqrt2", "1/2", "2/3", "1/sqrt2", "(1+i)/2"])
    def test_inverse_keys_meet_the_suffix(self, name):
        # a quiddity P-then-S of size 2r or 2r+1 is found by the key of its
        # prefix P, of length n - r, among the suffixes S of length r held
        # as s: the key is s at size 2r and d*s at size 2r + 1
        w = KERNEL_GENERATORS[name]()
        kernel = _WordKernel(w, 5, 2)
        for ks, eps in brute_force_quiddities(w, 5, 2):
            r = len(ks) // 2
            keys = dict(kernel.inverse_keys(kernel.product(ks[: len(ks) - r])))
            scale = kernel.d ** (len(ks) % 2)
            suffix = tuple(scale * x for x in kernel.product(ks[len(ks) - r :]))
            assert keys[eps] == suffix, ks
            assert keys[-eps] != suffix, ks

    def test_warm_memo_census_matches_cold(self):
        w = KERNEL_GENERATORS["sqrt2"]()

        def census():
            return irreducible_census(enumerate_quiddities(w.field, w, 6, 2)).to_json()

        cold = census()
        assert census() == cold

    def test_odd_keys_need_the_scale_to_divide(self):
        # over 1/2 the held E(w) is [[1, -4], [1, 0]]: d = 2 does not divide
        # its adj, so it meets no suffix one entry shorter, each keyed by d
        # times its held matrix; the held E(2w)^2 = [[0, -8], [2, -4]] has
        # adj = -d times the held E(2w), so (2, 2, 2) has sign -1
        kernel = _WordKernel(KERNEL_GENERATORS["1/2"](), 3, 2)
        d = kernel.d
        odd = {tuple(d * x for x in m): ks for ks, m in kernel.words(1, range(-2, 3))}
        keys = dict(kernel.inverse_keys(kernel.product([1])))
        assert len(keys) == 2 and not odd.keys() & set(keys.values())
        keys = dict(kernel.inverse_keys(kernel.product([2, 2])))
        assert odd.get(keys[-1]) == (2,) and keys[1] not in odd


STEP_GENERATORS = {
    name: KERNEL_GENERATORS[name] for name in ("integers", "sqrt2", "1/2", "zeta5", "2^(1/4)")
}


def _random_element(rng, field):
    return FieldElement(
        field, [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(field.degree)]
    )


class TestWordSteps:
    @pytest.mark.parametrize("name", sorted(STEP_GENERATORS))
    def test_steps_match_the_full_product(self, name):
        w = STEP_GENERATORS[name]()
        rng = random.Random(name)
        for _ in range(20):
            m = Mat2(*(_random_element(rng, w.field) for _ in range(4)))
            for x in (w * rng.randint(-3, 3), _random_element(rng, w.field)):
                assert e_times(x, m) == e_matrix(x) * m
                assert times_e(m, x) == m * e_matrix(x)

    @pytest.mark.parametrize(
        "coeffs,hint",
        [
            ((2, 424242, -98766, 123456, 1), (-123457, -123456, 0, 0)),
            (("2/81", "424242/27", -10974, 41152, 1), (-41153, -41152, 0, 0)),
        ],
        ids=["d=1", "d=3"],
    )
    def test_wide_words_match_m_product(self, coeffs, hint):
        # degree 4 with minimal-polynomial coefficients up to 10^5: words
        # of length 20-24 over |k| <= 10^6 hold coordinates of about a
        # thousand bits, which the kernel's width covers
        w = _generator(coeffs, BoxC.make(*hint))
        kernel = _WordKernel(w, 24, 10**6)
        rng = random.Random(str(coeffs))
        for _ in range(3):
            ks = [rng.randint(-(10**6), 10**6) for _ in range(rng.randint(20, 24))]
            want = m_product(QuiddityTuple(w.field, w, ks))
            assert _unheld(kernel, w, len(ks), kernel.product(ks)) == want, ks

    def test_wider_request_gets_a_wider_kernel(self):
        # a kernel asked past its width raises rather than wrap
        narrow = _WordKernel(KERNEL_GENERATORS["sqrt2"](), 4, 2)
        with pytest.raises(ValueError):
            narrow.product([10**6] * 30)
        with pytest.raises(ValueError):
            next(narrow.words(30, range(2)))
        with pytest.raises(ValueError):
            next(narrow.words(4, range(3), (10**6,)))

    @pytest.mark.parametrize("name", sorted(KERNEL_GENERATORS))
    def test_fit_checks_only_past_the_built_bounds(self, name, monkeypatch):
        # the width grows with the length and the bound, so a request
        # within both of those the kernel was built for needs no width;
        # past either, the shortcut decides exactly as the width does
        kernel = _WordKernel(KERNEL_GENERATORS[name](), 6, 2)
        widths = []
        bits = _WordKernel._bits
        monkeypatch.setattr(
            _WordKernel, "_bits", lambda self, n, k: widths.append((n, k)) or bits(self, n, k)
        )
        for n in range(7):
            for k in range(3):
                kernel._fit(n, k)
        assert widths == []
        for n, k in ((7, 0), (6, 3), (5, 3), (12, 1), (40, 2)):
            fits = bits(kernel, n, k) <= kernel.bits
            try:
                kernel._fit(n, k)
            except ValueError:
                assert not fits, (n, k)
            else:
                assert fits, (n, k)
        assert len(widths) == 5

    @pytest.mark.parametrize("name", sorted(KERNEL_GENERATORS))
    def test_kernel_products_have_determinant_one(self, name):
        # find_reduction takes the (2,2) entry of its forced solution
        # from det P = 1 instead of testing it
        w = KERNEL_GENERATORS[name]()
        kernel = _WordKernel(w, 10, 3)
        rng = random.Random(name)
        for _ in range(20):
            ks = [rng.randint(-3, 3) for _ in range(rng.randint(1, 10))]
            assert _unheld(kernel, w, len(ks), kernel.product(ks)).det() == w.field.one(), ks

    @pytest.mark.parametrize("name", sorted(STEP_GENERATORS))
    def test_m_product_entries_matches_the_full_fold(self, name):
        w = STEP_GENERATORS[name]()
        rng = random.Random(name)
        for _ in range(20):
            entries = [w * rng.randint(-3, 3) for _ in range(rng.randint(1, 8))]
            acc = e_matrix(entries[0])
            for a in entries[1:]:
                acc = e_matrix(a) * acc
            assert m_product_entries(entries) == acc


# ---------------------------------------------------------------------------
# Gluing.
# ---------------------------------------------------------------------------


class TestOplus:
    def test_first_example(self):
        assert oplus_multipliers((-1, 2, 4), (3, 0, 1)) == (0, 2, 7, 0)

    def test_second_example(self):
        assert oplus_multipliers((2, 1, 0, 2), (1, -3, 2, 5, 1)) == (3, 1, 0, 3, -3, 2, 5)

    def test_size(self):
        assert len(oplus_multipliers((0,) * 4, (0,) * 5)) == 7

    def test_small_raises(self):
        with pytest.raises(SizeTooSmall):
            oplus_multipliers((1,), (2, 3))
        with pytest.raises(SizeTooSmall):
            oplus_multipliers((1, 2), (3,))

    def test_right_neutral_pair_of_zeros(self):
        f = int_field()
        a = zt(f, [4, -1, 3, 2])
        assert oplus_sum(a, zt(f, [0, 0])) == a

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=6),
           st.sampled_from([(1, 1, 1), (0, 0), (1, 2, 1, 2), (-1, -1, -1)]))
    def test_transfer(self, ka, kb):
        # gluing with a quiddity preserves the answer of is_quiddity
        f = int_field()
        a, b = zt(f, ka), zt(f, kb)
        eb = is_quiddity(b)
        assert eb is not None
        ea, eg = is_quiddity(a), is_quiddity(oplus_sum(a, b))
        assert (ea is None) == (eg is None)
        if ea is not None:
            assert eg == -ea * eb  # sign law checked by direct products

    def test_sign_law_instances(self):
        f = int_field()
        a, b = zt(f, [1, 1, 1]), zt(f, [0, 0])
        assert is_quiddity(a) == -1 and is_quiddity(b) == -1
        # (0,0) is right-neutral, so the sign stays -1 through both glues
        assert is_quiddity(oplus_sum(oplus_sum(a, b), b)) == -1
        # (1,1,1) glued onto itself: (2,1,2,1), still sign -1
        doubled = oplus_sum(a, a)
        assert doubled.multipliers == (2, 1, 2, 1)
        assert is_quiddity(doubled) == -1

    def test_mixed_generators_rejected(self):
        with pytest.raises(ValueError):
            oplus_sum(zt(int_field(), [1, 1, 1]), zt(sqrt2_field(), [1, 1, 1]))


# ---------------------------------------------------------------------------
# Dihedral equivalence.
# ---------------------------------------------------------------------------


class TestEquivalence:
    def test_images_count(self):
        assert len(dihedral_images((1, 2, 3))) == 6

    def test_example(self):
        assert equivalent((1, 2, 3), (1, 3, 2))

    def test_not_equivalent(self):
        assert not equivalent((1, 2, 3), (1, 2, 4))
        assert not equivalent((1, 2), (1, 2, 3))

    def test_canonical_is_least(self):
        assert canonical_multipliers((3, 1, 2)) == (1, 2, 3)
        assert canonical_multipliers((0, 2, 0, -2)) == (-2, 0, 2, 0)

    def test_canonical_is_the_least_dihedral_image(self):
        # entries in [-1, 1] make the least entry repeat, so several
        # rotations of the word and of its reversal begin with it
        rng = random.Random("least-entry rotations")
        words = [tuple(rng.randint(-1, 1) for _ in range(rng.randint(1, 9))) for _ in range(300)]
        words += [(k,) * n for k in (-2, 0, 3) for n in (1, 2, 5)]
        words += [(4,), (-1,), (2, -3), (-3, 2), (0, 0), (1, 1)]
        for ks in words:
            assert canonical_multipliers(ks) == min(dihedral_images(ks)), ks
            assert canonical_multipliers(list(ks)) == min(dihedral_images(ks)), ks
        with pytest.raises(ValueError):
            canonical_multipliers(())

    def test_canonical_form_of_tuple(self):
        t = zt(int_field(), [2, 1, 3])
        assert canonical_form(t) == (1, 2, 3)

    @given(multiplier_lists, st.integers(0, 6), st.booleans())
    def test_canonical_invariant_under_images(self, ks, r, flip):
        s = tuple(ks)
        img = s[r % len(s):] + s[:r % len(s)]
        if flip:
            img = tuple(reversed(img))
        assert canonical_multipliers(img) == canonical_multipliers(s)
        assert equivalent(img, s)

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=6))
    def test_equivalence_preserves_quiddity(self, ks):
        f = int_field()
        base = is_quiddity(zt(f, ks))
        for img in dihedral_images(ks):
            assert is_quiddity(zt(f, img)) == base


# ---------------------------------------------------------------------------
# Unit-entry reduction.
# ---------------------------------------------------------------------------


class TestReducePmOne:
    def test_plus_one_interior(self):
        f = int_field()
        out, flip = reduce_pm_one(zt(f, [3, 1, 4]), 1)
        assert out.multipliers == (2, 3) and flip is False

    def test_minus_one_interior(self):
        f = int_field()
        out, flip = reduce_pm_one(zt(f, [3, -1, 4]), 1)
        assert out.multipliers == (4, 5) and flip is True

    def test_all_ones_at_end(self):
        f = int_field()
        out, flip = reduce_pm_one(zt(f, [1, 1, 1]), 2)
        assert out.multipliers == (0, 0) and flip is False

    def test_not_unit_raises(self):
        f = int_field()
        with pytest.raises(NotPlusMinusOne):
            reduce_pm_one(zt(f, [3, 2, 4]), 1)

    def test_sqrt2_entries_never_unit(self):
        f = sqrt2_field()
        with pytest.raises(NotPlusMinusOne):
            reduce_pm_one(zt(f, [1, 1, 1]), 1)

    def test_too_short(self):
        f = int_field()
        with pytest.raises(ValueError):
            reduce_pm_one(zt(f, [1, 1]), 0)

    def test_interior_matrix_identity(self):
        # M(result) = s * M(input) exactly, for any input
        f = int_field()
        for ks, pos in (([5, 1, -2, 7], 1), ([5, -1, -2, 7], 1), ([0, 3, 1, 2], 2)):
            t = zt(f, ks)
            s = 1 if ks[pos] == 1 else -1
            out, flip = reduce_pm_one(t, pos)
            assert flip is (s == -1)
            got = m_product(out)
            want = m_product(t)
            assert got == (want if s == 1 else -want)

    @given(st.lists(st.integers(-4, 4), min_size=3, max_size=7), st.data())
    def test_quiddity_preserved(self, ks, data):
        f = int_field()
        t = zt(f, ks)
        if is_quiddity(t) is None:
            return
        units = [i for i, k in enumerate(ks) if k in (1, -1)]
        if not units:
            return
        pos = data.draw(st.sampled_from(units))
        out, flip = reduce_pm_one(t, pos)
        eps = is_quiddity(t)
        assert is_quiddity(out) == (-eps if flip else eps)

    def test_half_generator_units(self):
        # generator 1/2: entry 2*(1/2) = 1 is removable, shift is 2 units
        f = field_make(QPoly((F(-1, 2), 1)))
        t = QuiddityTuple(f, f.generator(), [4, 2, 6])
        out, flip = reduce_pm_one(t, 1)
        assert out.multipliers == (2, 4) and flip is False


# ---------------------------------------------------------------------------
# JSON round trip.
# ---------------------------------------------------------------------------


class TestTupleJson:
    def test_round_trip(self):
        t = zt(sqrt2_field(), [0, 3, -1])
        d = t.to_json()
        assert d["multipliers"] == [0, 3, -1]
        back = QuiddityTuple.from_json(d)
        assert back == t


class TestTupleMultipliers:
    @pytest.mark.parametrize("ks", [(1.9, 1.2, 1.7, 1), (1, F(3, 2), 1), (1, F(2), 1)])
    def test_non_integers_refused(self, ks):
        # int() would truncate (1.9, 1.2, 1.7, 1) to the quiddity (1, 1, 1, 1)
        with pytest.raises(TypeError):
            zt(sqrt2_field(), ks)

    def test_with_multipliers_refuses_non_integers(self):
        t = zt(sqrt2_field(), [1, 1, 1, 1])
        with pytest.raises(TypeError):
            t.with_multipliers((0.5, 0.5))
        assert t.with_multipliers((0, 0)).multipliers == (0, 0)


class TestTupleValue:
    def test_immutable(self):
        t = zt(sqrt2_field(), [0, 3, -1])
        for name, value in (("multipliers", (1, 1, 1)), ("generator", t.field.one()), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(t, name, value)
        assert t.multipliers == (0, 3, -1) and t.generator == t.field.generator()

    def test_hash_follows_equality(self):
        f = sqrt2_field()
        t = zt(f, [1, 2, 1, 2])
        # an equal tuple over a refined handle of the same field
        same = zt(f.refined(f.selected_root, F(1, 2 ** 20)), (1, 2, 1, 2))
        assert same == t and hash(same) == hash(t)
        others = [zt(f, [2, 1, 2, 1]), QuiddityTuple(f, f.generator() * 2, [1, 2, 1, 2])]
        assert all(o != t for o in others)
        assert len({t, same, *others}) == 3

    def test_repr_names_the_multipliers(self):
        assert repr(zt(sqrt2_field(), [0, 3, -1])) == "QuiddityTuple(0, 3, -1)"
        assert repr(zt(int_field(), [5])) == "QuiddityTuple(5,)"
