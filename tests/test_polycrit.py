"""Irreducibility certificates and exact disk root counts.

The 200-polynomial random cross-check pits schur_cohn_count against
numpy roots; polynomials whose roots land too close to the counting
circle for float arithmetic to referee are regenerated.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraction_oracle as oracle
import quiddity.polycrit as polycrit_module
from quiddity.polynomials import GaussRat, QPoly, _recentre
from quiddity.polycrit import (
    _MODP_PRIMES,
    _disk_count,
    _frobenius_rows,
    _frobenius_step,
    _has_root_mod,
    _pellet,
    _rem_mod,
    BadPrime,
    SingularStep,
    eisenstein,
    gauss_disk_count_strict,
    irreducible_over_Q,
    is_prime,
    modp_irreducible,
    osada,
    prime_divisors,
    rouche_dominant_count,
    schur_cohn_count,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 + 1)


# strong pseudoprimes to the bases 2..37 and 2..41 (Sorenson and Webster,
# 2017), each f * (2f - 1)
PSEUDOPRIMES = {318665857834031151167461: 399165290221, 3317044064679887385961981: 1287836182261}


def test_is_prime_refuses_strong_pseudoprimes():
    for n, f in PSEUDOPRIMES.items():
        assert n == f * (2 * f - 1)
        assert not is_prime(n)
        # Osada would read the constant term n as a prime
        product = QPoly((f, 1, 1)) * QPoly((2 * f - 1, 1, 1))
        assert osada(product) is None
        assert irreducible_over_Q(product).status != "Proven"


def _naive_prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] * (n > 1)


def test_prime_divisors():
    rng = random.Random(18)
    for n in list(range(1, 3000)) + [rng.randrange(1, 10 ** 6) for _ in range(3000)]:
        assert prime_divisors(n) == _naive_prime_divisors(n), n
        assert prime_divisors(-n) == prime_divisors(n)
    # a prime rest above 2^16 is kept
    assert prime_divisors(12 * 65537) == [2, 3, 65537]
    assert prime_divisors(6 * (2 ** 61 - 1)) == [2, 3, 2 ** 61 - 1]
    # a composite rest above 2^32 is left out, with the small primes kept
    assert prime_divisors(10 * 1000003 * 1000033) == [2, 5]
    assert prime_divisors((2 ** 31 - 1) ** 2) == []
    # a rest beyond the range of is_prime is left out, prime or not
    assert prime_divisors(7 * (10 ** 30 + 57)) == [7]


# -- eisenstein / osada / modp ------------------------------------------------


def test_eisenstein_examples():
    assert eisenstein(QPoly((5, 0, 0, 5, 10, 1))) == 5
    assert eisenstein(QPoly((-2, 0, 1))) == 2
    assert eisenstein(QPoly((-1, 0, 1))) is None
    # a prime constant term far beyond trial division
    assert eisenstein(QPoly((2 ** 61 - 1, 0, 0, 0, 1))) == 2 ** 61 - 1


def test_osada_examples():
    assert osada(QPoly((11, 1, -1, 2, 0, 0, 5, 1))) == 11
    assert osada(QPoly((2, 1))) == 2
    assert osada(QPoly((3, 5, 1))) is None  # 3 < 1 + 5


def test_modp_examples():
    assert modp_irreducible(QPoly((1, 0, 1)), 3) is True
    assert modp_irreducible(QPoly((-2, 0, 1)), 7) is False  # 3^2 = 2 mod 7
    assert modp_irreducible(QPoly((0, 1)), 5) is True
    with pytest.raises(BadPrime):
        modp_irreducible(QPoly((1, 0, 2)), 2)
    with pytest.raises(BadPrime):
        modp_irreducible(QPoly((1, 0, 1)), 4)


def test_modp_linear_and_constant_cases():
    # a linear reduction is irreducible at every prime not dividing its
    # leading coefficient, on the general Frobenius loop
    for q in _MODP_PRIMES:
        assert modp_irreducible(QPoly((3, 1)), q) is True
        assert modp_irreducible(QPoly((-7, 53)), q) is True
    # X^2 and 5X^3 have no constant core left past their root 0
    for p in (QPoly((0, 0, 1)), QPoly((0, 0, 0, 5))):
        v = irreducible_over_Q(p)
        assert (v.status, v.criterion, v.factor) == ("Disproven", "rational-root", QPoly((0, 1)))


def test_modp_quartic():
    # X^4 + 1 factors mod every prime; X^4 - X - 1 is irreducible mod 2
    assert modp_irreducible(QPoly((1, 0, 0, 0, 1)), 3) is False
    assert modp_irreducible(QPoly((-1, -1, 0, 0, 1)), 2) is True


def _value_mod(ints, x, p):
    return sum(c * x ** i for i, c in enumerate(ints)) % p


def test_has_root_mod_matches_evaluation_at_every_residue():
    rng = random.Random(1901)
    for _ in range(200):
        ints = [rng.randint(-60, 60) for _ in range(rng.randint(1, 9))]
        for q in _MODP_PRIMES:
            want = any(_value_mod(ints, x, q) == 0 for x in range(q))
            assert _has_root_mod(ints, q) is want, (ints, q)


@given(
    st.sampled_from(_MODP_PRIMES),
    st.integers(min_value=0, max_value=46),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=9),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
)
def test_a_root_mod_q_means_reducible_mod_q(q, r, low, lead, noise):
    # (X - r) g + q h has the root r mod q; its content divides lc(g),
    # so when q does not divide lc(g) the primitive model keeps that root
    g = QPoly(low + [lead])
    h = QPoly(noise[: g.degree + 1])
    p = QPoly((-r, 1)) * g + h * q
    if lead % q:
        assert _has_root_mod(p.int_coeffs(), q)
        assert modp_irreducible(p, q) is False


def test_modp_loop_runs_only_at_primes_without_a_root(monkeypatch):
    calls = []

    def counting(p, q):
        calls.append((p.int_coeffs(), q))
        return modp_irreducible(p, q)

    monkeypatch.setattr(polycrit_module, "modp_irreducible", counting)
    rng = random.Random(1902)
    for _ in range(120):
        degree = rng.randint(4, 8)
        irreducible_over_Q(QPoly([rng.randint(-3, 3) for _ in range(degree)] + [rng.randint(1, 3)]))
    assert calls
    for ints, q in calls:
        assert all(_value_mod(ints, x, q) for x in range(q)), (ints, q)


def _divides_mod(d, f, p):
    # long division of f by monic d over F_p, both low-first
    r = list(f)
    for k in range(len(f) - len(d), -1, -1):
        c = r[k + len(d) - 1]
        for j, x in enumerate(d):
            r[k + j] = (r[k + j] - c * x) % p
    return not any(r)


def _monic_polys(p, n):
    for low in itertools.product(range(p), repeat=n):
        yield list(low) + [1]


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p, n_max", [(2, 4), (3, 4), (5, 3), (2, 6), (3, 5)])
def test_modp_matches_trial_division(p, n_max):
    for n in range(1, n_max + 1):
        irreducible = 0
        for f in _monic_polys(p, n):
            divisors = (d for k in range(1, n // 2 + 1) for d in _monic_polys(p, k))
            want = not any(_divides_mod(d, f, p) for d in divisors)
            assert modp_irreducible(QPoly(f), p) is want, (p, f)
            irreducible += want
        # Gauss's count of monic irreducibles of degree n over F_p
        necklaces = sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0)
        assert irreducible * n == necklaces, (p, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_frobenius_is_the_identity_on_a_split_product(p):
    # f = X (X - 1) ... (X - n + 1) with n <= p distinct roots divides
    # X^p - X, so X^p = X mod f, the Frobenius rows are X^0, ..., X^(n-1)
    # and each matrix step maps g to g
    rng = random.Random(p)
    f = [1]
    for a in range(min(p, 6)):
        f = [((f[i - 1] if i else 0) - a * (f[i] if i < len(f) else 0)) % p for i in range(len(f) + 1)]
        if len(f) < 3:
            continue
        n = len(f) - 1
        assert _rem_mod([0] * p + [1], f, p) == [0, 1]
        rows = _frobenius_rows([0, 1], f, p)
        assert rows == [[0] * i + [1] for i in range(n)]
        for _ in range(10):
            g = [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]
            assert _frobenius_step(g, rows, p) == g
        assert modp_irreducible(QPoly(f), p) is False


def test_root_sieve_tests_each_prime_once(monkeypatch):
    # the sieve of the rational roots and the mod-p loop share their root
    # tests: no (input, prime) pair is tested twice in one verdict
    tested = []

    def counting(ints, q):
        tested.append((tuple(ints), q))
        return _has_root_mod(ints, q)

    monkeypatch.setattr(polycrit_module, "_has_root_mod", counting)
    rng = random.Random(2501)
    reached = 0
    for i in range(400):
        degree = rng.randint(2, 10)
        cs = [rng.randint(-5, 5) for _ in range(degree)] + [rng.choice((1, 2, 6, 30, 210))]
        p = QPoly(cs)
        if i % 4 == 1:
            p = p * QPoly((rng.randint(-3, 3), rng.randint(1, 4)))  # a rational root, 0 at times
        elif i % 4 == 2:
            p = p * QPoly((1, 0, 1)) * QPoly((-2, 0, 1))  # roots mod many primes, none rational
        if p.degree < 2:
            continue
        tested.clear()
        v = irreducible_over_Q(p)
        assert len(tested) == len(set(tested)), (cs, tested)
        reached += v.criterion == "modp" or v.status == "Unknown"
    assert reached >= 50


def test_pipeline_examples():
    v = irreducible_over_Q(QPoly((F(-5, 2), -1, 1)))
    assert v.status == "Proven" and v.criterion == "no-linear-factor"
    v = irreducible_over_Q(QPoly((-1, 0, 1)))
    assert v.status == "Disproven"
    assert v.factor is not None and v.factor(F(1)) * v.factor(F(-1)) == 0
    v = irreducible_over_Q(QPoly((1, 0, 0, 0, 1)))  # X^4 + 1
    assert v.status == "Proven"
    assert v.criterion.startswith("eisenstein-shift") and v.prime == 2


def test_pipeline_more():
    assert irreducible_over_Q(QPoly((7, 1))).status == "Proven"
    assert irreducible_over_Q(QPoly((-2, 0, 1))).status == "Proven"
    assert irreducible_over_Q(QPoly((-6, 1, 0, 1))).status == "Proven"
    # X^4 + X^2 + 1 = (X^2+X+1)(X^2-X+1): no rational root, so the
    # pipeline may miss, but it must never claim Proven
    v = irreducible_over_Q(QPoly((1, 0, 1, 0, 1)))
    assert v.status != "Proven"


def test_shifted_eisenstein_pins():
    phi5 = QPoly((1, 1, 1, 1, 1))
    v = irreducible_over_Q(phi5)
    assert (v.status, v.criterion, v.prime) == ("Proven", "eisenstein-shift(1)", 5)
    # Phi5(X + 2) fails Eisenstein at the shifts 0 and 1 and passes at -1,
    # where it is Phi5(X + 1) again
    v = irreducible_over_Q(phi5(QPoly((2, 1))))
    assert (v.status, v.criterion, v.prime) == ("Proven", "eisenstein-shift(-1)", 5)


def _seeded_irreducibility_inputs(count=300, seed=14):
    """Dense polynomials with rational coefficients, products with a
    linear factor, and Eisenstein polynomials shifted by -3..3."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        deg = rng.randint(2, 10)
        if i % 3 == 0:
            den = rng.choice((1, 1, 2, 3))
            cs = [F(rng.randint(-9, 9), den) for _ in range(deg)]
            out.append(QPoly(cs + [F(rng.choice((1, -1, 2, -3)), den)]))
        elif i % 3 == 1:
            a, b = rng.randint(-4, 4), rng.choice((1, 2, -3))
            rest = [rng.randint(-5, 5) for _ in range(deg - 1)] + [rng.choice((1, -1, 2))]
            out.append(QPoly((-a, b)) * QPoly(rest))
        else:
            q = rng.choice((2, 3, 5, 7))
            cs = [q * rng.randint(-2, 2) for _ in range(deg)] + [rng.choice((1, -1))]
            cs[0] = q * rng.choice((1, -1, 2, -2, 3))
            out.append(QPoly(cs)(QPoly((rng.randint(-3, 3), 1))))
    return out


def test_irreducibility_verdicts_digest():
    # sha256 of every (status, criterion, prime, factor), recorded before
    # the shifts moved to integer lists; 49 verdicts come from a shift
    rows = []
    for p in _seeded_irreducibility_inputs():
        v = irreducible_over_Q(p)
        factor = None if v.factor is None else tuple(str(c) for c in v.factor.coeffs)
        rows.append(repr((v.status, v.criterion, v.prime, factor)))
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "3f64e19a2de8c151110169698d42faded48d9778afa676334b451f832def85df"


@given(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
)
def test_certificates_never_contradict_planted_root(num, den, rest):
    # build (den*X - num) * g with g nonconstant: reducible by design
    g = QPoly(rest + [1])
    p = QPoly((-num, den)) * g
    if p.degree < 2:
        return
    assert eisenstein(p) is None
    assert osada(p) is None
    for q in (2, 3, 5, 7, 11, 13):
        try:
            assert modp_irreducible(p, q) is False
        except BadPrime:
            pass
    assert irreducible_over_Q(p).status == "Disproven"


def test_large_coefficients_settle_fast():
    # X^6 - 4X^3 + 9k^2 X^2 - 3k^4 X + k^6/4 + 4 at k = 1 - 2^-11, a
    # generator 2^(1/3) + i k 2^(-1/3): primitive constant term near 1e21
    k = 1 - F(1, 2 ** 11)
    p = QPoly((k ** 6 / 4 + 4, -3 * k ** 4, 9 * k ** 2, -4, 0, 0, 1))
    start = time.perf_counter()
    assert irreducible_over_Q(p).status == "Proven"
    assert time.perf_counter() - start < 5.0
    # a planted rational root with 17-digit numerator and denominator
    p = QPoly((-12345678901234567, 98765432109876543)) * QPoly((3, 0, 0, 1))
    start = time.perf_counter()
    v = irreducible_over_Q(p)
    assert time.perf_counter() - start < 5.0
    assert v.status == "Disproven"
    assert v.factor == QPoly((F(-12345678901234567, 98765432109876543), 1))


# -- rouche -------------------------------------------------------------------


def test_rouche_examples():
    p = QPoly((5, 0, 0, 5, 10, 1))
    got = rouche_dominant_count(p, 4, 2)
    assert got is not None and got.count == 4 and got.boundary_clear
    q = QPoly((11, 1, -1, 2, 0, 0, 5, 1))
    got = rouche_dominant_count(q, 6, 2)
    assert got is not None and got.count == 6
    got = rouche_dominant_count(QPoly((1, 0, 1)), 2, 2)
    assert got is not None and got.count == 2
    assert rouche_dominant_count(QPoly((1, 1)), 0, 1) is None  # 1 < 1 fails


def test_rouche_index_must_name_a_term():
    # None means a term that does not dominate; an index past either end
    # names no term at all
    for coeffs, j in (((1, 3), 7), ((1, 1), -1), ((1, 1), 2)):
        with pytest.raises(ValueError, match="names no term"):
            rouche_dominant_count(QPoly(coeffs), j, 2)


def test_rouche_matches_the_rational_inequality():
    # the integer Pellet test against sum_{i != j} |a_i| r^i < |a_j| r^j,
    # on rational inputs with zero coefficients and ties: 1 + X at r = 1
    # ties 1 with 1, and every fourth random input is made a tie
    rng = random.Random(32)
    cases = [((1, 1), 0, F(1)), ((1, 1), 1, F(1)), ((2, 1, 1), 0, F(1)), ((0, 0, 3), 2, F(1, 2))]
    for _ in range(400):
        deg = rng.randint(0, 7)
        coeffs = [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(deg)]
        coeffs.append(F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))))
        j, r = rng.randint(0, deg), F(rng.randint(1, 6), rng.randint(1, 4))
        rest = sum(abs(c) * r ** i for i, c in enumerate(coeffs) if i != j)
        if rest and rng.random() < 0.25:
            coeffs[j] = rng.choice((1, -1)) * rest / r ** j
        cases.append((coeffs, j, r))
    ties = 0
    for coeffs, j, r in cases:
        p = QPoly(coeffs)
        dominant = abs(p.coeffs[j]) * r ** j
        rest = sum(abs(c) * r ** i for i, c in enumerate(p.coeffs) if i != j)
        ties += rest == dominant
        got = rouche_dominant_count(p, j, r)
        if rest < dominant:
            assert got == polycrit_module.DiskRootCount(p, r, j, "RoucheBound", True)
        else:
            assert got is None, (coeffs, j, r)
    assert ties >= 50


def test_rouche_margin_values():
    # the two inequalities behind the quintic/septic examples: 77 < 160
    # and 161 < 320 at radius 2
    p = QPoly((5, 0, 0, 5, 10, 1))
    rest = sum(abs(c) * F(2) ** i for i, c in enumerate(p.coeffs) if i != 4)
    assert rest == 77 and abs(p.coeffs[4]) * F(2) ** 4 == 160
    q = QPoly((11, 1, -1, 2, 0, 0, 5, 1))
    rest = sum(abs(c) * F(2) ** i for i, c in enumerate(q.coeffs) if i != 6)
    assert rest == 161 and abs(q.coeffs[6]) * F(2) ** 6 == 320


# -- schur-cohn ---------------------------------------------------------------


def test_schur_cohn_examples():
    got = schur_cohn_count(QPoly((5, 0, 0, 5, 10, 1)), 2)
    assert got.count == 4 and got.boundary_clear
    got = schur_cohn_count(QPoly((-1, -2, 1)), 2)  # roots 1 +- sqrt2
    assert got.count == 1 and got.boundary_clear
    got = schur_cohn_count(QPoly((0, 0, 1)), 1)  # X^2, double root at 0
    assert got.count == 2 and got.boundary_clear


def test_schur_cohn_boundary_roots():
    got = schur_cohn_count(QPoly((-4, 0, 1)), 2)  # roots +-2 on the circle
    assert got.count == 0 and not got.boundary_clear
    got = schur_cohn_count(QPoly((1, 0, 1)), 1)  # roots +-i on the circle
    assert got.count == 0 and not got.boundary_clear
    got = schur_cohn_count(QPoly((-1, 1)) * QPoly((-3, 1)), 1)  # root AT 1
    assert got.count == 0 and not got.boundary_clear


def test_schur_cohn_degenerate_chain():
    # moduli 2, 1/3, 3/2 multiply to 1, so |a0| = |lc| and the direct
    # chain degenerates at its first step; the bracket around radius 1 runs
    p = QPoly((-2, 1)) * QPoly((F(-1, 3), 1)) * QPoly((F(-3, 2), 1))
    got = schur_cohn_count(p, 1)
    assert got.count == 1 and got.boundary_clear
    # |a0| = |an| again, with a root modulus 0.06 from 1
    got = schur_cohn_count(QPoly((1, -8, -6, 6, -8, -9, 1)), 1)
    assert got.count == 4 and got.boundary_clear
    # the degree-10 probe of the polycrit benchmark; the bracket settles
    # it in well under a second on a 2-vCPU machine
    start = time.perf_counter()
    got = schur_cohn_count(QPoly((1, -1, -2, -1, 7, 3, -5, 5, -5, -4, 1)), 1)
    assert time.perf_counter() - start < 2.0
    assert got.count == 6 and got.boundary_clear


def test_schur_cohn_bracket_cap(monkeypatch):
    # with no bracket allowed, the degenerate direct chain fails fast
    monkeypatch.setattr(polycrit_module, "_BRACKET_BITS", 0)
    p = QPoly((-2, 1)) * QPoly((F(-1, 3), 1)) * QPoly((F(-3, 2), 1))
    with pytest.raises(SingularStep):
        schur_cohn_count(p, 1)


def test_schur_cohn_fallback_runs_radius_one_once(monkeypatch):
    radii = []
    strict = polycrit_module.gauss_disk_count_strict
    monkeypatch.setattr(
        polycrit_module, "gauss_disk_count_strict", lambda p, c, r: radii.append(r) or strict(p, c, r)
    )
    # the degenerate chain at radius 1 runs once; 3/2 is a root, so k = 1
    # is refused and k = 2 brackets the root 1/3 alone
    p = QPoly((-2, 1)) * QPoly((F(-1, 3), 1)) * QPoly((F(-3, 2), 1))
    got = schur_cohn_count(p, 1)
    assert (got.count, got.boundary_clear) == (1, True)
    assert radii == [1, F(1, 2), F(3, 2), F(3, 4), F(5, 4)]
    # +-i twice on the circle and the inverse pair 2, 1/2: the gcd with
    # the reverse takes all six roots, so the count is 1/2 alone and the
    # bracket's first step counts the constant rest 0 at 1/2 and 3/2
    p = QPoly((1, 0, 1)) * QPoly((1, 0, 1)) * QPoly((-2, 1)) * QPoly((F(-1, 2), 1))
    radii.clear()
    got = schur_cohn_count(p, 1)
    assert (got.count, got.boundary_clear) == (1, False)
    assert radii == [1, F(1, 2), F(3, 2)]
    assert got == oracle.schur_cohn_count(p, 1)


def test_schur_cohn_inverse_pair_next_to_the_circle():
    # a = 1 + 2^-70 and 1/a lie in every annulus the bracket may try, on
    # either side of the circle; the gcd with the reverse counts 1/a
    # exactly, alone and beside roots that the bracket settles
    a = 1 + F(1, 2 ** 70)
    pair = QPoly((-a, 1)) * QPoly((-1 / a, 1))
    for p, count in ((pair, 1), (pair * QPoly((F(-1, 3), 1)) * QPoly((-3, 0, 1)), 2)):
        got = schur_cohn_count(p, 1)
        assert (got.count, got.boundary_clear) == (count, True)
        assert got == oracle.schur_cohn_count(p, 1)
    # irreducible, with roots 2b and 2/b for b + 1/b = 2 + 2^-141: an
    # inverse pair next to the circle at radius 2
    p = QPoly((4, -(4 + F(1, 2 ** 140)), 1))
    got = schur_cohn_count(p, 2)
    assert got == oracle.schur_cohn_count(p, 2)
    assert (got.count, got.boundary_clear) == (1, True)


def test_schur_cohn_constants():
    # nonzero constants have no roots, on the general path; the zero
    # polynomial vanishes everywhere, so no count is certified
    for c in ((3,), (F(-1, 2),)):
        for r in (1, F(5, 2)):
            got = schur_cohn_count(QPoly(c), r)
            assert (got.count, got.boundary_clear, got.radius) == (0, True, r)
    for r in (1, F(5, 2)):
        with pytest.raises(ValueError, match="zero polynomial"):
            schur_cohn_count(QPoly(()), r)


def test_schur_cohn_reciprocal_pair():
    # (X - 2)(X - 1/2): the reciprocal pair degenerates the chain at radius 1,
    # and the bracket settles it with no root on the circle
    p = QPoly((-2, 1)) * QPoly((F(-1, 2), 1))
    got = schur_cohn_count(p, 1)
    assert got.count == 1 and got.boundary_clear


def test_schur_cohn_multiplicity():
    p = QPoly((F(-1, 2), 1)) * QPoly((F(-1, 2), 1)) * QPoly((-3, 1))
    got = schur_cohn_count(p, 1)
    assert got.count == 2
    got = schur_cohn_count(p, 4)
    assert got.count == 3


def test_rouche_schur_cohn_agree_on_examples():
    for coeffs, j in (((5, 0, 0, 5, 10, 1), 4), ((11, 1, -1, 2, 0, 0, 5, 1), 6)):
        p = QPoly(coeffs)
        r = rouche_dominant_count(p, j, 2)
        s = schur_cohn_count(p, 2)
        assert r.count == s.count


def _random_disk_input(rng):
    deg = rng.randint(1, 8)
    coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
    return coeffs, F(rng.choice((1, 2, 3)), rng.choice((1, 2)))


def _balanced_disk_input(rng):
    # |a0| = |an| at radius 1: the first chain step degenerates and the
    # count takes the bracket
    deg = rng.randint(3, 10)
    coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
    coeffs[0] = rng.choice((1, -1)) * coeffs[-1]
    return coeffs, F(1)


def test_schur_cohn_random_200_vs_numpy():
    rng = random.Random(20260817)
    for draw, total in ((_random_disk_input, 200), (_balanced_disk_input, 80)):
        checked = 0
        while checked < total:
            coeffs, radius = draw(rng)
            p = QPoly(coeffs)
            if p.degree < 1:
                continue
            rts = np.roots([float(c) for c in reversed(p.coeffs)])
            margin = min(abs(abs(r) - float(radius)) for r in rts)
            if margin < 1e-6:
                continue  # float oracle cannot referee this one
            want = sum(1 for r in rts if abs(r) < float(radius))
            got = schur_cohn_count(p, radius)
            assert got.count == want, (coeffs, radius)
            assert got.boundary_clear
            assert 0 <= got.count <= p.degree
            checked += 1


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 1, 1, 1, 1),  # Phi5
        (1, 0, 0, 0, 1),  # x^4 + 1
        (1, 1, 1, 1, 1, 1, 1),  # Phi7
        (1, -3, 1, 0, 1, -3, 1),  # (x^2 - 3x + 1)(x^4 + 1)
    ],
)
@pytest.mark.parametrize("radius", [F(1, 2), F(1), F(3, 2)])
def test_schur_cohn_palindromic_circle_factor(coeffs, radius):
    # at radius 1 the circle factor has degree >= 4, so the X + 1/X
    # substitution takes its Chebyshev step
    p = QPoly(coeffs)
    rts = np.roots([float(c) for c in reversed(p.coeffs)])
    got = schur_cohn_count(p, radius)
    assert got.count == sum(1 for r in rts if abs(r) < float(radius) - 1e-9)
    assert got.boundary_clear == all(abs(abs(r) - float(radius)) > 1e-9 for r in rts)


def test_schur_cohn_partition_invariant():
    rng = random.Random(99)
    for _ in range(60):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)]
        p = QPoly(coeffs)
        if p.degree < 1:
            continue
        inside = schur_cohn_count(p, 2)
        # roots of reverse(p) inside 1/2  <->  roots of p outside 2; the
        # reversal silently drops any roots of p at the origin, which the
        # inside count already covers
        outside = schur_cohn_count(p.reverse(), F(1, 2))
        assert inside.count + outside.count <= p.degree
        if inside.boundary_clear:
            assert inside.count + outside.count == p.degree


# -- complex-centered strict counts -------------------------------------------


def test_gauss_strict_basic():
    p = QPoly((1, 0, 1))  # roots +-i
    assert gauss_disk_count_strict(p, GaussRat.of(0, 1), F(1, 2)) == 1
    assert gauss_disk_count_strict(p, GaussRat.of(0, 0), F(2)) == 2
    assert gauss_disk_count_strict(p, GaussRat.of(3, 0), F(1)) == 0


def test_gauss_strict_bails_on_boundary():
    p = QPoly((1, 0, 1))
    assert gauss_disk_count_strict(p, GaussRat.of(0, 0), F(1)) is None


def test_gauss_strict_center_is_root():
    p = QPoly((2, -2, 1))  # roots 1 +- i
    assert gauss_disk_count_strict(p, GaussRat.of(1, 1), F(1, 3)) == 1
    assert gauss_disk_count_strict(p, GaussRat.of(1, 1), F(3)) == 2


def test_gauss_strict_matches_real_version():
    rng = random.Random(7)
    for _ in range(40):
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 5)]
        p = QPoly(coeffs).squarefree_part()
        if p.degree < 1:
            continue
        r = F(rng.choice((1, 2)), rng.choice((1, 2)))
        got = gauss_disk_count_strict(p, GaussRat.of(0, 0), r)
        ref = schur_cohn_count(p, r)
        if got is not None and ref.boundary_clear:
            assert got == ref.count


def _gauss_point(rng, den):
    return GaussRat.of(F(rng.randint(-8, 8), den), F(rng.randint(-8, 8), den))


def _with_roots(rng, *zs):
    """Squarefree Q-polynomial vanishing at every z, times a random factor."""
    p = QPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [1])
    for z in zs:
        p = p * QPoly((z.abs2(), -2 * z.re, 1))
    return p.squarefree_part()


def test_gauss_strict_none_for_root_on_circle():
    rng = random.Random(11)
    for _ in range(40):
        c = _gauss_point(rng, 4)
        r = F(rng.randint(1, 8), rng.choice((1, 2, 4)))
        a, b, h = rng.choice(((3, 4, 5), (5, 12, 13), (8, 15, 17), (0, 1, 1)))
        if rng.random() < 0.5:
            a, b = b, a
        u = GaussRat.of(F(rng.choice((1, -1)) * a, h), F(rng.choice((1, -1)) * b, h))
        p = _with_roots(rng, c + u.scale(r))
        assert gauss_disk_count_strict(p, c, r) is None, (p, c, r)


def test_gauss_strict_none_for_conjugate_reciprocal_pair():
    # roots c + r*a and c + r/conj(a) map to a and 1/conj(a) in the unit
    # disk's coordinate: a common root of q and its conjugate reverse
    rng = random.Random(12)
    checked = 0
    while checked < 40:
        c = _gauss_point(rng, 4)
        r = F(rng.randint(1, 8), rng.choice((1, 2, 4)))
        a = _gauss_point(rng, 3)
        if a.abs2() in (0, 1):
            continue
        p = _with_roots(rng, c + a.scale(r), c + GaussRat(a.re, -a.im).inverse().scale(r))
        assert gauss_disk_count_strict(p, c, r) is None, (p, c, r)
        checked += 1


def test_gauss_strict_random_centres_vs_numpy():
    rng = random.Random(13)
    checked = counted = 0
    while checked < 150:
        deg = rng.randint(1, 6)
        p = QPoly([rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 4)])
        if p.degree < 1 or p.squarefree_part().degree != p.degree:
            continue
        c = _gauss_point(rng, 4)
        r = F(rng.randint(1, 12), 4)
        centre = complex(float(c.re), float(c.im))
        dists = [abs(z - centre) for z in np.roots([float(x) for x in reversed(p.coeffs)])]
        if min(abs(d - float(r)) for d in dists) < 1e-6:
            continue  # float oracle cannot referee this one
        checked += 1
        got = gauss_disk_count_strict(p, c, r)
        if got is not None:
            counted += 1
            assert got == sum(1 for d in dists if d < float(r)), (p, c, r)
    assert counted >= 140


def _one_root(ints, c_re, c_im, r):
    """Pellet's test with k = 1 on ints recentred on the disk, the
    certificate of numfield's Newton disks."""
    return _pellet(*_recentre(ints, c_re, c_im, r), 1)


def test_pellet_one_root_matches_the_strict_count():
    # disks near a root, as Newton's refinement certifies them: wherever
    # Pellet's test certifies one root, the strict count is 1 or undecided
    rng = random.Random(30)
    checked = certified = ones = 0
    while checked < 300:
        z = _gauss_point(rng, 4)
        ints = _with_roots(rng, z, _gauss_point(rng, 4)).int_coeffs()
        c = z + _gauss_point(rng, 64).scale(F(1, rng.choice((1, 4, 16))))
        r = F(rng.randint(1, 64), rng.choice((16, 64, 256)))
        want = _disk_count(ints, c.re, c.im, r)
        checked += 1
        ones += want == 1
        if _one_root(ints, c.re, c.im, r):
            certified += 1
            assert want in (1, None), (ints, c, r)
    assert 50 < certified < ones


def test_pellet_one_root_where_the_chain_degenerates():
    # X^2 + 10X + 1 has the inverse pair -5 -+ sqrt(24) across |z| = 1,
    # so the chain's first step is 0, and |10| > 1 + 1 certifies one root;
    # the chain of X^3 + 5X + 1 degenerates too, and |5| > 1 + 0 + 1 holds
    # once a zero coefficient's modulus is bounded by 0
    for ints in ([1, 10, 1], [1, 5, 0, 1]):
        assert _disk_count(ints, F(0), F(0), F(1)) is None
        assert _one_root(ints, F(0), F(0), F(1))
        assert schur_cohn_count(QPoly(ints), 1).count == 1


def test_pellet_one_root_fails_with_roots_on_the_circle():
    # X^2 + 1 at 0, radius 1: the roots +-i lie on the circle, so the chain
    # degenerates and |0| beats nothing
    assert _disk_count([1, 0, 1], F(0), F(0), F(1)) is None
    assert not _one_root([1, 0, 1], F(0), F(0), F(1))


def test_t0_clears_a_disk_without_the_chain(monkeypatch):
    # X^4 + 3: |3| > 1 with the zero coefficients bounded by 0, so T_0
    # decides the count; rounded up to 1 each, they would leave 3 <= 5
    def chain(f):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(polycrit_module, "_chain", chain)
    assert _disk_count([3, 0, 0, 0, 1], F(0), F(0), F(1)) == 0
