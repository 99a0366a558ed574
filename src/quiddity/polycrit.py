"""Exact polynomial criteria: irreducibility tests and disk root counts.

Two families of tools live here.  The irreducibility side proves or
refutes irreducibility over Q with cheap classical certificates
(rational roots, Eisenstein with small shifts, Osada's prime bound,
reduction mod p).  Rational roots come first from a sieve: a polynomial
with no root mod some small prime not dividing its leading coefficient
has none.  Only inputs with a root mod every such prime go on to
real-root isolation, not to divisors, so large coefficients cost no
factoring.  The sieve's root test at each prime also tells the mod-p
step which primes to skip, and runs once per input and prime.  The mod-p
step is Ben-Or's test: one power X^p mod f, then one product with the
Frobenius matrix per further step.  The localization side counts
polynomial roots in disks with rational radius, exactly, through the
Schur-Cohn reduction.  One recurrence, `_chain`, runs every count on the
primitive Gaussian-integer coefficients of a positive multiple of the
recentred polynomial, dividing a step by its content once its integers
grow long.  It serves the strict count at complex centers, and the
count at 0 runs on that strict count.  One integer test, Pellet's, comes
first on every disk: a term of the recentred polynomial whose modulus
beats the sum of the others fixes the count at its index.  Its k = 0
case, the T_0 test, clears a disk without the chain; its k = 1 case
alone certifies the one-root disks of Newton's refinement in numfield;
and the dominant-term count is that test at the dominant index.  The
chain degenerates on a root on the circle, on a conjugate-reciprocal
root pair, and at accidental zero steps.  The count at 0 runs the chain
first, on the whole polynomial; only when it degenerates does it split
off, by a gcd with the reversed polynomial, the roots on the circle,
counted exactly, and the inverse root pairs, one inside per pair, and
then bracket the circle once, counting the rest on two nearby circles.
The strict count returns None instead.

No floating point is used anywhere: every verdict is replayable from
the integers it carries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .polynomials import (
    GaussRat,
    QPoly,
    _recentre,
    _taylor_shift,
    as_rat,
    count_real_roots,
    real_roots_isolated,
    refine_real_root,
)


class BadPrime(ValueError):
    """Raised when a mod-p test is asked to use an unusable prime."""


class SingularStep(RuntimeError):
    """The Schur-Cohn bracket around the radius settled no count."""


@dataclass(frozen=True)
class DiskRootCount:
    """Certified number of roots in the open disk of given radius at 0."""

    poly: QPoly
    radius: Fraction
    count: int
    method: str  # "SchurCohn" or "RoucheBound"
    boundary_clear: bool


@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: str  # "Proven", "Disproven", "Unknown"
    criterion: Optional[str] = None
    prime: Optional[int] = None
    factor: Optional[QPoly] = None


# ---------------------------------------------------------------------------
# Prime helpers.
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# below this bound no composite is a strong pseudoprime to every witness
# (Sorenson and Webster, 2017); the least one is 3317044064679887385961981
_MR_BOUND = 33 * 10 ** 23


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: True only for a certified prime.  Exact
    below _MR_BOUND; from there up it answers False, not certified."""
    if n < 2 or n >= _MR_BOUND:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_division(n: int) -> list[tuple[int, int]]:
    """(factor, exponent) pairs of |n|, ascending: the primes below 2^16
    with their exponents, then the rest, when it is not 1, entered last
    and whole with exponent 1.  The rest has no prime factor below 2^16,
    so it is prime when it is below 2^32."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n and d < 1 << 16:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n, e = n // d, e + 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_divisors(n: int) -> list[int]:
    """Prime divisors of n, ascending: those below 2^16 by trial
    division, and the rest left over when it is prime.  A rest that
    is_prime cannot certify (composite, or from _MR_BOUND up) is left
    out, so a large n costs no more than the trial division."""
    return [f for f, _ in _trial_division(n) if f < 1 << 32 or is_prime(f)]


def _int_model(p: QPoly) -> list[int]:
    ints = p.int_coeffs()
    if len(ints) < 2:
        raise ValueError("need degree >= 1")
    return ints


# ---------------------------------------------------------------------------
# Irreducibility certificates.
# ---------------------------------------------------------------------------


def eisenstein(p: QPoly) -> Optional[int]:
    """Least prime passing the Eisenstein conditions on the primitive model.

    Conditions, for the integer coefficients a_0..a_n: q divides every
    a_i with i < n, q does not divide a_n, and q^2 does not divide a_0.
    Only primes dividing gcd(a_0, ..., a_(n-1)) can qualify.
    """
    return _eisenstein_prime(_int_model(p))


def _eisenstein_prime(a: list[int]) -> Optional[int]:
    for q in prime_divisors(math.gcd(*a[:-1])):
        if a[-1] % q and a[0] % (q * q):
            return q
    return None


def osada(p: QPoly) -> Optional[int]:
    """|a_0| when it is prime and beats the sum of the other |a_i|.

    Applies to monic integer models only (sign of the leading term is
    normalized away by int_coeffs).
    """
    a = _int_model(p)
    if abs(a[-1]) != 1:
        return None
    n0 = abs(a[0])
    if not is_prime(n0):
        return None
    if n0 > sum(abs(c) for c in a[1:]):
        return n0
    return None


def _rem_mod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod (f, p) for monic f, dense int lists low-first; a is reduced
    in place, each coefficient mod p once, and the remainder has entries
    in [0, p) and no trailing zeros ([] for zero)."""
    df = len(f) - 1
    for k in range(len(a) - 1, df - 1, -1):
        c = a[k] % p
        if c:
            for j in range(df):
                a[k - df + j] -= c * f[j]
    del a[df:]
    a[:] = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _polmul_mod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """(a*b) mod (f, p) with f monic mod p, dense int lists low-first."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            prod[i + j] += ca * cb
    return _rem_mod(prod, f, p) or [0]


def _polgcd_mod(f: list[int], b: list[int], p: int) -> list[int]:
    """A gcd over F_p of monic f and b, dense int lists low-first with
    entries in [0, p); b is consumed."""
    a = f
    while True:
        b = _rem_mod(b, a, p)
        if not b:
            return a
        inv = pow(b[-1], p - 2, p)
        # each divisor is made monic, and f itself is left as it was
        a, b = [c * inv % p for c in b], list(a)


def _frobenius_rows(xp: list[int], f: list[int], p: int) -> list[list[int]]:
    """The rows X^(p*i) mod (f, p), i < deg f, of the Frobenius matrix,
    from xp = X^p mod f (Berlekamp's Q-matrix)."""
    rows = [[1], xp]
    while len(rows) < len(f) - 1:
        rows.append(_polmul_mod(rows[-1], xp, f, p))
    return rows


def _frobenius_step(g: list[int], rows: list[list[int]], p: int) -> list[int]:
    """g^p mod (f, p) as g(X^p) = sum g_i X^(p*i): one product of the
    coefficient vector of g with the Frobenius rows of f, deg f entries
    long (trailing zeros kept)."""
    out = [0] * len(rows)
    for c, row in zip(g, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return [c % p for c in out]


def modp_irreducible(p: QPoly, prime: int) -> bool:
    """True iff the reduction of p mod prime is irreducible over F_prime.

    A true answer proves irreducibility over Q for the primitive model.
    The reduction f of degree n is irreducible iff
    gcd(X^(prime^k) - X, f) = 1 for every k <= n/2 (Ben-Or's form of
    Rabin's test).
    X^prime mod f comes by square-and-multiply; from k = 2 on, each
    X^(prime^k) is one matrix-vector product with the rows
    X^(prime*i) mod f, since g(X)^prime = g(X^prime) over F_prime.  The
    rows are built only when k = 2 is reached, so an early False costs
    no more than the first power.
    """
    if not is_prime(prime):
        raise BadPrime(f"{prime} is not prime")
    a = _int_model(p)
    if a[-1] % prime == 0:
        raise BadPrime(f"{prime} divides the leading coefficient")
    n = len(a) - 1
    inv = pow(a[-1] % prime, prime - 2, prime)
    f = [c * inv % prime for c in a]
    # X^prime mod f by square-and-multiply, the k = 1 probe
    xq, base, e = [1], [0, 1], prime
    while e:
        if e & 1:
            xq = _polmul_mod(xq, base, f, prime)
        e >>= 1
        if e:
            base = _polmul_mod(base, base, f, prime)
    xp, rows = xq, None
    for k in range(1, n // 2 + 1):
        if k > 1:
            rows = rows or _frobenius_rows(xp, f, prime)
            xq = _frobenius_step(xq, rows, prime)
        probe = list(xq)
        while len(probe) < 2:
            probe.append(0)
        probe[1] = (probe[1] - 1) % prime
        if len(_polgcd_mod(f, probe, prime)) != 1:
            return False
    return True


def _has_root_mod(ints: list[int], p: int) -> bool:
    """True iff the integer polynomial, low-first, has a root in F_p:
    Horner evaluation mod p at each of the p residues."""
    high = [c % p for c in reversed(ints)]
    for x in range(p):
        acc = 0
        for c in high:
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


_MODP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _rootless_primes(ints: list[int]) -> Iterator[int]:
    """The primes of _MODP_PRIMES, ascending, that do not divide the
    leading coefficient of the integer polynomial and at which it has no
    root; each prime is tested when the iterator reaches it."""
    return (q for q in _MODP_PRIMES if ints[-1] % q and not _has_root_mod(ints, q))


def _rational_roots(ints: list[int], rootless: Optional[Iterator[int]] = None) -> list[Fraction]:
    """All rational roots of the primitive integer polynomial: 0 first,
    then by (|numerator|, denominator), positive before negative.

    A root u/v in lowest terms of the core (ints without its low zeros)
    has v | lc, the core's leading coefficient.  At a prime q of
    _MODP_PRIMES that does not divide lc, u * v^-1 is then a root of the
    core mod q, so a core with no root mod such a prime has no rational
    root.  Only the rest reach real-root isolation: a root u/v of the
    squarefree part h, whose primitive integer model has leading
    coefficient a, has v | a, so a u/v is an integer.  An isolating
    interval of h refined to width <= 1/(2a) holds a u/v for at most one
    integer, and exact evaluation tests it.

    `rootless` is _rootless_primes(ints) when the caller reads on past
    the prime the sieve stops at; it serves only when ints is its own
    core.
    """
    v, core = QPoly(ints).strip_low()
    roots = [Fraction(0)] if v else []
    if v or rootless is None:
        rootless = _rootless_primes(ints[v:])
    if next(rootless, None) is not None:
        return roots
    h = core.squarefree_part()
    a = h.int_coeffs()[-1]
    found = []
    for lo, hi in real_roots_isolated(h)[0]:
        lo, hi = refine_real_root(h, lo, hi, Fraction(1, 2 * a))
        y = math.ceil(a * lo)
        if y <= a * hi and h(Fraction(y, a)) == 0:
            found.append(Fraction(y, a))
    found.sort(key=lambda r: (abs(r.numerator), r.denominator, r < 0))
    return roots + found


_EISENSTEIN_SHIFTS = (0, 1, -1, 2, -2, 3, -3)


def irreducible_over_Q(p: QPoly) -> IrreducibilityVerdict:
    """Cheap-certificate pipeline; Unknown when every criterion misses.

    Order: rational roots (refute, or settle degree <= 3), Eisenstein on
    p(X+c) for small shifts, Osada, reduction mod primes below 50.  The
    last step skips each prime at which p has a root: there p has a
    linear factor mod the prime, so modp_irreducible would answer False.
    """
    if p.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    ints = p.int_coeffs()
    if p.degree == 1:
        return IrreducibilityVerdict("Proven", criterion="degree-1")
    # one sieve serves the rational roots and the mod-p loop, so no prime's
    # root test runs twice
    sieve, rootless = itertools.tee(_rootless_primes(ints))
    roots = _rational_roots(ints, sieve)
    if roots:
        r = roots[0]
        return IrreducibilityVerdict(
            "Disproven", criterion="rational-root", factor=QPoly((-r, 1))
        )
    if p.degree <= 3:
        return IrreducibilityVerdict("Proven", criterion="no-linear-factor")
    for c in _EISENSTEIN_SHIFTS:
        # an integer shift keeps the model primitive with the same leading term
        q = _eisenstein_prime(_taylor_shift(list(ints), c) if c else ints)
        if q is not None:
            tag = "eisenstein" if c == 0 else f"eisenstein-shift({c})"
            return IrreducibilityVerdict("Proven", criterion=tag, prime=q)
    q = osada(p)
    if q is not None:
        return IrreducibilityVerdict("Proven", criterion="osada", prime=q)
    # a prime dividing the leading coefficient says nothing, and at
    # degree >= 4 a root mod pr is a linear factor mod pr
    for pr in rootless:
        if modp_irreducible(p, pr):
            return IrreducibilityVerdict("Proven", criterion="modp", prime=pr)
    return IrreducibilityVerdict("Unknown")


# ---------------------------------------------------------------------------
# Rouche-style dominant-coefficient disk counts.
# ---------------------------------------------------------------------------


def rouche_dominant_count(
    p: QPoly, dominant_index: int, radius
) -> Optional[DiskRootCount]:
    """Count = dominant_index when that term beats all others on |z| = r,
    else None; ValueError for an index that names no term.

    The check sum_{i != j} |a_i| r^i < |a_j| r^j is Pellet's test with
    k = j on the integer model of p(rX), which multiplies both sides by
    one positive integer; its coefficients are real integers, so the
    bounds of _pellet are exact.  Strict inequality also rules out
    boundary roots.
    """
    r = as_rat(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    if not 0 <= dominant_index <= p.degree:
        raise ValueError(
            f"dominant index {dominant_index} names no term of a degree-{p.degree} polynomial"
        )
    re, im = _recentre(p.int_coeffs(), 0, 0, r)
    if not _pellet(re, im, dominant_index):
        return None
    return DiskRootCount(p, r, dominant_index, "RoucheBound", True)


# ---------------------------------------------------------------------------
# Schur-Cohn counting in |z| < r, rational radius, exact boundary analysis.
# ---------------------------------------------------------------------------


_CONTENT_BITS = 1024


def _chain(f: Sequence[tuple[int, int]]) -> Optional[int]:
    """Unit-disk root count of f by the Schur-Cohn reduction; None on a
    degenerate step.

    f holds Gaussian-integer coefficients (re, im), low degree first,
    with f[-1] nonzero; its low zero coefficients are roots at 0, split
    off first.  One step replaces f of degree n by
    T f = conj(a0) f - an f*, where f* is the conjugate reverse
    z^n conj(f(1/conj z)); its constant term is the real number
    gamma = |a0|^2 - |an|^2 and its degree is below n.  When gamma != 0,
    Rouche's theorem on |z| = 1 gives T f the roots of f inside the disk
    (gamma > 0) or those of f* (gamma < 0).  A step whose gamma has
    more than _CONTENT_BITS bits is divided by its content, a positive
    integer that changes neither the next gamma's sign nor any root
    (Collins, 1967); below that the gcd costs more than the longer
    integers it would save.  A non-None answer also certifies
    that no root lies on |z| = 1, since such a root is a common root of
    f and f* (see gauss_disk_count_strict).
    """
    inside = next(k for k, c in enumerate(f) if c != (0, 0))
    f = f[inside:]
    steps = []
    while len(f) > 1:
        n = len(f) - 1
        (ar, ai), (br, bi) = f[0], f[-1]
        gamma = ar * ar + ai * ai - br * br - bi * bi
        if gamma == 0:
            return None
        steps.append((n, gamma > 0))
        # f[:0:-1] pairs f[k] with f[n - k]
        t = [
            (ar * fr + ai * fi - br * gr - bi * gi, ar * fi - ai * fr - bi * gr + br * gi)
            for (fr, fi), (gr, gi) in zip(f, f[:0:-1])
        ]
        while t[-1] == (0, 0):
            t.pop()
        if gamma.bit_length() <= _CONTENT_BITS:
            f = t
            continue
        # a list, not a generator, for the reason in qpoly_at_disk
        g = math.gcd(*[x for pair in t for x in pair])
        f = t if g == 1 else [(x // g, y // g) for x, y in t]
    count = 0
    for n, positive in reversed(steps):
        count = count if positive else n - count
    return inside + count


_BRACKET_BITS = 64
_ORIGIN = GaussRat.of(0)


def _cos_substitution(g: QPoly) -> QPoly:
    """For palindromic g of even degree 2m, the polynomial h with
    g(X)/X^m = h(X + 1/X); roots of g on the unit circle off +-1
    correspond to real roots of h in (-2, 2)."""
    m = g.degree // 2
    cheb = [QPoly((2,)), QPoly((0, 1))]  # X^k + X^-k as polys in Y
    while len(cheb) <= m:
        cheb.append(QPoly((0, 1)) * cheb[-1] - cheb[-2])
    h = QPoly((g.coeffs[m],))
    for k in range(1, m + 1):
        h = h + cheb[k] * g.coeffs[m + k]
    return h


def _unit_circle_count(g: QPoly) -> int:
    """Exact number of roots of squarefree, inversion-closed g on |z|=1.
    Without its roots +-1, g is palindromic of even degree and its image h
    under X + 1/X is squarefree: a double root y0 of h would make
    (X^2 - y0 X + 1)^2 divide g."""
    circle = 0
    for pt in (1, -1):
        if g(Fraction(pt)) == 0:
            circle += 1
            g = g // QPoly((-pt, 1))
    h = _cos_substitution(g)
    circle += 2 * count_real_roots(h, Fraction(-2), Fraction(2))
    return circle


def schur_cohn_count(p: QPoly, radius) -> DiskRootCount:
    """Exact multiplicity-weighted count of roots of p with |z| < radius.

    The strict chain count comes first.  Rouche's theorem on |z| = 1
    counts roots with multiplicity, so repeated roots need no split, and
    a root on the circle or a conjugate-reciprocal pair forces a zero
    step (see gauss_disk_count_strict); a count therefore also certifies
    the circle root-free.  Only when the chain degenerates is q = p(rX),
    without its v roots at 0, split by g = gcd(q, q reversed).  g holds
    each root z of q whose inverse 1/z is a root too, with the smaller
    of the two multiplicities: all roots on |z| = 1 with theirs, and the
    rest in pairs z, 1/z with one of each pair inside.  The gcd chain
    h_0 = g, h_(j+1) = gcd(h_j, h_j') lowers every multiplicity by one
    at each step, so the squarefree part h_j // h_(j+1) holds the roots
    of g of multiplicity above j, once each.  It is inversion-closed, so
    _unit_circle_count counts its roots on the circle exactly, and a
    root of multiplicity m is counted in m steps.  The rest, q // g, has
    no root on the circle and no such pair, so its count comes from a
    bracket: its strict counts at 1 - 2^-k and 1 + 2^-k.  Each non-None
    count certifies its circle root-free, so two equal counts leave no
    root in the annulus between them and equal the count at 1.  That
    happens once 2^-k is below the distance from the circle to the
    nearest root of q // g, unless a chain degenerates at one of finitely
    many radii; SingularStep is raised if no k up to _BRACKET_BITS
    settles it.  boundary_clear reports no root on |z| = r.
    """
    r = as_rat(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    direct = gauss_disk_count_strict(p, _ORIGIN, r)
    if direct is not None:
        return DiskRootCount(p, r, direct, "SchurCohn", True)
    v, q = p.scale_arg(r).strip_low()
    g = q.gcd(q.reverse())
    on, h = 0, g
    while h.degree > 0:
        d = h.gcd(h.derivative())
        on += _unit_circle_count(h // d)
        h = d
    inside = v + (g.degree - on) // 2
    rest = q // g
    for k in range(1, _BRACKET_BITS + 1):
        inner = gauss_disk_count_strict(rest, _ORIGIN, 1 - Fraction(1, 2 ** k))
        if inner is not None and inner == gauss_disk_count_strict(
            rest, _ORIGIN, 1 + Fraction(1, 2 ** k)
        ):
            return DiskRootCount(p, r, inside + inner, "SchurCohn", on == 0)
    raise SingularStep(
        f"Schur-Cohn counts at 1 -+ 2^-k disagree or degenerate for k <= {_BRACKET_BITS}"
    )


# ---------------------------------------------------------------------------
# Strict disk counts at Gaussian-rational centers, for rectangle
# subdivision.  "Strict" means: certify or return None, never guess.
# ---------------------------------------------------------------------------


def gauss_disk_count_strict(
    p: QPoly, center: GaussRat, radius
) -> Optional[int]:
    """Roots of p in the open disk |z - center| < radius, counted with
    multiplicity.

    Returns None whenever the certificate would need more care: a root
    on the boundary circle, a conjugate-reciprocal pair straddling it,
    or a degenerate reduction step.  A non-None answer also certifies
    that no root lies ON the circle.

    The Schur-Cohn chain alone decides all of these; no gcd of q with
    its conjugate reverse q* is needed.  If q and q* share a root zeta
    (nonzero, as the low zeros are split off first), then every chain
    polynomial and its own conjugate reverse vanish at zeta.  The degree
    falls at every step and a nonzero constant cannot vanish at zeta, so
    some step yields T f = 0.  Its constant term gamma = |a0|^2 - |an|^2
    is then 0, and the chain returns None.
    """
    r = as_rat(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    if p.is_zero:
        raise ValueError("the zero polynomial vanishes on every disk")
    return _disk_count(p.int_coeffs(), center.re, center.im, r)


def _ceil_sqrt(m: int) -> int:
    """The least integer whose square is at least m >= 0."""
    return math.isqrt(m - 1) + 1 if m else 0


def _pellet(re: list[int], im: list[int], k: int) -> bool:
    """Pellet's test on q = re + i im, Gaussian integers low degree first:
    True certifies |q_k| > sum_{j != k} |q_j|, so q has exactly k roots in
    the open unit disk, counted with multiplicity, and none on its circle
    (Rouche against q_k X^k on |z| = 1).  |q_k| is bounded below by the
    integer square root of its norm, and every other modulus above by
    the ceiling square root of its norm; the test is exact where every
    modulus is an integer, as on real coefficients.  With k = 0 it is the
    T_0 test of Becker, Sagraloff, Sharma and Yap (2018)."""
    norms = [x * x + y * y for x, y in zip(re, im)]
    mk = norms.pop(k)
    return math.isqrt(mk) > sum(_ceil_sqrt(m) for m in norms)


def _disk_count(ints: list[int], c_re, c_im, r) -> Optional[int]:
    """gauss_disk_count_strict for the nonzero integer polynomial ints, low
    degree first, at the centre c_re + c_im i and radius r > 0, each an int
    or a Fraction, on the integer model q of ints(c + rX): 0 when T_0
    passes, else the chain on q's primitive part.  Where T_0 passes, the
    chain would count 0 too: with no root on the closed disk, every
    Schur-Cohn step keeps |a0| > |an|, so no gamma is 0."""
    re, im = _recentre(ints, c_re, c_im, r)
    if _pellet(re, im, 0):
        return 0
    g = math.gcd(*re, *im)
    return _chain([(x // g, y // g) for x, y in zip(re, im)])
