"""Matrix words, continuants, the gluing sum, and dihedral equivalence.

A tuple here always means: a number field, a generator element w, and a
vector of integer multipliers (k_1, ..., k_n), standing for the entries
k_i * w.  Keeping the integers rather than the field elements makes
membership in <w> trivially exact and enumeration an integer search.

Three routes to the word matrix deliberately coexist.  The private word
kernel (`_WordKernel`) runs on ints alone.  With d the least positive
integer that makes v = d*w an algebraic integer, it holds a word M of
size n as d^n * T*M*T^-1 over Z[v], T = diag(1, 1/d): a step E(k*w) is
then [[k*v, -d^2], [1, 0]], and M = +-Id exactly when the held matrix is
+-d^n * Id.  Each element of Z[v] is one int, its coordinates on the
powers of v packed as balanced base-2^bits digits (Kronecker
substitution), so a held matrix is four ints.  The digit width comes
from a proven bound: a step by |k| <= K multiplies the largest
coordinate by at most G = K*(1 + max|c_j|) + d^2, c_j the coefficients
of v's minimal polynomial, so every coordinate of a word of length n,
and d^2 times it, stays below d^2*G^n < 2^(bits-1).  One primitive
takes the step, with v*x a digit shift and a subtraction of the top
digit times the packed c_j, and every product, walk and scan of the
kernel goes through it.  A search is handed its kernel by its caller:
`enumerate_quiddities` builds one for its bounds, and
`irreducible_census` one for its members' largest size and |k|, which
every `find_reduction` of the census shares.  Two lemmas serve the
searches in `classify` and `reducibility`, which ask the kernel for a
word's sign, an inverse's keys and a forced boundary pair, and read no
coordinate: det M = 1 makes M^-1 = adj(M), and adj commutes with the
scaling, so a held suffix one entry shorter than its prefix meets it
when d times it is a key, which a search multiplies out instead of
dividing the key; and the reversed word has matrix D*M^T*D,
D = diag(1, -1), since D*E(x)^T*D = E(x), so one step direction serves
both.  The kernel holds no state past what its generator and width fix:
a search checks a word by stepping on from a product it already holds.
Canonical forms scan only the rotations, of the word and of its
reversal, that begin with the least entry.  When a word begins with
its least entry and holds it once, those are the word and its reversal
rotated to begin there, so its tail compared with the tail reversed
decides whether it is canonical; the enumeration of `classify` tests
every hit so before it takes any canonical form.  The direct 2x2 route
over `FieldElement` (`m_product`, `is_quiddity`) and continuant assembly
share no code with the kernel: they are the oracles the tests compare it
against, and the certificates (witness replay) that every search result
passes.  That route steps a word one entry at a time, E(x) * M by
`e_times` and M * E(x) by `times_e`, two field products each; the full
product `Mat2.__mul__` is what the tests check both steps against.
`brute_force_quiddities` is the one exhaustive enumeration on that
route.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .numfield import (
    FieldElement,
    NumberField,
    _integral_scale,
    coords_from_json,
    coords_to_json,
    field_from_descriptor,
    field_to_descriptor,
)
from .polynomials import QPoly


class SizeTooSmall(ValueError):
    """Gluing needs both operands to have at least two entries."""


class NotPlusMinusOne(ValueError):
    """Unit-entry reduction asked at an entry that is not +-1."""


class CertificateFailed(RuntimeError):
    """An exact re-check of a freshly derived certificate failed."""


@dataclass(frozen=True)
class Mat2:
    m11: FieldElement
    m12: FieldElement
    m21: FieldElement
    m22: FieldElement

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.m11, -self.m12, -self.m21, -self.m22)

    def det(self) -> FieldElement:
        return self.m11 * self.m22 - self.m12 * self.m21

    def pm_identity_sign(self) -> Optional[int]:
        """+1 for Id, -1 for -Id, None otherwise."""
        if self.m12.is_zero and self.m21.is_zero:
            one = self.m11.field.one()
            if self.m11 == one and self.m22 == one:
                return 1
            if self.m11 == -one and self.m22 == -one:
                return -1
        return None


@dataclass(frozen=True, init=False, repr=False)
class QuiddityTuple:
    """Integer multipliers over a chosen generator of a number field, an
    immutable value compared by its field, generator and multipliers.  A
    multiplier that is not an integer, such as a float or a Fraction, raises
    TypeError rather than being truncated, and a generator of another field
    raises ValueError."""

    __slots__ = ("field", "generator", "multipliers")
    field: NumberField
    generator: FieldElement
    multipliers: tuple[int, ...]

    def __init__(
        self,
        field: NumberField,
        generator: FieldElement,
        multipliers: Sequence[int],
    ):
        if len(multipliers) < 1:
            raise ValueError("a tuple needs at least one entry")
        _check_generator(field, generator)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "multipliers", tuple(map(operator.index, multipliers)))

    @property
    def n(self) -> int:
        return len(self.multipliers)

    def entries(self) -> list[FieldElement]:
        w = self.generator
        return [w * k for k in self.multipliers]

    def with_multipliers(self, ks: Sequence[int]) -> "QuiddityTuple":
        return QuiddityTuple(self.field, self.generator, ks)

    def __repr__(self):
        return f"QuiddityTuple{self.multipliers}"

    def to_json(self) -> dict:
        return {
            "field": field_to_descriptor(self.field),
            "generator": coords_to_json(self.generator),
            "multipliers": list(self.multipliers),
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuiddityTuple":
        field = field_from_descriptor(data["field"])
        gen = coords_from_json(field, data["generator"])
        return cls(field, gen, multipliers_from_json(data["multipliers"]))


def _check_generator(field: NumberField, w: FieldElement) -> None:
    """Refuse a generator that is not an element of the field.  Identity is
    tested first; a refined handle of the field still compares equal."""
    if w.field is not field and w.field != field:
        raise ValueError("the generator is not an element of the given field")


def multipliers_from_json(values) -> tuple[int, ...]:
    """Multipliers written in JSON, each an integer.  A float, which int()
    would truncate, a boolean or a string is refused."""
    if not isinstance(values, (list, tuple)) or any(type(k) is not int for k in values):
        raise ValueError(f"multipliers must be a list of JSON integers, not {values!r}")
    return tuple(values)


# ---------------------------------------------------------------------------
# Word matrices and continuants.
# ---------------------------------------------------------------------------


def e_matrix(x: FieldElement) -> Mat2:
    field = x.field
    return Mat2(x, -field.one(), field.one(), field.zero())


def e_times(x: FieldElement, m: Mat2) -> Mat2:
    """E(x) * m: the new top row is x*(top) - bottom, the new bottom row
    the old top."""
    return Mat2(x * m.m11 - m.m21, x * m.m12 - m.m22, m.m11, m.m12)


def times_e(m: Mat2, x: FieldElement) -> Mat2:
    """m * E(x): the new left column is (left)*x + right, the new right
    column minus the old left."""
    return Mat2(m.m11 * x + m.m12, -m.m11, m.m21 * x + m.m22, -m.m21)


def m_product_entries(entries: Sequence[FieldElement]) -> Mat2:
    """E(a_n) * ... * E(a_1), the last entry applied on the left."""
    if not entries:
        raise ValueError("empty word")
    acc = e_matrix(entries[0])
    for a in entries[1:]:
        acc = e_times(a, acc)
    return acc


def m_product(t: QuiddityTuple) -> Mat2:
    return m_product_entries(t.entries())


def continuant(entries: Sequence, field: Optional[NumberField] = None):
    """K_n by the recurrence K_j = a_j K_{j-1} - K_{j-2}, K_0 = 1.

    Accepts FieldElements (returns one; field needed only when the list
    is empty) or plain rationals/polynomials (returns their type).
    """
    if not entries:
        if field is not None:
            return field.one()
        return Fraction(1)
    zero = entries[0] * 0
    km2, km1 = zero, zero + 1  # K_{-1} = 0, K_0 = 1
    for a in entries:
        km2, km1 = km1, a * km1 - km2
    return km1


def m_from_continuants(t: QuiddityTuple) -> Mat2:
    """Assemble the word matrix from four continuants of sub-tuples."""
    a = t.entries()
    n = len(a)
    field = t.field
    if n == 1:
        return Mat2(a[0], -field.one(), field.one(), field.zero())
    return Mat2(
        continuant(a, field),
        -continuant(a[1:], field),
        continuant(a[:-1], field),
        -continuant(a[1:-1], field),
    )


def euler_expansion(multipliers: Sequence[int]) -> QPoly:
    """The integer polynomial p with p(w) = K_n(k_1 w, ..., k_n w), for
    n = len(multipliers); only exponents of the parity of n occur in p."""
    if not multipliers:
        return QPoly.one()
    return continuant([QPoly((0, int(k))) for k in multipliers])


def is_quiddity(t: QuiddityTuple) -> Optional[int]:
    """epsilon in {+1, -1} when the word matrix is epsilon * Id, else None."""
    return m_product(t).pm_identity_sign()


def brute_force_quiddities(
    w: FieldElement, n_max: int, k_bound: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(multipliers, epsilon) for every word of size <= n_max over
    |k| <= k_bound whose matrix over w is epsilon * Id.

    The brute-force oracle for the searches.  It walks the word tree
    depth first on `Mat2`, extending a prefix's matrix on the left by
    E(k*w) with `e_times`, the step `m_product_entries` takes, so a hit
    is exactly `is_quiddity` with the prefixes shared.  It uses no part
    of the word kernel it checks.
    """
    one, zero = w.field.one(), w.field.zero()
    pool = [(k, w * k) for k in range(-k_bound, k_bound + 1)]

    def walk(ks: tuple[int, ...], m: Mat2):
        if len(ks) == n_max:
            return
        for k, x in pool:
            child_ks, child = ks + (k,), e_times(x, m)
            eps = child.pm_identity_sign()
            if eps is not None:
                yield child_ks, eps
            yield from walk(child_ks, child)

    yield from walk((), Mat2(one, zero, zero, one))


# ---------------------------------------------------------------------------
# The word kernel.
# ---------------------------------------------------------------------------


class _WordKernel:
    """Word matrices over <w> held as the module docstring says.  An
    element of Z[v] is one int, whose balanced base-2^bits digits are its
    coordinates on 1, v, ..., v^(m-1) for m the degree of w; a held matrix
    is the 4-tuple (m11, m12, m21, m22) of such ints and is its own hash
    key.  Sums and integer multiples of elements are those of their ints.
    The digits are read only where a coordinate is: the top one in `step`,
    and the one of v in `_multiple`'s range check.

    The width is proven, not chosen.  With |x| the largest coordinate of
    x, |v*x| <= (1 + max|c_j|)*|x|, so a step by |k| <= K grows the largest
    coordinate of a held matrix by a factor of at most
    G = K*(1 + max|c_j|) + d^2, and a word of length n holds nothing past
    G^n.  `forced` reads f*x with |f| <= d^2, a search keys its suffix
    tables by d times a held matrix, and d^n <= G^n, so every coordinate
    read or compared is below d^2*G^n < 2^(bits-1), the digit's
    balanced range: its digit is the coordinate, and equal ints are equal
    elements.  A kernel is built, by the search that uses it, for a length
    and a bound on |k|; `_fit` raises ValueError on a product, walk or
    scan past them.  One primitive, `step`, multiplies a held matrix on
    the left by a held E(k*w), and every product, walk and scan goes
    through it.  Nothing but `__init__` sets an attribute, so a held
    matrix means the same whatever was asked before."""

    __slots__ = ("d", "bits", "_dd", "_g", "_c", "_top", "_low", "_v", "_built", "identity")

    def __init__(self, w: FieldElement, length: int, k_max: int):
        p = w.min_poly_over_Q()
        m, d = p.degree, _integral_scale(p)
        # v's minimal polynomial is X^m + sum c_j X^j, c_j = a_j * d^(m-j)
        cs = [int(a * d ** (m - j)) for j, a in enumerate(p.coeffs[:-1])]
        self.d, self._dd, self._g = d, d * d, 1 + max(map(abs, cs))
        s = self.bits = self._bits(length, k_max)
        self._built = (length, k_max)
        self._c = sum(c << s * j for j, c in enumerate(cs))
        # the top digit's place, and 2^(bits-1) in each digit below it
        self._top = s * (m - 1)
        self._low = sum(1 << s * j + s - 1 for j in range(m - 1))
        self.identity = (1, 0, 0, 1)
        # the int of v: the digit 1 in the place of v, or -c_0 at m = 1
        self._v = 1 << s if m > 1 else -cs[0]

    def _bits(self, length: int, k_max: int) -> int:
        """The digit width that words of the given length over |k| <= k_max
        need: 2^(bits-1) > d^2 * G^length."""
        g = k_max * self._g + self._dd
        return (self._dd * g**length).bit_length() + 1

    def _fit(self, length: int, k_max: int) -> None:
        """Raise ValueError unless words of the given length over
        |k| <= k_max are within the kernel's width.  _bits grows with
        both, so the length and bound it was built for pass unchecked."""
        built_length, built_k = self._built
        if (length > built_length or k_max > built_k) and self._bits(length, k_max) > self.bits:
            raise ValueError("the words are past the width of the kernel")

    def step(self, m: tuple, k: int) -> tuple:
        """The held E(k*w) * m: the new top row is k*(v*top) - d^2*bottom,
        the new bottom row the old top.  With t the top digit of x, v*x is
        x less its top digit, shifted up one digit, minus t*c, since
        v^m = -sum c_j v^j; at m = 1 it is -c_0*x."""
        a, b, c, e = m
        top, low, cs, dd = self._top, self._low, self._c, self._dd
        if not top:
            f = -k * cs
            return (f * a - dd * c, f * b - dd * e, a, b)
        s, ta, tb = self.bits, (a + low) >> top, (b + low) >> top
        return (
            k * (((a - (ta << top)) << s) - ta * cs) - dd * c,
            k * (((b - (tb << top)) << s) - tb * cs) - dd * e,
            a,
            b,
        )

    def product(self, ks: Sequence[int]) -> tuple:
        """E(k_n w) * ... * E(k_1 w), as m_product orders it, held."""
        self._fit(len(ks), max(map(abs, ks), default=0))
        m = self.identity
        for k in ks:
            m = self.step(m, k)
        return m

    def identity_sign(self, m: tuple, size: int) -> Optional[int]:
        """+1 when the word of the given size held as m has matrix Id, -1
        when it has -Id, else None: m must be +-d^size * Id."""
        a, b, c, e = m
        if b or c or a != e:
            return None
        s = self.d**size
        return 1 if a == s else -1 if a == -s else None

    def inverse_keys(self, m: tuple):
        """(eps, eps*adj(m)) for eps = +-1.  Held, S*P = eps*Id reads
        s*m = eps*d^(l+r)*Id for P of length l held as m and S of length r
        held as s, and m*adj(m) = d^(2l)*Id: so S meets P when s is
        eps*adj(m) for r = l, and when d*s is for r = l - 1."""
        a, b, c, e = m
        return ((1, (e, -b, -c, a)), (-1, (-e, b, c, -a)))

    def forced(self, q: tuple, size: int) -> Optional[tuple[int, int, int]]:
        """(eps, k1, kl) with E(kl*w) * P * E(k1*w) = eps*Id, P = D*Q^T*D
        the reversal of the word Q of the given size held as q, else None.
        The solution eps = -P11, b_1 = eps*P12, b_l = -eps*P21 is then
        eps = -Q11, b_1 = -eps*Q21, b_l = eps*Q12; held, with s = d^size,
        q11 = s*Q11, k1*s*v = -eps*d^2*q21 and kl*s*v = eps*q12."""
        a, b, c, _ = q
        s = self.d**size
        if a != s and a != -s:
            return None
        eps = -1 if a == s else 1
        k1, kl = self._multiple(c, -eps * self._dd, s), self._multiple(b, eps, s)
        return None if k1 is None or kl is None else (eps, k1, kl)

    def _multiple(self, x: int, f: int, s: int) -> Optional[int]:
        """k with f*x = k*s*v, else None; <0> = {0}, where k is taken as 0.
        Every digit of f*x is in range, and k*s*v is k*s in v's digit when
        |k*s| < 2^(bits-1), so f*x is k*s*v exactly when the division
        leaves nothing and that holds; at m = 1 it always does."""
        if not self._v:
            return None if x else 0
        k, r = divmod(f * x, s * self._v)
        return None if r or abs(k * s) >> self.bits - 1 else k

    def words(self, length: int, pool: Sequence[int], start: tuple[int, ...] = ()):
        """Every word of length <= the given length that extends the start
        word by entries of the pool, the start word included, with its
        held matrix, generated depth first so that at most
        length * len(pool) words are held at once."""
        self._fit(length, max(map(abs, (*pool, *start)), default=0))
        stack = [(start, self.product(start))]
        pool = pool[::-1]
        while stack:
            ks, m = stack.pop()
            yield ks, m
            if len(ks) < length:
                stack += [(ks + (k,), self.step(m, k)) for k in pool]


# ---------------------------------------------------------------------------
# The gluing sum and dihedral equivalence.
# ---------------------------------------------------------------------------


def oplus_multipliers(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if len(a) < 2 or len(b) < 2:
        raise SizeTooSmall("both operands need at least two entries")
    n, m = len(a), len(b)
    return (
        (a[0] + b[m - 1],)
        + tuple(a[1 : n - 1])
        + (a[n - 1] + b[0],)
        + tuple(b[1 : m - 1])
    )


def oplus_sum(a: QuiddityTuple, b: QuiddityTuple) -> QuiddityTuple:
    """(a_1+b_m, a_2, ..., a_{n-1}, a_n+b_1, b_2, ..., b_{m-1})."""
    if a.generator != b.generator:
        raise ValueError("operands live over different generators")
    return a.with_multipliers(oplus_multipliers(a.multipliers, b.multipliers))


def dihedral_images(seq: Sequence[int]) -> list[tuple[int, ...]]:
    """All 2n rotations of the sequence and of its reversal."""
    return [
        s[r:] + s[:r] for s in (tuple(seq), tuple(reversed(seq))) for r in range(len(s))
    ]


def canonical_multipliers(seq: Sequence[int]) -> tuple[int, ...]:
    """min(dihedral_images(seq)), scanning only the images that begin
    with the least entry, since the least image begins with it."""
    lo = min(seq)
    return min(
        s[r:] + s[:r]
        for s in (tuple(seq), tuple(reversed(seq)))
        for r in range(len(s))
        if s[r] == lo
    )


def canonical_form(t: QuiddityTuple) -> tuple[int, ...]:
    """Lexicographically least multiplier vector over the 2n images."""
    return canonical_multipliers(t.multipliers)


def equivalent(a, b) -> bool:
    """True iff b is a rotation of a or of reversed a (multiplier level)."""
    sa = a.multipliers if isinstance(a, QuiddityTuple) else tuple(a)
    sb = b.multipliers if isinstance(b, QuiddityTuple) else tuple(b)
    if len(sa) != len(sb):
        return False
    return canonical_multipliers(sa) == canonical_multipliers(sb)


# ---------------------------------------------------------------------------
# Removing a +-1 entry.
# ---------------------------------------------------------------------------


def reduce_pm_one(t: QuiddityTuple, position: int) -> tuple[QuiddityTuple, bool]:
    """Drop the +-1 entry at `position` (0-based), absorbing it into its
    neighbors: with s the sign of the entry, both neighbors lose s and
    the word matrix gains a factor of s.

    Interior positions splice in place, so the result's word matrix is
    exactly s times the input's.  Edge positions are first rotated to an
    interior slot; rotation conjugates the word matrix, which preserves
    +-Id, so for quiddity inputs the sign bookkeeping is still exact.
    """
    n = t.n
    if n < 3:
        raise ValueError("need at least three entries to reduce")
    if not (0 <= position < n):
        raise IndexError("position out of range")
    k = t.multipliers[position]
    entry = t.generator * k
    one = t.field.one()
    if entry == one:
        s = 1
    elif entry == -one:
        s = -1
    else:
        raise NotPlusMinusOne(f"entry at {position} is not +-1")
    # s = k * w, so taking s from a neighbor takes k from its multiplier
    ks = list(t.multipliers)
    if position == 0 or position == n - 1:
        r = (position - 1) % n
        ks = ks[r:] + ks[:r]
        position = 1
    left, right = position - 1, position + 1
    ks[left] -= k
    ks[right] -= k
    del ks[position]
    return t.with_multipliers(ks), s == -1
