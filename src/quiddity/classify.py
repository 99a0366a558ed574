"""Bounded enumeration over <w>, irreducibility census, conjugate transfer,
parity audits, and the generator classification decision tree.

Enumeration is meet-in-the-middle: word matrices of all prefixes of length
ceil(n/2) are matched against inverses of suffix matrices, so the cost is
(2K+1)^(n/2) instead of (2K+1)^n.  It runs on the integer word kernel
of `core`, which holds a word of size n scaled by d^n (d*w an algebraic
integer): a suffix meets a prefix when its held matrix is +-adj of the
prefix's or, when the prefix is one entry longer, when d times it is.  So
the odd sizes look up suffix tables keyed by d times the held matrix, and
nothing is divided.  Each side
is walked once for all sizes: one depth-first walk builds the suffix
table of every length r <= floor(n_max/2), and the prefixes are walked
depth first, never all held, once per least entry, a prefix of length l
serving sizes 2l-1 and 2l.  Every rotation and
reflection of a quiddity is a quiddity with the same sign, so the search
keeps only the hits that are their own canonical form (the brute-force
oracles of the tests check that lemma at small bounds): prefixes begin
with their least entry k0, a hit whose suffix holds a smaller entry is
dropped, and so is one that is greater than its reversal rotated to
begin with k0.  That test decides a hit in which k0 occurs once, as the
two are then its only images that begin with k0; the dihedral canonical
form decides the rest.  Each class is thus hit once, and its stored
word is the one re-checked by its full product, which steps the suffix
on from the prefix's held matrix.  Over <0> every multiplier gives the
entry 0, so the same search runs with the pool {0}.
Everything downstream consumes the canonical report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Optional

from .core import (
    CertificateFailed,
    QuiddityTuple,
    _WordKernel,
    _check_generator,
    canonical_multipliers,
    euler_expansion,
    is_quiddity,
)
from .numfield import (
    FieldElement,
    NumberField,
    _compare_refined,
    coords_to_json,
    field_to_descriptor,
    modulus_compare,
)
from .polycrit import schur_cohn_count
from .polynomials import QPoly
from .reducibility import NotAQuiddity, ReductionWitness, find_reduction


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusMember:
    multipliers: tuple[int, ...]
    epsilon: int
    # None until the census pass runs; size-2 members keep None forever
    # since the splitting notion starts at size 3
    reducible: Optional[bool] = None
    witness: Optional[ReductionWitness] = None

    @property
    def size(self) -> int:
        return len(self.multipliers)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EnumerationReport:
    field: NumberField
    generator: FieldElement
    n_max: int
    k_bound: int
    members: tuple[CensusMember, ...]
    irreducible: Optional[tuple[CensusMember, ...]]

    @property
    def counts(self) -> dict[int, int]:
        return dict(Counter(m.size for m in self.members))

    def _header(self) -> dict:
        return {
            "field": field_to_descriptor(self.field),
            "n_max": self.n_max,
            "k_bound": self.k_bound,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
        }

    def to_json(self) -> dict:
        return {
            **self._header(),
            "generator": coords_to_json(self.generator),
            "members": [m.to_json() for m in self.members],
            "irreducible": None
            if self.irreducible is None
            else [m.to_json() for m in self.irreducible],
        }


@dataclass(frozen=True)
class ParityReport:
    """A view of one enumeration report: counts and odd-size members."""

    report: EnumerationReport

    @property
    def counts(self) -> dict[int, int]:
        return self.report.counts

    @property
    def odd_members(self) -> tuple[CensusMember, ...]:
        return tuple(m for m in self.report.members if m.size % 2 == 1)

    def to_json(self) -> dict:
        return {
            **self.report._header(),
            "odd_members": [m.to_json() for m in self.odd_members],
        }


@dataclass(frozen=True)
class ClassificationOutcome:
    family: str  # ZeroGenerator | IntegerFamily | SqrtKFamily | FourTupleFamily | Unknown
    justification: Optional[str]
    notes: str = ""
    sqrt_k: Optional[int] = None

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


def _is_canonical_hit(word: tuple[int, ...]) -> bool:
    """Whether a word that begins with its least entry k0 is its own
    canonical form.  Its reversal rotated to begin with that k0 is
    (k0,) + word[:0:-1], so a word whose tail word[1:] is greater than
    the tail reversed is not.  When k0 occurs only once, those two are
    the only images that begin with k0, and the least image begins with
    it, so a word that passes is; otherwise the canonical form decides."""
    tail = word[1:]
    return tail <= tail[::-1] and (word[0] not in tail or canonical_multipliers(word) == word)


def enumerate_quiddities(
    field: NumberField, w: FieldElement, n_max: int, k_bound: int
) -> EnumerationReport:
    """All quiddities with size <= n_max and |k_i| <= k_bound over <w>,
    one per dihedral class, stored as its canonical form.  Size-1 words
    are never +-Id, so sizes start at 2.  A generator of another field
    raises ValueError."""
    if n_max < 1 or k_bound < 0:
        raise ValueError("need n_max >= 1 and k_bound >= 0")
    _check_generator(field, w)
    found: dict[tuple[int, ...], int] = {}
    # over <0> every multiplier gives the entry 0, so the pool is {0}
    top = 0 if w.is_zero else k_bound
    pool = range(-top, top + 1)
    kernel = _WordKernel(w, n_max, top)
    # one walk builds the suffix table of every length r <= n_max // 2
    tables: list[dict[tuple, list[tuple[int, ...]]]] = [{} for _ in range(n_max // 2 + 1)]
    for ks, mat in kernel.words(n_max // 2, pool):
        tables[len(ks)].setdefault(mat, []).append(ks)
    # a suffix one entry shorter than its prefix meets it when d times its
    # held matrix is a key, so the odd sizes look the keys up in the
    # tables re-keyed by d*S, which share the suffix lists
    d = kernel.d
    odd = tables if d == 1 else [
        {tuple([d * x for x in s]): v for s, v in t.items()} for t in tables[: (n_max + 1) // 2]
    ]
    # a canonical word begins with its least entry, so only prefixes
    # that do are walked: k0, then entries >= k0.  A prefix of length l
    # serves size 2l - 1 with the suffixes of length l - 1 and size 2l
    # with those of length l
    for k0 in pool:
        for ks, mat in kernel.words(n_max - n_max // 2, range(k0, top + 1), (k0,)):
            l = len(ks)
            for size, by_length in ((2 * l - 1, odd), (2 * l, tables)):
                if not 2 <= size <= n_max:
                    continue
                for eps, key in kernel.inverse_keys(mat):
                    for suffix in by_length[size - l].get(key, ()):
                        if min(suffix) < k0:
                            continue
                        combined = ks + suffix
                        if not _is_canonical_hit(combined):
                            continue
                        # the full product of the stored word, stepped on
                        # from the prefix's
                        full = mat
                        for k in suffix:
                            full = kernel.step(full, k)
                        if kernel.identity_sign(full, len(combined)) != eps:
                            raise CertificateFailed(
                                f"meet-in-the-middle hit {combined} failed the full-product check"
                            )
                        found[combined] = eps
    members = tuple(
        CensusMember(multipliers=ks, epsilon=found[ks])
        for ks in sorted(found, key=lambda s: (len(s), s))
    )
    return EnumerationReport(
        field=field,
        generator=w,
        n_max=n_max,
        k_bound=k_bound,
        members=members,
        irreducible=None,
    )


def irreducible_census(report: EnumerationReport) -> EnumerationReport:
    """Split every size>=3 member into reducible (with witness) or
    irreducible.  Size-2 members are excluded from both by convention.
    Every member's `find_reduction` runs on one word kernel, built for
    the members' largest size and largest |k| whatever bounds the report
    states.  Every witness is replayed, and each distinct summand is
    multiplied out on `Mat2` once per call."""
    field, w = report.field, report.generator
    split = [m.multipliers for m in report.members if m.size >= 3]
    top = max(map(abs, chain.from_iterable(split)), default=0)
    # the kernel, and the Mat2 sign of each summand, replayed once here
    census = (_WordKernel(w, max(map(len, split), default=0), top), {})
    members = []
    irreducible = []
    for m in report.members:
        if m.size < 3:
            members.append(m)
            continue
        wit = find_reduction(QuiddityTuple(field, w, m.multipliers), census)
        m = CensusMember(m.multipliers, m.epsilon, wit is not None, wit)
        members.append(m)
        if wit is None:
            irreducible.append(m)
    return replace(report, members=tuple(members), irreducible=tuple(irreducible))


def parity_audit(
    field: NumberField, w: FieldElement, n_max: int, k_bound: int
) -> ParityReport:
    """Counts per size plus the explicit list of odd-size quiddities."""
    return ParityReport(enumerate_quiddities(field, w, n_max, k_bound))


# ---------------------------------------------------------------------------
# Conjugate transfer.
# ---------------------------------------------------------------------------


def transfer_certificate(t: QuiddityTuple, epsilon: int) -> bool:
    """Exact divisibility check that the multiplier vector is a quiddity
    over EVERY conjugate of the tuple's generator w: the word matrix
    entries, expanded as integer polynomials in w, must all lie in the
    ideal of the minimal polynomial of w over Q."""
    mp = t.generator.min_poly_over_Q()
    ks = t.multipliers
    eps_poly = QPoly((epsilon,))
    conditions = [
        euler_expansion(ks) - eps_poly,
        euler_expansion(ks[:-1]),
        euler_expansion(ks[1:]),
        euler_expansion(ks[1:-1]) + eps_poly,
    ]
    return all(c % mp == QPoly.zero() for c in conditions)


def transfer_theta(t: QuiddityTuple, target_conjugate: int) -> QuiddityTuple:
    """Reinterpret the multipliers over the conjugate of the generator
    that has the same coordinates at another root of the field's minimal
    polynomial; the divisibility certificate proves the image is again a
    quiddity with the same sign."""
    eps = is_quiddity(t)
    if eps is None:
        raise NotAQuiddity("transfer is defined on quiddities only")
    if not transfer_certificate(t, eps):
        raise CertificateFailed(
            f"divisibility certificate failed for {t.multipliers} with sign {eps}"
        )
    target_field = t.field.with_selected(target_conjugate)
    image = FieldElement(target_field, t.generator.coords)
    return QuiddityTuple(target_field, image, t.multipliers)


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------


def _complex_ab_product_ge_one(field: NumberField) -> bool:
    """For w = a+ib: decide |ab| >= 1 exactly.

    Writing z = w*w, the imaginary part of z is 2ab, so the question is
    whether y = (z - conj z)^2 = -4*Im(z)^2 is <= -16.  Interval
    refinement decides the strict cases, and the zero bound of
    numfield._compare_refined certifies the boundary y = -16.
    """
    idx = field.selected_root
    if field.root_is_real(idx):
        return False
    w = field.generator()
    z = w * w
    verdict = _compare_refined(z, idx, lambda b: b.im.sq() * -4, Fraction(-16), 4)
    return verdict != "Greater"  # y = -16 means |ab| = 1, which still qualifies


_UNKNOWN_NOTE = (
    "no implemented criterion applies: generator has all conjugates of "
    "modulus < 2 and no qualifying complex product; classification open"
)


def classify(
    field: Optional[NumberField],
    *,
    transcendental: bool = False,
) -> ClassificationOutcome:
    """First matching rule wins; see the decision order in the body."""
    if transcendental:
        if field is not None:
            raise ValueError("transcendental flag excludes a field handle")
        return ClassificationOutcome(
            family="FourTupleFamily",
            justification="Transcendental",
            notes="declared transcendental generator",
        )
    if field is None:
        raise ValueError("need a field handle or the transcendental flag")
    w = field.generator()
    if w.is_zero:
        return ClassificationOutcome(
            family="ZeroGenerator",
            justification="SpecialTable",
            notes="only the all-zero tuples; (0,0,0,0) is the sole irreducible",
        )
    rv = w.rational_value()
    if rv is not None and abs(rv) == 1:
        return ClassificationOutcome(
            family="IntegerFamily",
            justification="SpecialTable",
            notes="generator is a unit integer; integer classification applies",
        )
    if rv is not None and rv.denominator == 1 and abs(rv) >= 2:
        return ClassificationOutcome(
            family="FourTupleFamily",
            justification="ModulusGE2",
            notes=f"integer generator {rv} has modulus >= 2",
        )
    for k in (2, 3):
        if field.min_poly == QPoly((-k, 0, 1)):
            return ClassificationOutcome(
                family="SqrtKFamily",
                justification="SpecialTable",
                sqrt_k=k,
                notes=f"generator is a square root of {k}",
            )
    if modulus_compare(w, field.selected_root, 2) in ("Greater", "Equal"):
        return ClassificationOutcome(
            family="FourTupleFamily",
            justification="ModulusGE2",
            notes="selected embedding has modulus >= 2",
        )
    inside = schur_cohn_count(field.min_poly, Fraction(2))
    if inside.count < field.degree:
        return ClassificationOutcome(
            family="FourTupleFamily",
            justification="ConjugateModulusGE2",
            notes="some conjugate embedding has modulus >= 2",
        )
    if _complex_ab_product_ge_one(field):
        return ClassificationOutcome(
            family="FourTupleFamily",
            justification="ComplexABProductGE1",
            notes="generator a+ib satisfies |ab| >= 1",
        )
    return ClassificationOutcome(
        family="Unknown", justification=None, notes=_UNKNOWN_NOTE
    )


def small_entry_positions(t: QuiddityTuple) -> list[int]:
    """Positions whose entry has certified modulus < 2 at the selected
    embedding; every quiddity is expected to have at least two."""
    idx = t.field.selected_root
    w = t.generator
    out = []
    for i, k in enumerate(t.multipliers):
        if modulus_compare(w * k, idx, 2) == "Less":
            out.append(i)
    return out
