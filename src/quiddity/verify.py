"""Named verification suites replaying the worked examples and the
bounded-census consequences of the classification theorems.

Each suite returns a list of CheckResult rows; a suite passes when every
row does.  Censuses shared between suites are memoized per process, so
running `all` costs little more than the slowest member.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .classify import (
    EnumerationReport,
    classify,
    enumerate_quiddities,
    irreducible_census,
    parity_audit,
    small_entry_positions,
    transfer_certificate,
    transfer_theta,
)
from .core import (
    QuiddityTuple,
    brute_force_quiddities,
    continuant,
    equivalent,
    is_quiddity,
    oplus_multipliers,
    oplus_sum,
)
from .numfield import BoxC, NumberField, field_make
from .polycrit import eisenstein, osada, rouche_dominant_count, schur_cohn_count
from .polynomials import QPoly
from .reducibility import brute_force_reduction, find_reduction, witness_replay


@dataclass(frozen=True)
class CheckResult:
    suite: str
    claim: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{mark} {self.suite}: {self.claim}{tail}"


# ---------------------------------------------------------------------------
# Gallery of generator fields used across suites, scripts, and tests.
# ---------------------------------------------------------------------------


def field_integers() -> NumberField:
    return field_make(QPoly((-1, 1)))


def field_sqrt(k: int) -> NumberField:
    return field_make(QPoly((-k, 0, 1)), root_hint=BoxC.make(0, k, 0, 0))


def field_one_minus_sqrt2() -> NumberField:
    return field_make(QPoly((-1, -2, 1)), root_hint=BoxC.make(-1, 0, 0, 0))


def field_gauss_unit() -> NumberField:
    # 1 + i
    return field_make(
        QPoly((2, -2, 1)),
        root_hint=BoxC.make(Fraction(1, 2), Fraction(3, 2), Fraction(1, 2), Fraction(3, 2)),
    )


def field_eighth_root() -> NumberField:
    return field_make(QPoly((1, 0, 0, 0, 1)), root_hint=BoxC.make(0, 1, 0, 1))


def field_inv_sqrt2() -> NumberField:
    return field_make(QPoly((Fraction(-1, 2), 0, 1)), root_hint=BoxC.make(0, 1, 0, 0))


def field_golden() -> NumberField:
    return field_make(QPoly((-1, -1, 1)), root_hint=BoxC.make(Fraction(3, 2), 2, 0, 0))


_CENSUS_TABLE: dict[str, tuple[Callable[[], NumberField], int, int]] = {
    "integers": (field_integers, 8, 3),
    "sqrt2": (lambda: field_sqrt(2), 8, 2),
    "sqrt3": (lambda: field_sqrt(3), 8, 2),
    "one-minus-sqrt2": (field_one_minus_sqrt2, 8, 2),
    "gauss-unit": (field_gauss_unit, 8, 2),
}


@functools.cache
def census_memo(name: str) -> EnumerationReport:
    make, n_max, k_bound = _CENSUS_TABLE[name]
    field = make()
    return irreducible_census(enumerate_quiddities(field, field.generator(), n_max, k_bound))


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------


def suite_closed_forms_small() -> list[CheckResult]:
    """Exhaustive small-size solutions over the integers match the
    closed forms: the zero pair, the two unit triples, and for size 4
    the alternating zero-product family plus the product-2 family.

    The sweep runs on plain integer 2x2 products (16k words) and every
    hit is re-verified through the field arithmetic."""
    name = "closed-forms-small"
    f = field_integers()
    w = f.generator()
    bound = 5
    got: dict[int, set] = {1: set(), 2: set(), 3: set(), 4: set()}

    def sweep(ks, m11, m12, m21, m22):
        n = len(ks)
        if n and m12 == 0 and m21 == 0 and m11 == m22 and m11 in (1, -1):
            got[n].add(ks)
        if n == 4:
            return
        for a in range(-bound, bound + 1):
            # left multiply by [[a, -1], [1, 0]]
            sweep(ks + (a,), a * m11 - m21, a * m12 - m22, m11, m12)

    sweep((), 1, 0, 0, 1)
    unverified = {
        n: sum(is_quiddity(QuiddityTuple(f, w, ks)) is None for ks in got[n])
        for n in got
    }
    rng = range(-bound, bound + 1)
    want4 = {(-a, b, a, -b) for a in rng for b in rng if a * b == 0}
    want4 |= {(a, b, a, b) for a in rng for b in rng if a * b == 2}
    expect = {
        1: set(),
        2: {(0, 0)},
        3: {(1, 1, 1), (-1, -1, -1)},
        4: want4,
    }
    return [
        CheckResult(
            name,
            f"size-{n} solutions with entries up to {bound} match the closed form",
            got[n] == expect[n] and not unverified[n],
            f"{len(got[n])} found, {unverified[n]} failed the field re-check",
        )
        for n in range(1, 5)
    ]


def suite_gluing_examples() -> list[CheckResult]:
    name = "gluing-examples"
    out = []
    cases = [
        ((-1, 2, 4), (3, 0, 1), (0, 2, 7, 0)),
        ((-2, 1, 3, 1), (2, 3, 1), (-1, 1, 3, 3, 3)),
        ((2, 1, 0, 2), (1, -3, 2, 5, 1), (3, 1, 0, 3, -3, 2, 5)),
    ]
    for a, b, want in cases:
        got = oplus_multipliers(a, b)
        out.append(
            CheckResult(name, f"{a} o+ {b} = {want}", got == want, f"got {got}")
        )
    f = field_integers()
    w = f.generator()
    neutral = QuiddityTuple(f, w, (0, 0))
    sample = [(1, 1, 1), (1, 2, 1, 2), (0, 4, 0, -4), (-1, -1, -1)]
    right = all(
        oplus_sum(QuiddityTuple(f, w, ks), neutral).multipliers == ks
        for ks in sample
    )
    out.append(CheckResult(name, "gluing the zero pair on the right is neutral", right))
    left = all(
        equivalent(oplus_sum(neutral, QuiddityTuple(f, w, ks)), QuiddityTuple(f, w, ks))
        for ks in sample
    )
    out.append(
        CheckResult(
            name,
            "gluing the zero pair on the left is neutral up to rotation",
            left,
        )
    )
    return out


def suite_continuant_closed_form() -> list[CheckResult]:
    name = "continuant-closed-form"
    rng = random.Random(20260817)

    def rand_rat():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 20))

    bad = 0
    for _ in range(1000):
        a, b, c, d = (rand_rat() for _ in range(4))
        closed = a * b * c * d - a * b - a * d - c * d + 1
        if continuant([a, b, c, d]) != closed:
            bad += 1
    return [
        CheckResult(
            name,
            "size-4 continuant equals abcd - ab - ad - cd + 1 on 1000 random rational tuples",
            bad == 0,
            f"{bad} mismatches",
        )
    ]


def _census_checks(name: str, census_name: str, expected_irreducible: set) -> list[CheckResult]:
    rep = census_memo(census_name)
    field, w = rep.field, rep.generator
    got = {m.multipliers for m in rep.irreducible}
    out = [
        CheckResult(
            name,
            f"irreducible classes over {census_name} match the expected list",
            got == expected_irreducible,
            f"got {sorted(got)}",
        )
    ]
    bad = 0
    for m in rep.members:
        if m.reducible:
            t = QuiddityTuple(field, w, m.multipliers)
            if not witness_replay(t, m.witness):
                bad += 1
    out.append(
        CheckResult(
            name,
            f"every reducible member of {census_name} carries a replaying witness",
            bad == 0,
            f"{bad} bad witnesses",
        )
    )
    return out


def suite_integer_irreducibles() -> list[CheckResult]:
    return _census_checks(
        "integer-irreducibles",
        "integers",
        {(1, 1, 1), (-1, -1, -1), (0, 0, 0, 0), (-2, 0, 2, 0), (-3, 0, 3, 0)},
    )


def suite_sqrt_k_irreducibles() -> list[CheckResult]:
    zero_fours = {(0, 0, 0, 0), (-1, 0, 1, 0), (-2, 0, 2, 0)}
    out = _census_checks(
        "sqrt-k-irreducibles",
        "sqrt2",
        zero_fours | {(1, 1, 1, 1), (-1, -1, -1, -1)},
    )
    out += _census_checks(
        "sqrt-k-irreducibles",
        "sqrt3",
        zero_fours | {(1,) * 6, (-1,) * 6},
    )
    return out


def suite_conjugate_bound_family() -> list[CheckResult]:
    name = "conjugate-bound-family"
    out = _census_checks(
        name, "one-minus-sqrt2", {(0, 0, 0, 0), (-1, 0, 1, 0), (-2, 0, 2, 0)}
    )
    outcome = classify(field_one_minus_sqrt2())
    out.append(
        CheckResult(
            name,
            "classify puts the generator in the four-tuple family via a large conjugate",
            (outcome.family, outcome.justification)
            == ("FourTupleFamily", "ConjugateModulusGE2"),
            f"got {outcome.family}/{outcome.justification}",
        )
    )
    return out


def suite_gauss_unit_family() -> list[CheckResult]:
    name = "gauss-unit-family"
    rep = census_memo("gauss-unit")
    even = all(m.size % 2 == 0 for m in rep.members)
    zeros = all(0 in m.multipliers for m in rep.members)
    out = [
        CheckResult(name, "every solution over 1+i has even size", even),
        CheckResult(name, "every solution over 1+i contains a zero entry", zeros),
    ]
    out += _census_checks(
        name, "gauss-unit", {(0, 0, 0, 0), (-1, 0, 1, 0), (-2, 0, 2, 0)}
    )
    outcome = classify(field_gauss_unit())
    out.append(
        CheckResult(
            name,
            "classify certifies |ab| >= 1 for 1+i (boundary case)",
            (outcome.family, outcome.justification)
            == ("FourTupleFamily", "ComplexABProductGE1"),
            f"got {outcome.family}/{outcome.justification}",
        )
    )
    return out


def suite_odd_size_obstruction() -> list[CheckResult]:
    name = "odd-size-obstruction"
    out = []
    for label, make in (
        ("eighth root of unity", field_eighth_root),
        ("1/sqrt2", field_inv_sqrt2),
    ):
        f = make()
        rep = parity_audit(f, f.generator(), 7, 2)
        out.append(
            CheckResult(
                name,
                f"no odd-size solutions over {label} up to size 7",
                rep.odd_members == (),
                f"{len(rep.odd_members)} odd members",
            )
        )
    return out


def suite_constant_tuple_identities() -> list[CheckResult]:
    name = "constant-tuple-identities"
    f = field_golden()
    rows = [
        (
            "five golden-ratio entries give the negative identity",
            is_quiddity(QuiddityTuple(f, f.generator(), (1,) * 5)) == -1,
        ),
        (
            "twelve entries equal to 1 give the positive identity",
            is_quiddity(QuiddityTuple(field_integers(), field_integers().generator(), (1,) * 12))
            == 1,
        ),
        (
            "eight entries equal to sqrt2 give the positive identity",
            is_quiddity(QuiddityTuple(field_sqrt(2), field_sqrt(2).generator(), (1,) * 8))
            == 1,
        ),
    ]
    return [CheckResult(name, claim, ok) for claim, ok in rows]


def suite_rouche_examples() -> list[CheckResult]:
    name = "rouche-examples"
    a_poly = QPoly((5, 0, 0, 5, 10, 1))
    c_poly = QPoly((11, 1, -1, 2, 0, 0, 5, 1))
    out = [
        CheckResult(name, "Eisenstein prime 5 found for the quintic", eisenstein(a_poly) == 5),
        CheckResult(name, "Osada prime 11 found for the septic", osada(c_poly) == 11),
    ]
    two = Fraction(2)
    rest_a = sum(abs(c) * two**i for i, c in enumerate(a_poly.coeffs) if i != 4)
    lead_a = abs(a_poly.coeffs[4]) * two**4
    got_a = rouche_dominant_count(a_poly, 4, 2)
    out.append(
        CheckResult(
            name,
            "quintic dominant-term bound holds at radius 2 with margin 77 < 160",
            rest_a == 77 and lead_a == 160 and got_a is not None and got_a.count == 4,
            f"{rest_a} < {lead_a}, count {None if got_a is None else got_a.count}",
        )
    )
    rest_c = sum(abs(c) * two**i for i, c in enumerate(c_poly.coeffs) if i != 6)
    lead_c = abs(c_poly.coeffs[6]) * two**6
    got_c = rouche_dominant_count(c_poly, 6, 2)
    out.append(
        CheckResult(
            name,
            "septic dominant-term bound holds at radius 2 with margin 161 < 320",
            rest_c == 161 and lead_c == 320 and got_c is not None and got_c.count == 6,
            f"{rest_c} < {lead_c}, count {None if got_c is None else got_c.count}",
        )
    )
    sc = schur_cohn_count(a_poly, 2)
    out.append(
        CheckResult(
            name,
            "disk count at radius 2 agrees for the quintic",
            sc.count == 4 and sc.boundary_clear,
            f"count {sc.count}",
        )
    )
    return out


def suite_conjugate_transfer() -> list[CheckResult]:
    name = "conjugate-transfer"
    rep = census_memo("sqrt2")
    field, w = rep.field, rep.generator
    other = 1 - field.selected_root
    members = [m for m in rep.members if m.size <= 6]
    bad_cert = bad_sign = bad_invol = bad_irr = 0
    for m in members:
        t = QuiddityTuple(field, w, m.multipliers)
        if not transfer_certificate(t, m.epsilon):
            bad_cert += 1
        image = transfer_theta(t, other)
        if is_quiddity(image) != m.epsilon:
            bad_sign += 1
        back = transfer_theta(image, field.selected_root)
        if back.multipliers != t.multipliers or back.field.selected_root != field.selected_root:
            bad_invol += 1
        if m.size >= 3 and not m.reducible:
            if find_reduction(image) is not None:
                bad_irr += 1
    return [
        CheckResult(
            name,
            "divisibility certificate holds for every member up to size 6",
            bad_cert == 0,
            f"{bad_cert} failures over {len(members)} members",
        ),
        CheckResult(
            name,
            "transfer maps solutions to solutions with the same sign",
            bad_sign == 0,
        ),
        CheckResult(name, "transfer is an involution", bad_invol == 0),
        CheckResult(
            name, "transfer maps irreducibles to irreducibles", bad_irr == 0
        ),
    ]


def suite_reduction_oracle() -> list[CheckResult]:
    name = "reduction-oracle"
    pool = 6  # |k| bound of the brute-force boundary pairs
    out = []
    for label, field, expected in (
        ("integers", field_integers(), 211),
        ("sqrt2", field_sqrt(2), 139),
    ):
        w = field.generator()
        disagree = bad_replay = total = 0
        for ks, _eps in brute_force_quiddities(w, 6, 2):
            total += 1
            t = QuiddityTuple(field, w, ks)
            fast = find_reduction(t)
            slow = brute_force_reduction(t, pool)
            if (fast is None) != (slow is None):
                disagree += 1
                continue
            if fast is None:
                continue
            # both searches visit the slots in one order, and a slot's forced
            # boundary pair is the only pair that can close it; so when the
            # forced pair lies in the brute-force pool, both stop at that slot
            kb1, kbl = fast.b_multipliers[0], fast.b_multipliers[-1]
            if max(abs(kb1), abs(kbl)) <= pool and fast != slow:
                disagree += 1
            if not (witness_replay(t, fast) and witness_replay(t, slow)):
                bad_replay += 1
        out.append(
            CheckResult(
                name,
                f"direct and brute-force splitting agree over {label}",
                total == expected and disagree == 0 and bad_replay == 0,
                f"{total} tuples, {disagree} disagreements, {bad_replay} bad replays",
            )
        )
    return out


def suite_small_entry_pairs() -> list[CheckResult]:
    name = "small-entry-pairs"
    out = []
    for census_name in ("integers", "sqrt2", "sqrt3", "one-minus-sqrt2", "gauss-unit"):
        rep = census_memo(census_name)
        # an entry's modulus depends on its multiplier alone, so each k in
        # [-K, K] is decided once
        ks = range(-rep.k_bound, rep.k_bound + 1)
        t = QuiddityTuple(rep.field, rep.generator, ks)
        small = {ks[i] for i in small_entry_positions(t)}
        bad = sum(sum(k in small for k in m.multipliers) < 2 for m in rep.members)
        out.append(
            CheckResult(
                name,
                f"every member of the {census_name} census has two entries of modulus < 2",
                bad == 0,
                f"{len(rep.members)} members",
            )
        )
    return out


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "closed-forms-small": suite_closed_forms_small,
    "gluing-examples": suite_gluing_examples,
    "continuant-closed-form": suite_continuant_closed_form,
    "integer-irreducibles": suite_integer_irreducibles,
    "sqrt-k-irreducibles": suite_sqrt_k_irreducibles,
    "conjugate-bound-family": suite_conjugate_bound_family,
    "gauss-unit-family": suite_gauss_unit_family,
    "odd-size-obstruction": suite_odd_size_obstruction,
    "constant-tuple-identities": suite_constant_tuple_identities,
    "rouche-examples": suite_rouche_examples,
    "conjugate-transfer": suite_conjugate_transfer,
    "reduction-oracle": suite_reduction_oracle,
    "small-entry-pairs": suite_small_entry_pairs,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
