"""Bounded enumeration, irreducibility census, transfer, parity, classify."""

import dataclasses
import importlib
import random
import sys
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from orbit_oracle import orbit_sums, word_counts
from quiddity.classify import (
    _complex_ab_product_ge_one,
    _is_canonical_hit,
    ClassificationOutcome,
    classify,
    enumerate_quiddities,
    irreducible_census,
    parity_audit,
    small_entry_positions,
    transfer_certificate,
    transfer_theta,
)
import quiddity.core as core_module
from quiddity.core import (
    CertificateFailed,
    QuiddityTuple,
    brute_force_quiddities,
    canonical_multipliers,
    dihedral_images,
    is_quiddity,
)
from quiddity.numfield import BoxC, FieldElement, field_make
from quiddity.polynomials import QPoly
from quiddity.reducibility import NotAQuiddity, find_reduction, witness_replay
from quiddity.verify import field_golden


def int_field():
    return field_make(QPoly((-1, 1)))


def sqrt2_field():
    return field_make(QPoly((-2, 0, 1)), root_hint=BoxC.make(1, 2, 0, 0))


def sqrt2_plus_sqrt3_field():
    return field_make(QPoly((1, 0, -10, 0, 1)), root_hint=BoxC.make(3, 4, 0, 0))


def sqrt3_field():
    return field_make(QPoly((-3, 0, 1)), root_hint=BoxC.make(F(3, 2), 2, 0, 0))


def gauss_field():
    return field_make(
        QPoly((2, -2, 1)), root_hint=BoxC.make(F(1, 2), F(3, 2), F(1, 2), F(3, 2))
    )


def zeta8_field():
    return field_make(QPoly((1, 0, 0, 0, 1)), root_hint=BoxC.make(0, 1, 0, 1))


def brute_canonical(walk):
    """Exhaustive enumeration oracle, deduplicated by the least dihedral
    image straight from its definition."""
    return {min(dihedral_images(ks)): eps for ks, eps in walk}


@pytest.fixture(scope="module")
def int_report():
    f = int_field()
    return irreducible_census(enumerate_quiddities(f, f.generator(), 6, 2))


@pytest.fixture(scope="module")
def sqrt2_report():
    f = sqrt2_field()
    return irreducible_census(enumerate_quiddities(f, f.generator(), 6, 2))


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


class TestEnumerate:
    def test_small_integer_classes(self):
        f = int_field()
        rep = enumerate_quiddities(f, f.generator(), 3, 2)
        got = {m.multipliers: m.epsilon for m in rep.members}
        assert got == {(0, 0): -1, (1, 1, 1): -1, (-1, -1, -1): 1}

    def test_positive_integer_orbits_count_dissections(self):
        # over Z with entries 1..6, the words of size n <= 8 with M = -Id
        # are Conway and Coxeter's triangulations of the n-gon, Catalan
        # C(n - 2) of them, and those with M = +Id are the dissections
        # with one hexagon (Ovsienko, 2018); each listed class stands for
        # its dihedral orbit, so a dropped class makes a sum fall short
        # and a duplicate makes it exceed
        f = int_field()
        rep = enumerate_quiddities(f, f.generator(), 8, 6)
        kept = [m for m in rep.members if min(m.multipliers) >= 1]
        want = {(n, -1): c for n, c in zip(range(3, 9), (1, 2, 5, 14, 42, 132))}
        want.update({(6, 1): 1, (7, 1): 7, (8, 1): 34})
        assert orbit_sums(kept) == want
        assert all(orbit_sums(kept[:i] + kept[i + 1:]) != want for i in range(len(kept)))

    @pytest.mark.parametrize("name", ["integers", "sqrt2"], ids=["int_field", "sqrt2_field"])
    def test_matches_brute_force(self, name, brute_walks):
        f, walk = brute_walks[name]
        rep = enumerate_quiddities(f, f.generator(), 6, 2)
        got = {m.multipliers: m.epsilon for m in rep.members}
        assert got == brute_canonical(walk)

    @pytest.mark.parametrize(
        "coeffs,hint,coords",
        [
            (("-1/2", 0, 1), (0, 1, 0, 0), None),
            (("1/2", -1, 1), (0, 1, 0, 1), None),
            (("-3/2", 1), None, None),
            (("-1/2", 1), None, None),
            (("-1/4", "-1/2", 1), ("1/2", 1, 0, 0), None),
            ((-2, 0, 1), (1, 2, 0, 0), (1, 1)),
        ],
        ids=["1/sqrt2", "(1+i)/2", "3/2", "1/2", "(1+sqrt5)/4", "1+sqrt2"],
    )
    def test_matches_brute_force_other_generators(self, coeffs, hint, coords):
        # non-integral generators run the kernel with a scale d > 1,
        # and 1+sqrt2 is not the generator of its field; n_max = 2 uses
        # the suffix table of length 1 alone, and at odd n_max the
        # longest prefixes serve size 2l - 1 alone.  Over 1/2 and
        # (1+sqrt5)/4 quiddities of odd size exist, and a prefix meets
        # their suffix, one entry shorter, on d times its held matrix
        f = field_make(
            QPoly(tuple(F(c) for c in coeffs)),
            root_hint=None if hint is None else BoxC.make(*hint),
        )
        w = f.generator() if coords is None else FieldElement(f, coords)
        for n_max in (2, 3, 5):
            rep = enumerate_quiddities(f, w, n_max, 2)
            got = {m.multipliers: m.epsilon for m in rep.members}
            assert got and got == brute_canonical(brute_force_quiddities(w, n_max, 2)), n_max

    @pytest.mark.parametrize("n_max,k_bound", [(2, 1), (5, 2), (8, 2), (9, 3)])
    def test_one_walk_per_side(self, n_max, k_bound, monkeypatch):
        # one suffix walk builds every table, and the prefixes are walked
        # once per least entry, whatever the number of sizes
        words, calls = core_module._WordKernel.words, []

        def counted_words(kernel, *args):
            calls.append(args)
            return words(kernel, *args)

        monkeypatch.setattr(core_module._WordKernel, "words", counted_words)
        f = int_field()
        enumerate_quiddities(f, f.generator(), n_max, k_bound)
        assert len(calls) == 1 + (2 * k_bound + 1)

    @pytest.mark.parametrize("make", [int_field, sqrt2_field], ids=["int_field", "sqrt2_field"])
    def test_full_product_check_covers_each_stored_member_once(self, make, monkeypatch):
        # the check reads the sign of each stored word's full held product
        kernel_cls = core_module._WordKernel
        identity_sign = kernel_cls.identity_sign
        checked = []

        def traced_sign(kernel, m, size):
            checked.append((m, size))
            return identity_sign(kernel, m, size)

        monkeypatch.setattr(kernel_cls, "identity_sign", traced_sign)
        f = make()
        rep = enumerate_quiddities(f, f.generator(), 6, 2)
        assert rep.members and all(m.size >= 2 for m in rep.members)
        kernel = core_module._WordKernel(f.generator(), 6, 2)
        want = [(kernel.product(m.multipliers), m.size) for m in rep.members]
        assert sorted(checked) == sorted(want)

    @pytest.mark.parametrize("make", [int_field, sqrt2_field], ids=["int_field", "sqrt2_field"])
    def test_full_product_checks_step_on_from_held_work(self, make, monkeypatch):
        # the enumeration's check steps each hit's suffix onto the prefix
        # its walk yielded, and find_reduction's check takes at most three
        # steps beyond a full scan of the first rotation, with no product
        # of its own
        kernel_cls = core_module._WordKernel
        step = kernel_cls.step
        steps = Counter()

        def counted_step(kernel, m, k):
            steps[sys._getframe(1).f_code.co_name] += 1
            return step(kernel, m, k)

        monkeypatch.setattr(kernel_cls, "step", counted_step)
        f = make()
        rep = enumerate_quiddities(f, f.generator(), 8, 2)
        assert steps["enumerate_quiddities"] == sum(m.size // 2 for m in rep.members)
        census, scanned = (core_module._WordKernel(f.generator(), 8, 2), {}), 0
        for member in rep.members:
            n = member.size
            if n < 3:
                continue
            steps.clear()
            wit = find_reduction(QuiddityTuple(f, f.generator(), member.multipliers), census)
            # the scan with its first rotation run in full takes n - 3
            # steps there, then n - 3 per later rotation up to the hit's,
            # which stops after n - split_m
            if wit is None:
                scan = (n - 3) * n
            elif wit.rotation == 0:
                scan = n - 3
            else:
                scan = (n - 3) * wit.rotation + n - wit.split_m
            assert set(steps) == {"find_reduction"}, steps
            assert steps["find_reduction"] <= scan + 3, member
            scanned += 1
        assert scanned > 100

    def test_failed_recheck_raises(self, monkeypatch):
        f = sqrt2_field()
        monkeypatch.setattr(core_module._WordKernel, "identity_sign", lambda self, m, size: None)
        with pytest.raises(CertificateFailed):
            enumerate_quiddities(f, f.generator(), 4, 1)

    def test_reversal_test_decides_hits_that_hold_their_least_entry_once(self, monkeypatch):
        # a hit begins with its least entry k0; the test against its
        # reversal rotated to k0 passes every canonical word, and decides
        # a word that holds k0 once without a canonical form
        classify_module = importlib.import_module("quiddity.classify")
        asked = []

        def spy(seq):
            asked.append(seq)
            return canonical_multipliers(seq)

        monkeypatch.setattr(classify_module, "canonical_multipliers", spy)
        rng = random.Random(44)
        words = [(0, 0, 0, 0), (1, 1, 1), (-1, -1, -1)]
        for _ in range(20000):
            word = [rng.randint(-3, 3) for _ in range(rng.randint(1, 10))]
            at = rng.choice([i for i, k in enumerate(word) if k == min(word)])
            words.append(tuple(word[at:] + word[:at]))
        seen = Counter()
        for word in words:
            canonical = canonical_multipliers(word) == word
            once = word.count(word[0]) == 1
            asked.clear()
            assert _is_canonical_hit(word) == canonical, word
            assert not (once and asked), word
            seen[canonical, once] += 1
        assert min(seen.values()) > 1000, seen

    def test_generator_of_another_field_is_refused(self):
        # sqrt3 under the descriptor of Q(sqrt2) would serialize as sqrt2
        f, w = sqrt2_field(), sqrt3_field().generator()
        with pytest.raises(ValueError):
            enumerate_quiddities(f, w, 6, 1)
        with pytest.raises(ValueError):
            QuiddityTuple(f, w, (1,) * 6)
        # a refined handle compares equal to its source and is accepted
        refined = f.refined(f.selected_root, F(1, 2**20))
        assert refined is not f and refined == f
        assert enumerate_quiddities(refined, f.generator(), 4, 1).members
        assert QuiddityTuple(refined, f.generator(), (1,) * 4).field is refined

    def test_members_are_canonical_and_sorted(self, int_report):
        for m in int_report.members:
            assert m.multipliers == min(dihedral_images(m.multipliers))
        sizes = [m.size for m in int_report.members]
        assert sizes == sorted(sizes)

    def test_zero_generator_clamps(self):
        # over <0> every multiplier gives the entry 0, and E(0)^2 = -Id;
        # the search runs with the pool {0} and reports the caller's bound
        for f in (int_field(), sqrt2_field(), gauss_field()):
            for n_max in (1, 2, 5, 12):
                for k in (0, 2):
                    rep = enumerate_quiddities(f, f.zero(), n_max, k)
                    got = {m.multipliers: m.epsilon for m in rep.members}
                    assert got == {(0,) * n: (-1) ** (n // 2) for n in range(2, n_max + 1, 2)}
                    assert rep.k_bound == k
                    irreducible = irreducible_census(rep).irreducible
                    want = ((0, 0, 0, 0),) if n_max >= 4 else ()
                    assert tuple(m.multipliers for m in irreducible) == want

    def test_gauss_generator_even_sizes_with_zero(self):
        f = gauss_field()
        rep = enumerate_quiddities(f, f.generator(), 5, 2)
        assert rep.members
        for m in rep.members:
            assert m.size % 2 == 0
            assert 0 in m.multipliers

    def test_sqrt3_constant_six_tuple(self):
        f = sqrt3_field()
        rep = enumerate_quiddities(f, f.generator(), 6, 1)
        got = {m.multipliers: m.epsilon for m in rep.members}
        assert got[(1, 1, 1, 1, 1, 1)] == -1
        assert got[(-1, -1, -1, -1, -1, -1)] == -1
        assert all(len(ks) % 2 == 0 for ks in got)

    def test_counts_track_members(self, sqrt2_report):
        tally = {}
        for m in sqrt2_report.members:
            tally[m.size] = tally.get(m.size, 0) + 1
        assert tally == sqrt2_report.counts
        # counts are read from the members, so they follow any edit of them
        fewer = dataclasses.replace(sqrt2_report, members=sqrt2_report.members[1:])
        assert sum(fewer.counts.values()) == len(sqrt2_report.members) - 1

    def test_rejects_bad_bounds(self):
        f = int_field()
        with pytest.raises(ValueError):
            enumerate_quiddities(f, f.generator(), 0, 2)

    @pytest.mark.parametrize("make", [int_field, zeta8_field], ids=["int_field", "zeta8_field"])
    def test_reports_of_one_input_are_equal(self, make):
        # a report holds only the answer, so two runs of one enumeration,
        # and their censuses, are the same value
        f = make()
        a, b = (enumerate_quiddities(f, f.generator(), 6, 2) for _ in range(2))
        assert a == b and hash(a) == hash(b)
        a, b = irreducible_census(a), irreducible_census(b)
        assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# Orbit counts: the dedup layer against words counted with no dedup.
# ---------------------------------------------------------------------------


ORBIT_CENSUSES = {
    "integers": (int_field, 9, 3, 52060),
    "golden": (field_golden, 10, 2, 11493),
    "zeta8": (zeta8_field, 10, 2, 10945),
    "1/2": (lambda: field_make(QPoly((F(-1, 2), 1))), 9, 3, 25226),
    "2/3": (lambda: field_make(QPoly((F(-2, 3), 1))), 9, 3, 3142),
}


@pytest.fixture(scope="module")
def orbit_censuses():
    reports = {}
    for name, (make, n_max, k_bound, _) in ORBIT_CENSUSES.items():
        f = make()
        reports[name] = enumerate_quiddities(f, f.generator(), n_max, k_bound)
    return reports


class TestOrbitCounts:
    @pytest.mark.parametrize("name", list(ORBIT_CENSUSES))
    def test_orbit_sums_match_word_counts(self, name, orbit_censuses):
        # each listed class stands for its dihedral orbit, so per size and
        # sign the orbit sizes add up to the words counted with no dedup
        rep = orbit_censuses[name]
        counts = word_counts(rep.generator, rep.n_max, rep.k_bound)
        assert sum(counts.values()) == ORBIT_CENSUSES[name][3]
        assert orbit_sums(rep.members) == counts

    @pytest.mark.parametrize("name", list(ORBIT_CENSUSES))
    def test_negation_closure(self, name, orbit_censuses):
        # E(-x) = -D*E(x)*D with D = diag(1, -1), so negating a word of
        # size n multiplies its sign by (-1)^n
        got = {m.multipliers: m.epsilon for m in orbit_censuses[name].members}
        for ks, eps in got.items():
            negated = canonical_multipliers(tuple(-k for k in ks))
            assert got.get(negated) == (-1) ** len(ks) * eps, ks


# ---------------------------------------------------------------------------
# Census.
# ---------------------------------------------------------------------------


class TestCensus:
    def test_integer_irreducibles_exact(self, int_report):
        got = {m.multipliers for m in int_report.irreducible}
        assert got == {
            (1, 1, 1),
            (-1, -1, -1),
            (0, 0, 0, 0),
            (-2, 0, 2, 0),
        }

    def test_sqrt2_irreducibles_exact(self, sqrt2_report):
        got = {m.multipliers for m in sqrt2_report.irreducible}
        assert got == {
            (1, 1, 1, 1),
            (-1, -1, -1, -1),
            (0, 0, 0, 0),
            (-1, 0, 1, 0),
            (-2, 0, 2, 0),
        }

    @pytest.mark.parametrize("fixture", ["int_report", "sqrt2_report"])
    def test_every_reducible_witness_replays(self, fixture, request):
        rep = request.getfixturevalue(fixture)
        field, w = rep.field, rep.generator
        for m in rep.members:
            if m.size < 3:
                assert m.reducible is None
                continue
            assert m.reducible is not None
            if m.reducible:
                t = QuiddityTuple(field, w, m.multipliers)
                assert witness_replay(t, m.witness)
            else:
                assert m.witness is None

    def test_census_reuses_the_enumeration_field(self, monkeypatch):
        numfield_module = importlib.import_module("quiddity.numfield")
        f = sqrt2_field()
        rep = enumerate_quiddities(f, f.generator(), 4, 1)

        def refuse(*args, **kwargs):
            raise AssertionError("the census built a field of its own")

        monkeypatch.setattr(numfield_module, "field_make", refuse)
        census = irreducible_census(rep)
        assert census.field is f
        assert census.generator == f.generator()

    def test_census_replays_each_summand_once_per_call(self, monkeypatch):
        reducibility_module = importlib.import_module("quiddity.reducibility")
        f = sqrt2_field()
        rep = enumerate_quiddities(f, f.generator(), 8, 2)
        replayed = []
        real = reducibility_module.is_quiddity
        monkeypatch.setattr(
            reducibility_module, "is_quiddity", lambda t: replayed.append(t.multipliers) or real(t)
        )
        census = irreducible_census(rep)
        witnesses = [m.witness for m in census.members if m.witness is not None]
        summands = {wit.b_multipliers for wit in witnesses}
        assert len(summands) < len(witnesses)
        assert sorted(replayed) == sorted(summands)
        # the memo lives in one call: a second census replays them again
        assert irreducible_census(rep) == census
        assert len(replayed) == 2 * len(summands)

    def test_census_compares_an_equal_generator_once(self, monkeypatch):
        # the census builds its own kernel from the report's generator, so
        # an equal generator of another handle, used before, is never
        # compared with it
        first = sqrt2_field().generator()
        f = sqrt2_field()
        w = f.generator()
        assert w is not first and w == first
        compared = []
        eq = FieldElement.__eq__

        def counting(x, y):
            if (x is first) != (y is first):
                compared.append((x, y))
            return eq(x, y)

        enumerate_quiddities(first.field, first, 8, 2)
        rep = enumerate_quiddities(f, w, 8, 2)
        monkeypatch.setattr(FieldElement, "__eq__", counting)
        census = irreducible_census(rep)
        assert sum(m.size >= 3 for m in census.members) > 100
        assert compared == []

    def test_memoised_summand_still_checks_its_sign(self, monkeypatch):
        reducibility_module = importlib.import_module("quiddity.reducibility")
        f = sqrt2_field()
        t = QuiddityTuple(f, f.generator(), (-1, -1, 0, 1, 1, 0))
        wit = find_reduction(t)
        replayed = []
        real = reducibility_module.is_quiddity
        monkeypatch.setattr(
            reducibility_module, "is_quiddity", lambda t: replayed.append(t.multipliers) or real(t)
        )
        signs = {}
        assert witness_replay(t, wit, signs)
        flipped = dataclasses.replace(wit, epsilon_b=-wit.epsilon_b)
        assert not witness_replay(t, flipped, signs)
        assert replayed == [wit.b_multipliers]

    def test_integer_census_at_ten_three(self):
        # the members and irreducibles read on the search that kept every
        # hit and replayed every witness
        f = int_field()
        rep = irreducible_census(enumerate_quiddities(f, f.generator(), 10, 3))
        assert len(rep.members) == 14321
        assert [m.multipliers for m in rep.irreducible] == [
            (-1, -1, -1),
            (1, 1, 1),
            (-3, 0, 3, 0),
            (-2, 0, 2, 0),
            (0, 0, 0, 0),
        ]

    def test_pair_is_not_counted_irreducible(self, int_report):
        assert all(m.size >= 3 for m in int_report.irreducible)

    def test_report_json_shape(self, int_report):
        data = int_report.to_json()
        assert data["n_max"] == 6 and data["k_bound"] == 2
        assert len(data["members"]) == len(int_report.members)
        assert len(data["irreducible"]) == len(int_report.irreducible)


# ---------------------------------------------------------------------------
# Transfer to a conjugate embedding.
# ---------------------------------------------------------------------------


class TestTransfer:
    def test_certificate_on_constant_four(self):
        f = sqrt2_field()
        t = QuiddityTuple(f, f.generator(), (1, 1, 1, 1))
        assert transfer_certificate(t, -1)
        assert not transfer_certificate(t, 1)

    def test_image_is_quiddity_other_root(self):
        f = sqrt2_field()
        other = 1 - f.selected_root
        t = QuiddityTuple(f, f.generator(), (1, 1, 1, 1))
        image = transfer_theta(t, other)
        assert image.field.selected_root == other
        assert image.generator.rational_value() is None
        assert is_quiddity(image) == -1

    def test_involution(self, sqrt2_report):
        field, w = sqrt2_report.field, sqrt2_report.generator
        other = 1 - field.selected_root
        for m in sqrt2_report.members:
            t = QuiddityTuple(field, w, m.multipliers)
            back = transfer_theta(transfer_theta(t, other), field.selected_root)
            assert back.multipliers == t.multipliers
            assert back.field.selected_root == field.selected_root

    def test_census_transfers_with_same_sign(self, sqrt2_report):
        field, w = sqrt2_report.field, sqrt2_report.generator
        other = 1 - field.selected_root
        for m in sqrt2_report.members:
            t = QuiddityTuple(field, w, m.multipliers)
            assert is_quiddity(transfer_theta(t, other)) == m.epsilon

    def test_irreducibles_stay_irreducible(self, sqrt2_report):
        field, w = sqrt2_report.field, sqrt2_report.generator
        other = 1 - field.selected_root
        for m in sqrt2_report.irreducible:
            t = QuiddityTuple(field, w, m.multipliers)
            assert find_reduction(transfer_theta(t, other)) is None

    def test_rejects_non_quiddity(self):
        f = sqrt2_field()
        t = QuiddityTuple(f, f.generator(), (1, 2, 3))
        with pytest.raises(NotAQuiddity):
            transfer_theta(t, 0)

    def test_sqrt2_plus_sqrt3_census_to_conjugate(self):
        # X^4 - 10X^2 + 1 is decided irreducible by the root-subset search
        f = sqrt2_plus_sqrt3_field()
        w = f.generator()
        report = enumerate_quiddities(f, w, 4, 1)
        member = max(report.members, key=lambda m: m.size)
        assert member.size == 4
        t = QuiddityTuple(f, w, member.multipliers)
        other = next(i for i in range(4) if i != f.selected_root)
        image = transfer_theta(t, other)
        assert image.field.selected_root == other
        assert is_quiddity(image) == member.epsilon

    @pytest.mark.parametrize(
        "coeffs,hint,coords,count",
        [
            (("-1/2", 0, 1), (0, 1, 0, 0), (0, 2), 23),
            ((-2, 0, 1), (1, 2, 0, 0), (1, 1), 15),
        ],
        ids=["2/sqrt2", "1+sqrt2"],
    )
    def test_generator_other_than_field_generator(self, coeffs, hint, coords, count):
        # the certificate reduces modulo the minimal polynomial of w, and
        # the image lives over the conjugate of w, not of the field generator
        f = field_make(QPoly(tuple(F(c) for c in coeffs)), root_hint=BoxC.make(*hint))
        w = FieldElement(f, coords)
        other = 1 - f.selected_root
        report = enumerate_quiddities(f, w, 6, 2)
        assert len(report.members) == count
        for m in report.members:
            t = QuiddityTuple(f, w, m.multipliers)
            assert transfer_certificate(t, m.epsilon), m.multipliers
            image = transfer_theta(t, other)
            assert image.field.selected_root == other
            assert image.generator.coords == w.coords
            assert is_quiddity(image) == m.epsilon

    def test_minimal_polynomial_derived_once_per_generator(self, monkeypatch):
        numfield_module = importlib.import_module("quiddity.numfield")
        field = sqrt2_field()
        w = field.generator()
        derived = []
        real = numfield_module._charpoly
        # a derivation starts from the matrix of den*w, whose first column
        # is w itself, as w = X has den 1
        monkeypatch.setattr(
            numfield_module,
            "_charpoly",
            lambda cols: derived.append(tuple(cols[0])) or real(cols),
        )
        rep = enumerate_quiddities(field, w, 6, 2)
        census = irreducible_census(rep)
        for m in census.members:
            assert transfer_certificate(QuiddityTuple(field, w, m.multipliers), m.epsilon)
        # derived once, by the kernel or the first certificate
        assert len(census.members) > 1 and derived == [w.coords]

    def test_failed_certificate_raises(self, monkeypatch):
        # the package exports a function named classify, so the module is
        # looked up by name
        classify_module = importlib.import_module("quiddity.classify")
        f = sqrt2_field()
        t = QuiddityTuple(f, f.generator(), (1, 1, 1, 1))
        monkeypatch.setattr(classify_module, "transfer_certificate", lambda t, eps: False)
        with pytest.raises(CertificateFailed):
            transfer_theta(t, 0)


# ---------------------------------------------------------------------------
# Parity of sizes.
# ---------------------------------------------------------------------------


class TestParity:
    def test_eighth_root_of_unity_no_odd(self):
        f = zeta8_field()
        rep = parity_audit(f, f.generator(), 7, 2)
        assert rep.odd_members == ()
        assert rep.counts  # even sizes do occur

    def test_inverse_sqrt2_no_odd(self):
        f = field_make(QPoly((F(-1, 2), 0, 1)), root_hint=BoxC.make(0, 1, 0, 0))
        rep = parity_audit(f, f.generator(), 7, 2)
        assert rep.odd_members == ()

    def test_unit_integer_has_odd(self):
        f = int_field()
        rep = parity_audit(f, f.generator(), 3, 1)
        assert {m.multipliers for m in rep.odd_members} == {
            (1, 1, 1),
            (-1, -1, -1),
        }


# ---------------------------------------------------------------------------
# Classification of generators.
# ---------------------------------------------------------------------------


def classify_field(field):
    return classify(field)


class TestClassify:
    @pytest.mark.parametrize(
        "coeffs,hint,family,justification",
        [
            ((-1, 1), None, "IntegerFamily", "SpecialTable"),
            ((1, 1), None, "IntegerFamily", "SpecialTable"),
            ((-2, 1), None, "FourTupleFamily", "ModulusGE2"),
            ((3, 1), None, "FourTupleFamily", "ModulusGE2"),
            ((-2, 0, 1), (1, 2, 0, 0), "SqrtKFamily", "SpecialTable"),
            ((-3, 0, 1), (F(3, 2), 2, 0, 0), "SqrtKFamily", "SpecialTable"),
        ],
    )
    def test_table_rows(self, coeffs, hint, family, justification):
        f = field_make(QPoly(coeffs), root_hint=BoxC.make(*hint) if hint else None)
        out = classify(f)
        assert (out.family, out.justification) == (family, justification)

    def test_zero_generator(self):
        out = classify(field_make(QPoly((0, 1))))
        assert out.family == "ZeroGenerator"

    def test_sqrt_k_table_records_k(self):
        out = classify(sqrt2_field())
        assert out.sqrt_k == 2
        out = classify(sqrt3_field())
        assert out.sqrt_k == 3

    def test_selected_modulus_at_least_two(self):
        # 1 + sqrt(2), about 2.414
        f = field_make(QPoly((-1, -2, 1)), root_hint=BoxC.make(2, 3, 0, 0))
        out = classify(f)
        assert (out.family, out.justification) == ("FourTupleFamily", "ModulusGE2")

    def test_selected_modulus_exactly_two(self):
        # roots 1 +- i*sqrt(3) sit on the circle of radius 2
        f = field_make(QPoly((4, -2, 1)), root_hint=BoxC.make(0, 2, 1, 2))
        out = classify(f)
        assert (out.family, out.justification) == ("FourTupleFamily", "ModulusGE2")

    def test_conjugate_modulus(self):
        # 1 - sqrt(2): small itself, conjugate 1 + sqrt(2) is big
        f = field_make(QPoly((-1, -2, 1)), root_hint=BoxC.make(-1, 0, 0, 0))
        out = classify(f)
        assert (out.family, out.justification) == (
            "FourTupleFamily",
            "ConjugateModulusGE2",
        )

    def test_conjugate_modulus_half_integer(self):
        # (1 - sqrt(11)) / 2, conjugate about 2.158
        f = field_make(QPoly((F(-5, 2), -1, 1)), root_hint=BoxC.make(-2, -1, 0, 0))
        out = classify(f)
        assert (out.family, out.justification) == (
            "FourTupleFamily",
            "ConjugateModulusGE2",
        )

    def test_gauss_unit_boundary(self):
        # 1 + i has |ab| = 1 exactly; the boundary is included
        out = classify(gauss_field())
        assert (out.family, out.justification) == (
            "FourTupleFamily",
            "ComplexABProductGE1",
        )

    def test_cubic_complex_root_qualifies(self):
        f = field_make(QPoly((-6, 1, 0, 1)), root_hint=BoxC.make(-2, 0, 1, 2))
        out = classify(f)
        assert (out.family, out.justification) == (
            "FourTupleFamily",
            "ComplexABProductGE1",
        )

    def test_ab_boundary_of_degree_six(self):
        # w = 2^(1/3) + i 2^(-1/3) has ab = 1, and z = w^2 has degree 6,
        # so only the zero bound can certify the boundary
        f = field_make(
            QPoly((F(17, 4), -3, 9, -4, 0, 0, 1)),
            root_hint=BoxC.make(F(5, 4), F(13, 10), F(3, 4), F(4, 5)),
        )
        start = time.perf_counter()
        assert _complex_ab_product_ge_one(f)
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("b,want", [(F(50, 63), False), (F(27, 34), True)])
    def test_ab_near_misses(self, b, want):
        # w = 2^(1/3) + i b has |ab - 1| < 2^-10 for these convergents of
        # 2^(-1/3); w - ib is a cube root of 2, so w is a root of
        # ((X - ib)^3 - 2)((X + ib)^3 - 2) = (X^2 + b^2)^3 - 4X^3 + 12b^2 X + 4
        p = QPoly((b * b, 0, 1))
        p = p * p * p + QPoly((4, 12 * b * b, 0, -4))
        f = field_make(p, root_hint=BoxC.make(F(5, 4), F(13, 10), F(3, 4), F(4, 5)))
        assert _complex_ab_product_ge_one(f) is want

    def test_cubic_real_root_open(self):
        f = field_make(QPoly((-6, 1, 0, 1)), root_hint=BoxC.make(1, 2, 0, 0))
        out = classify(f)
        assert out.family == "Unknown"
        assert out.justification is None
        assert out.notes

    @pytest.mark.parametrize(
        "make",
        [
            zeta8_field,
            lambda: field_make(
                QPoly((F(-1, 2), 0, 1)), root_hint=BoxC.make(0, 1, 0, 0)
            ),
            lambda: field_make(QPoly((-1, -1, 1)), root_hint=BoxC.make(F(3, 2), 2, 0, 0)),
            lambda: field_make(QPoly((F(-1, 2), 1))),
        ],
    )
    def test_open_cases(self, make):
        out = classify(make())
        assert out.family == "Unknown"

    def test_transcendental_flag(self):
        out = classify(None, transcendental=True)
        assert (out.family, out.justification) == (
            "FourTupleFamily",
            "Transcendental",
        )

    def test_flag_excludes_field(self):
        with pytest.raises(ValueError):
            classify(int_field(), transcendental=True)

    def test_need_field_or_flag(self):
        with pytest.raises(ValueError):
            classify(None)

    def test_sqrt2_plus_sqrt3(self):
        out = classify(sqrt2_plus_sqrt3_field())
        assert (out.family, out.justification) == ("FourTupleFamily", "ModulusGE2")

    def test_outcome_json(self):
        data = classify(sqrt2_field()).to_json()
        assert data["family"] == "SqrtKFamily" and data["sqrt_k"] == 2


# ---------------------------------------------------------------------------
# Small-entry certificates.
# ---------------------------------------------------------------------------


class TestSmallEntries:
    def test_unit_triple_all_small(self):
        f = int_field()
        t = QuiddityTuple(f, f.generator(), (1, 1, 1))
        assert small_entry_positions(t) == [0, 1, 2]

    def test_zero_four_tuple_positions(self):
        f = int_field()
        t = QuiddityTuple(f, f.generator(), (0, 3, 0, -3))
        assert small_entry_positions(t) == [0, 2]

    def test_census_members_have_two_small(self, sqrt2_report):
        field, w = sqrt2_report.field, sqrt2_report.generator
        for m in sqrt2_report.members:
            t = QuiddityTuple(field, w, m.multipliers)
            assert len(small_entry_positions(t)) >= 2
