"""Splitting decisions: forced-boundary scan vs brute force, and witnesses."""

from fractions import Fraction as F

import pytest

import quiddity.reducibility as reducibility_module
from quiddity.core import (
    CertificateFailed,
    QuiddityTuple,
    _WordKernel,
    brute_force_quiddities,
    is_quiddity,
    m_product_entries,
    oplus_multipliers,
)
from quiddity.classify import (
    CensusMember,
    EnumerationReport,
    enumerate_quiddities,
    irreducible_census,
)
from quiddity.numfield import BoxC, field_make, subgroup_member
from quiddity.polynomials import QPoly
from quiddity.reducibility import (
    NotAQuiddity,
    ReductionWitness,
    brute_force_reduction,
    find_reduction,
    witness_replay,
)


def int_field():
    return field_make(QPoly((-1, 1)))


def sqrt2_field():
    return field_make(QPoly((-2, 0, 1)), root_hint=BoxC.make(1, 2, 0, 0))


def zeta8_field():
    return field_make(QPoly((1, 0, 0, 0, 1)), root_hint=BoxC.make(0, 1, 0, 1))


def omega_field():
    # the root of x^2 + x + 1 in the upper half plane
    return field_make(QPoly((1, 1, 1)), root_hint=BoxC.make(-1, 0, F(1, 2), 1))


def zt(field, ks):
    return QuiddityTuple(field, field.generator(), ks)


def as_tuples(field, walk):
    w = field.generator()
    return [QuiddityTuple(field, w, ks) for ks, _eps in walk]


@pytest.fixture(scope="module")
def int_census(brute_walks):
    return as_tuples(*brute_walks["integers"])


@pytest.fixture(scope="module")
def sqrt2_census(brute_walks):
    return as_tuples(*brute_walks["sqrt2"])


class TestFindReduction:
    def test_zero_one_square(self):
        t = zt(int_field(), [0, 1, 0, -1])
        wit = find_reduction(t)
        assert wit is not None
        assert sorted((wit.a_multipliers, wit.b_multipliers)) == [(-1, -1, -1), (1, 1, 1)]
        assert witness_replay(t, wit)

    def test_zero_two_square_is_stuck(self):
        assert find_reduction(zt(int_field(), [0, 2, 0, -2])) is None

    def test_constant_sqrt2_square_is_stuck(self):
        assert find_reduction(zt(sqrt2_field(), [1, 1, 1, 1])) is None

    def test_triple_has_no_split_sizes(self):
        assert find_reduction(zt(int_field(), [1, 1, 1])) is None

    def test_non_quiddity_rejected(self):
        with pytest.raises(NotAQuiddity):
            find_reduction(zt(int_field(), [1, 2, 3]))
        with pytest.raises(NotAQuiddity):
            brute_force_reduction(zt(int_field(), [1, 2, 3]), 2)

    @pytest.mark.parametrize("make", [int_field, sqrt2_field], ids=["integers", "sqrt2"])
    def test_non_quiddity_rejected_after_a_census(self, make):
        # a check that carried state from one word to the next would show
        # here: each near miss runs right after a census over the same
        # generator and right after the quiddity it differs from, that
        # word with its last entry moved or dropped
        f = make()
        rep = irreducible_census(enumerate_quiddities(f, f.generator(), 6, 2))
        rejected = 0
        for m in rep.members:
            if m.size < 3:
                continue
            ks = m.multipliers
            for other in (ks[:-1] + (ks[-1] + 1,), ks[:-1]):
                find_reduction(zt(f, ks))
                if is_quiddity(zt(f, other)) is None:
                    with pytest.raises(NotAQuiddity):
                        find_reduction(zt(f, other))
                    rejected += 1
        assert rejected > len(rep.members)

    @pytest.mark.parametrize("make", [int_field, sqrt2_field], ids=["integers", "sqrt2"])
    def test_non_quiddity_gluing_rejected(self, make):
        # c = a (+) b with b a least census quiddity and a not a quiddity:
        # b's interior ends c, so the first rotation's scan finds b, and
        # that witness replays, but c is not a quiddity and is refused
        # before any split is returned
        f = make()
        w = f.generator()
        b = next(m for m in enumerate_quiddities(f, w, 4, 1).members if m.size >= 3)
        a = (2, 2, 2)
        assert is_quiddity(zt(f, a)) is None
        c = zt(f, oplus_multipliers(a, b.multipliers))
        assert is_quiddity(c) is None
        wit = ReductionWitness(0, False, len(a), a, b.multipliers, b.epsilon)
        assert witness_replay(c, wit)
        # alone, then right after a census over the same generator
        with pytest.raises(NotAQuiddity):
            find_reduction(c)
        irreducible_census(enumerate_quiddities(f, w, 6, 2))
        with pytest.raises(NotAQuiddity):
            find_reduction(c)

    def test_1212_reducible(self):
        t = zt(int_field(), [1, 2, 1, 2])
        wit = find_reduction(t)
        assert wit is not None and witness_replay(t, wit)

    def test_witness_fields_consistent(self):
        t = zt(int_field(), [0, 1, 0, -1])
        wit = find_reduction(t)
        assert wit.split_m == len(wit.a_multipliers) >= 3
        assert len(wit.b_multipliers) >= 3
        glued = oplus_multipliers(wit.a_multipliers, wit.b_multipliers)
        assert len(glued) == t.n
        assert is_quiddity(zt(int_field(), wit.b_multipliers)) == wit.epsilon_b

    def test_longer_zero_containing(self):
        # a 6-tuple with a zero entry splits
        f = int_field()
        for t in as_tuples(f, brute_force_quiddities(f.generator(), 6, 1)):
            if t.n >= 5 and 0 in t.multipliers:
                wit = find_reduction(t)
                assert wit is not None and witness_replay(t, wit)


    @pytest.mark.parametrize("make", [int_field, sqrt2_field], ids=["integers", "sqrt2"])
    def test_entries_near_ten_to_the_forty(self, make):
        # the scan's kernel is as wide as the word's own entries need; the
        # glued word splits only into summands with entries near 10^40,
        # whose forced boundary multiples a kernel of 128-bit digits misses
        f, big = make(), 10**40
        a = (-big, 0, big, 0)
        assert is_quiddity(zt(f, a)) == 1
        assert find_reduction(zt(f, a)) is None
        t = zt(f, oplus_multipliers(a, (big + 7, 0, -big - 7, 0)))
        assert is_quiddity(t) == -1
        wit = find_reduction(t)
        assert wit is not None and witness_replay(t, wit)

    def test_census_after_wide_entries_runs_on_its_own_width(self, monkeypatch):
        # a scan over entries near 10^40 builds a kernel of 808-bit digits
        # over sqrt2; the enumeration and the census at (8, 2) that follow
        # each run on a kernel of their own width, 24 bits
        f, big = sqrt2_field(), 10**40
        w = f.generator()
        find_reduction(zt(f, oplus_multipliers((-big, 0, big, 0), (big + 7, 0, -big - 7, 0))))
        widths, step = set(), _WordKernel.step

        def spy(kernel, *args):
            widths.add(kernel.bits)
            return step(kernel, *args)

        monkeypatch.setattr(_WordKernel, "step", spy)
        report = enumerate_quiddities(f, w, 8, 2)
        assert widths == {_WordKernel(w, 8, 2).bits} == {24}
        widths.clear()
        irreducible_census(report)
        assert widths == {24}

    @pytest.mark.parametrize("name, n_max, k_bound", [("integers", 10, 3), ("zeta8", 10, 2)])
    def test_census_builds_few_kernels(self, monkeypatch, name, n_max, k_bound):
        # the census builds one kernel, for its largest member, and hands
        # it to every member's scan
        f = int_field() if name == "integers" else zeta8_field()
        report = enumerate_quiddities(f, f.generator(), n_max, k_bound)
        builds, init = [], _WordKernel.__init__

        def spy(kernel, w, length, k_max):
            builds.append((length, k_max))
            init(kernel, w, length, k_max)

        monkeypatch.setattr(_WordKernel, "__init__", spy)
        irreducible_census(report)
        assert builds == [(n_max, k_bound)]

    def test_narrow_kernel_is_refused(self):
        # a kernel too narrow for the tuple raises instead of missing a
        # split; t needs length 8 over |k| <= 2
        f = int_field()
        t = next(
            zt(f, m.multipliers)
            for m in enumerate_quiddities(f, f.generator(), 8, 2).members
            if m.size == 8 and 2 in map(abs, m.multipliers)
        )
        with pytest.raises(ValueError):
            find_reduction(t, (_WordKernel(f.generator(), 7, 2), {}))
        with pytest.raises(ValueError):
            find_reduction(t, (_WordKernel(f.generator(), 8, 1), {}))
        find_reduction(t, (_WordKernel(f.generator(), 8, 2), {}))

    def test_census_past_its_stated_bounds_splits_as_alone(self):
        # a hand-built report whose members exceed its n_max and k_bound
        # still splits each member as find_reduction splits the bare tuple
        f, big = sqrt2_field(), 10**40
        w = f.generator()
        words = [
            oplus_multipliers((-big, 0, big, 0), (big + 7, 0, -big - 7, 0)),
            (-big, 0, big, 0),
        ] + [m.multipliers for m in enumerate_quiddities(f, w, 7, 2).members]
        members = tuple(CensusMember(ks, is_quiddity(zt(f, ks))) for ks in words)
        report = EnumerationReport(f, w, 4, 1, members, None)
        census = irreducible_census(report)
        assert [m.witness for m in census.members if m.size >= 3] == [
            find_reduction(zt(f, ks)) for ks in words if len(ks) >= 3
        ]
        assert census.members[0].reducible and not census.members[1].reducible

class TestBruteForce:
    def test_finds_some_witness(self):
        t = zt(int_field(), [0, 1, 0, -1])
        wit = brute_force_reduction(t, 6)
        assert wit is not None
        assert witness_replay(t, wit)

    def test_respects_bound(self):
        t = zt(int_field(), [0, 1, 0, -1])
        wit = brute_force_reduction(t, 6)
        assert all(abs(k) <= 6 for k in (wit.b_multipliers[0], wit.b_multipliers[-1]))

    def test_none_on_stuck_square(self):
        assert brute_force_reduction(zt(int_field(), [0, 2, 0, -2]), 6) is None


class TestWitnessJson:
    def test_replay_rejects_tampered(self):
        t = zt(int_field(), [0, 1, 0, -1])
        wit = find_reduction(t)
        bad = ReductionWitness(
            wit.rotation,
            wit.reflected,
            wit.split_m,
            wit.a_multipliers,
            tuple(k + 1 for k in wit.b_multipliers),
            wit.epsilon_b,
        )
        assert not witness_replay(t, bad)

    @pytest.mark.parametrize(
        "wit",
        [
            # (0,0) + (1,1,1) glues to (1,1,1), but a has two entries
            ReductionWitness(0, False, 2, (0, 0), (1, 1, 1), -1),
            # (1,1,1) + (0,0) glues to (1,1,1), but b has two entries
            ReductionWitness(0, False, 3, (1, 1, 1), (0, 0), -1),
        ],
        ids=["split_m<3", "|b|<3"],
    )
    def test_replay_rejects_small_pieces(self, wit):
        # each witness glues back to its tuple with b a quiddity, so
        # only the size guard can reject it
        t = zt(int_field(), [1, 1, 1])
        assert oplus_multipliers(wit.a_multipliers, wit.b_multipliers) == t.multipliers
        assert is_quiddity(zt(int_field(), wit.b_multipliers)) == wit.epsilon_b
        assert not witness_replay(t, wit)

    def test_replay_rejects_split_size_mismatch(self):
        t = zt(int_field(), [1, 2, 1, 2])
        wit = find_reduction(t)
        assert witness_replay(t, wit)
        bad = ReductionWitness(
            wit.rotation,
            wit.reflected,
            wit.split_m + 1,
            wit.a_multipliers,
            wit.b_multipliers,
            wit.epsilon_b,
        )
        assert not witness_replay(t, bad)

    @pytest.mark.parametrize(
        "search",
        [find_reduction, lambda t: brute_force_reduction(t, 6)],
        ids=["find_reduction", "brute_force_reduction"],
    )
    def test_failed_replay_raises(self, monkeypatch, search):
        t = zt(int_field(), [0, 1, 0, -1])
        monkeypatch.setattr(reducibility_module, "witness_replay", lambda *a, **k: False)
        with pytest.raises(CertificateFailed):
            search(t)


class TestOracleEquivalence:
    def test_zero_entry_splits(self, int_census, sqrt2_census):
        # size >= 5 with a zero entry is always reducible
        for t in int_census + sqrt2_census:
            if t.n >= 5 and 0 in t.multipliers:
                assert find_reduction(t) is not None

    def test_size_four_stuck_without_unit(self, sqrt2_census):
        # 1 is not in <sqrt2>, so size-4 quiddities never split
        for t in sqrt2_census:
            if t.n == 4:
                assert find_reduction(t) is None


def _outside_slots(t):
    """The rotation slots (rotation, l) whose window product P has
    P11 = +-1 but a forced b_1 = eps*P12 or b_l = -eps*P21 outside <w>,
    read on Mat2."""
    w, one, n = t.generator, t.field.one(), t.n
    out = []
    for rotation in range(n):
        ks = t.multipliers[rotation:] + t.multipliers[:rotation]
        for l in range(3, n):
            p = m_product_entries([w * k for k in ks[n + 2 - l :]])
            if p.m11 in (one, -one):
                eps = -p.m11
                if subgroup_member(eps * p.m12, w) is None or subgroup_member(-eps * p.m21, w) is None:
                    out.append((rotation, l))
    return out


class TestForcedPairOutsideTheSubgroup:
    def test_no_split_with_eight_skipped_slots(self):
        t = zt(omega_field(), [-3, -1, 1, 1, -1, 3, 1, -1, -1, 1])
        assert is_quiddity(t) == -1
        assert len(_outside_slots(t)) == 8
        assert find_reduction(t) is None
        assert brute_force_reduction(t, 6) is None

    def test_skipped_slot_before_the_witness(self):
        t = zt(omega_field(), [-3, 0, 3, -1, -1, 1, 0, -1, 1, 1])
        assert _outside_slots(t)[0] == (0, 5)
        wit = find_reduction(t)
        assert (wit.rotation, wit.reflected, wit.split_m) == (0, False, 4)
        assert wit.b_multipliers == (-1, -1, 1, 0, -1, 1, 1, 0)
        assert brute_force_reduction(t, 6) == wit


@pytest.mark.parametrize(
    "coeffs,hint",
    [
        (("-1/2", 1), None),
        (("-3/2", 1), None),
        (("-1/2", 0, 1), (0, 1, 0, 0)),
        (("1/2", -1, 1), (0, 1, 0, 1)),
        ((1, 1, 1), (-1, 0, F(1, 2), 1)),
    ],
    ids=["1/2", "3/2", "1/sqrt2", "(1+i)/2", "omega"],
)
def test_scan_matches_brute_force_off_the_integers(coeffs, hint):
    # generators that are not algebraic integers (and omega, with d = 1):
    # same existence, and the same first witness whenever the forced pair
    # lies in the brute-force pool
    f = field_make(QPoly(tuple(F(c) for c in coeffs)), root_hint=None if hint is None else BoxC.make(*hint))
    rep = enumerate_quiddities(f, f.generator(), 6, 2)
    split = 0
    for m in rep.members:
        if m.size < 3:
            continue
        t = zt(f, m.multipliers)
        fast, slow = find_reduction(t), brute_force_reduction(t, 6)
        assert (fast is None) == (slow is None), m.multipliers
        if fast is not None and max(abs(fast.b_multipliers[0]), abs(fast.b_multipliers[-1])) <= 6:
            assert fast == slow, m.multipliers
            split += 1
    assert split
