"""Splitting decisions: forced-boundary scan vs brute force, and witnesses."""

import pytest

import quiddity.reducibility as reducibility_module
from quiddity.core import (
    CertificateFailed,
    QuiddityTuple,
    brute_force_quiddities,
    is_quiddity,
    oplus_multipliers,
)
from quiddity.numfield import BoxC, field_make
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


def zt(field, ks):
    return QuiddityTuple(field, field.generator(), ks)


def all_quiddities(field, n_max, k_bound):
    w = field.generator()
    for ks, _eps in brute_force_quiddities(w, n_max, k_bound):
        yield QuiddityTuple(field, w, ks)


@pytest.fixture(scope="module")
def int_census():
    return list(all_quiddities(int_field(), 6, 2))


@pytest.fixture(scope="module")
def sqrt2_census():
    return list(all_quiddities(sqrt2_field(), 6, 2))


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
        for t in all_quiddities(f, 6, 1):
            if t.n >= 5 and 0 in t.multipliers:
                wit = find_reduction(t)
                assert wit is not None and witness_replay(t, wit)


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
    def test_round_trip(self):
        wit = ReductionWitness(2, True, 3, (1, 1, 1), (-1, -1, -1), -1)
        assert ReductionWitness.from_json(wit.to_json()) == wit

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
        "search",
        [find_reduction, lambda t: brute_force_reduction(t, 6)],
        ids=["find_reduction", "brute_force_reduction"],
    )
    def test_failed_replay_raises(self, monkeypatch, search):
        t = zt(int_field(), [0, 1, 0, -1])
        monkeypatch.setattr(reducibility_module, "witness_replay", lambda t, wit: False)
        with pytest.raises(CertificateFailed):
            search(t)


def assert_same_first_witness(fast, slow, k_bound):
    # both searches visit the slots in one order, and a slot's forced
    # boundary pair is the only pair that can close it; so when the
    # forced pair lies in the brute-force pool, both stop at that slot
    if fast is not None and max(abs(fast.b_multipliers[0]), abs(fast.b_multipliers[-1])) <= k_bound:
        assert fast == slow


class TestOracleEquivalence:
    def test_integers(self, int_census):
        assert len(int_census) == 211
        for t in int_census:
            fast = find_reduction(t)
            slow = brute_force_reduction(t, 6)
            assert (fast is None) == (slow is None), t.multipliers
            assert_same_first_witness(fast, slow, 6)
            if fast is not None:
                assert witness_replay(t, fast) and witness_replay(t, slow)

    def test_sqrt2(self, sqrt2_census):
        assert len(sqrt2_census) == 139
        for t in sqrt2_census:
            fast = find_reduction(t)
            slow = brute_force_reduction(t, 6)
            assert (fast is None) == (slow is None), t.multipliers
            assert_same_first_witness(fast, slow, 6)

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
