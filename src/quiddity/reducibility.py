"""Deciding whether a tuple splits as a gluing, with replayable witnesses.

A tuple c is reducible when some dihedral image of it equals a + b (the
gluing sum) with b a quiddity and both pieces of size >= 3.  Fixing the
image and the split size m leaves b's interior entries visible inside c;
the requirement that b's word matrix be +-Id then FORCES the two hidden
boundary entries of b, because

    E(b_l) * P * E(b_1) = eps * Id,   P := product over b's interior,

has the unique solution eps = -P11, b_1 = eps*P12, b_l = -eps*P21 with
the consistency condition P22 = eps*(b_1*b_l - 1), and P11 must be +-1
for any solution to exist.  That turns an unbounded search into a finite
exact scan.  The brute-force variant ignores the forcing and tries every
bounded boundary pair; it exists purely to cross-check the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    CertificateFailed,
    QuiddityTuple,
    e_matrix,
    is_quiddity,
    m_product_entries,
    oplus_multipliers,
)
from .numfield import FieldElement, subgroup_member


class NotAQuiddity(ValueError):
    """Reduction is only defined for tuples whose word matrix is +-Id."""


@dataclass(frozen=True)
class ReductionWitness:
    rotation: int
    reflected: bool
    split_m: int
    a_multipliers: tuple[int, ...]
    b_multipliers: tuple[int, ...]
    epsilon_b: int

    def to_json(self) -> dict:
        return {
            "rotation": self.rotation,
            "reflected": self.reflected,
            "split_m": self.split_m,
            "a_multipliers": list(self.a_multipliers),
            "b_multipliers": list(self.b_multipliers),
            "epsilon_b": self.epsilon_b,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ReductionWitness":
        return cls(
            rotation=int(data["rotation"]),
            reflected=bool(data["reflected"]),
            split_m=int(data["split_m"]),
            a_multipliers=tuple(int(k) for k in data["a_multipliers"]),
            b_multipliers=tuple(int(k) for k in data["b_multipliers"]),
            epsilon_b=int(data["epsilon_b"]),
        )


def _image(ks: Sequence[int], rotation: int, reflected: bool) -> tuple[int, ...]:
    s = tuple(reversed(ks)) if reflected else tuple(ks)
    return s[rotation:] + s[:rotation]


def _unit_multiplier(x: FieldElement, w: FieldElement) -> Optional[int]:
    # tolerate the degenerate generator: <0> = {0}
    if w.is_zero:
        return 0 if x.is_zero else None
    return subgroup_member(x, w)


def witness_replay(t: QuiddityTuple, wit: ReductionWitness) -> bool:
    """Exact check of every witness invariant against the original tuple."""
    if wit.split_m < 3 or len(wit.b_multipliers) < 3:
        return False
    if wit.split_m != len(wit.a_multipliers):
        return False
    target = _image(t.multipliers, wit.rotation, wit.reflected)
    glued = oplus_multipliers(wit.a_multipliers, wit.b_multipliers)
    if glued != target:
        return False
    return is_quiddity(t.with_multipliers(wit.b_multipliers)) == wit.epsilon_b


def _scan_slots(n: int):
    for reflected in (False, True):
        for rotation in range(n):
            for l in range(3, n):  # summand b has l entries, a has n+2-l
                yield reflected, rotation, l


def find_reduction(t: QuiddityTuple) -> Optional[ReductionWitness]:
    """First witness in scan order, or None when no split exists."""
    if is_quiddity(t) is None:
        raise NotAQuiddity("input word matrix is not +-Id")
    n = t.n
    w = t.generator
    one = t.field.one()
    for reflected, rotation, l in _scan_slots(n):
        ks = _image(t.multipliers, rotation, reflected)
        m = n + 2 - l
        inner = [w * k for k in ks[m:]]
        p = m_product_entries(inner)
        if p.m11 == one:
            eps = -1
        elif p.m11 == -one:
            eps = 1
        else:
            continue
        b1 = p.m12 * eps
        bl = p.m21 * (-eps)
        if p.m22 != (b1 * bl - one) * eps:
            continue
        kb1 = _unit_multiplier(b1, w)
        kbl = _unit_multiplier(bl, w)
        if kb1 is None or kbl is None:
            continue
        a_mult = (ks[0] - kbl,) + ks[1 : m - 1] + (ks[m - 1] - kb1,)
        b_mult = (kb1,) + ks[m:] + (kbl,)
        wit = ReductionWitness(rotation, reflected, m, a_mult, b_mult, eps)
        if not witness_replay(t, wit):
            raise CertificateFailed(f"reduction witness {wit} failed its replay")
        return wit
    return None


def brute_force_reduction(
    t: QuiddityTuple, k_bound: int
) -> Optional[ReductionWitness]:
    """Try every dihedral image, split, and boundary multiplier pair with
    |k| <= k_bound, testing the gluing definition directly.  Slow and
    bounded; kept as an independent oracle for the forced-boundary scan.
    """
    if is_quiddity(t) is None:
        raise NotAQuiddity("input word matrix is not +-Id")
    n = t.n
    w = t.generator
    one = t.field.one()
    pool = range(-k_bound, k_bound + 1)
    boundary = {k: e_matrix(w * k) for k in pool}
    for reflected, rotation, l in _scan_slots(n):
        ks = _image(t.multipliers, rotation, reflected)
        m = n + 2 - l
        inner = [w * k for k in ks[m:]]
        p = m_product_entries(inner)
        # the (2,2) entry of E(b_l)*P*E(b_1) is -P11 whatever the pair is
        if p.m11 != one and p.m11 != -one:
            continue
        for kb1 in pool:
            right = p * boundary[kb1]
            for kbl in pool:
                eps = (boundary[kbl] * right).pm_identity_sign()
                if eps is None:
                    continue
                a_mult = (ks[0] - kbl,) + ks[1 : m - 1] + (ks[m - 1] - kb1,)
                b_mult = (kb1,) + ks[m:] + (kbl,)
                wit = ReductionWitness(rotation, reflected, m, a_mult, b_mult, eps)
                if not witness_replay(t, wit):
                    raise CertificateFailed(f"reduction witness {wit} failed its replay")
                return wit
    return None
