"""Deciding whether a tuple splits as a gluing, with replayable witnesses.

A tuple c is reducible when some dihedral image of it equals a + b (the
gluing sum) with b a quiddity and both pieces of size >= 3.  Fixing the
image and the split size m leaves b's interior entries visible inside c;
the requirement that b's word matrix be +-Id then FORCES the two hidden
boundary entries of b, because

    E(b_l) * P * E(b_1) = eps * Id,   P := product over b's interior,

has the unique solution eps = -P11, b_1 = eps*P12, b_l = -eps*P21, and
P11 must be +-1 for any solution to exist.  The (2,2) entry then holds
by itself: det P = 1 gives P22 = -eps*(1 + P12*P21) = eps*(b_1*b_l - 1).
That turns an unbounded search into a finite exact scan, over the n
rotations alone: since M(rev u) = D*M(u)^T*D, D = diag(1, -1), a
reflected image that splits as a + b reverses to a rotation of c that
splits as rev(a) + rev(b), with the same sizes and sign, and rotations
come first in scan order.  Per rotation the scan grows the product Q of
the reversed window by left steps on the integer word kernel of `core`,
which reads the forced (eps, b_1, b_l) of P = D*Q^T*D; a census hands
every scan its one kernel.  The first rotation's scan runs on through
the whole reversed word, so its last product is D*M^T*D for M the word
matrix of c itself, and that decides, before any witness is returned,
that c is a quiddity.  Every witness it returns is replayed on the
generic `Mat2` route, which is what catches a kernel fault.  Within one
census each distinct summand b is multiplied out once: the sign is
memoised on b's exact multipliers, not on its canonical form, so no
dihedral lemma enters the certificate, and every witness still has its
gluing equality and its sign checked.  The brute-force variant ignores
the forcing and the reversal, tries every bounded boundary pair on
`Mat2` in both orientations, and exists purely to cross-check the fast
path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .core import (
    CertificateFailed,
    QuiddityTuple,
    _WordKernel,
    e_times,
    is_quiddity,
    m_product_entries,
    oplus_multipliers,
    times_e,
)


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
        return asdict(self)


def _image(ks: Sequence[int], rotation: int, reflected: bool) -> tuple[int, ...]:
    s = tuple(reversed(ks)) if reflected else tuple(ks)
    return s[rotation:] + s[:rotation]


def witness_replay(
    t: QuiddityTuple, wit: ReductionWitness, signs: Optional[dict] = None
) -> bool:
    """Exact check of every witness invariant against the original tuple.

    `signs` memoises the `Mat2` sign of each summand over t's generator,
    keyed by the summand's exact multipliers: a summand already in it is
    not multiplied out again, but its sign is still compared."""
    if wit.split_m < 3 or len(wit.b_multipliers) < 3:
        return False
    if wit.split_m != len(wit.a_multipliers):
        return False
    target = _image(t.multipliers, wit.rotation, wit.reflected)
    glued = oplus_multipliers(wit.a_multipliers, wit.b_multipliers)
    if glued != target:
        return False
    b = wit.b_multipliers
    if signs is None:
        signs = {}
    if b not in signs:
        signs[b] = is_quiddity(t.with_multipliers(b))
    return signs[b] == wit.epsilon_b


def _replayed_witness(t, ks, rotation, reflected, m, eps, kb1, kbl, signs=None):
    """The witness splitting image ks at m with sign eps and boundary
    multipliers kb1 and kbl, once it has replayed against t (through the
    memo `signs` of witness_replay)."""
    a_mult = (ks[0] - kbl,) + ks[1 : m - 1] + (ks[m - 1] - kb1,)
    b_mult = (kb1,) + ks[m:] + (kbl,)
    wit = ReductionWitness(rotation, reflected, m, a_mult, b_mult, eps)
    if not witness_replay(t, wit, signs):
        raise CertificateFailed(f"reduction witness {wit} failed its replay")
    return wit


def _scan_slots(n: int):
    for reflected in (False, True):
        for rotation in range(n):
            for l in range(3, n):  # summand b has l entries, a has n+2-l
                yield reflected, rotation, l


def find_reduction(
    t: QuiddityTuple, census: Optional[tuple[_WordKernel, dict]] = None
) -> Optional[ReductionWitness]:
    """First witness in scan order, or None when no split exists;
    NotAQuiddity when t's word matrix is not +-Id.  One loop scans the
    unreflected slots of _scan_slots in order; by the reversal lemma no
    reflected slot splits where no rotation does.  The first rotation's
    scan runs on through the whole reversed word, whose matrix D*M^T*D
    is +-Id exactly when t's is, and its hit is returned only once that
    product has been checked; the other rotations stop at their first
    hit.  A census that reduces many tuples over one generator passes
    them all one `census` = (kernel, signs): a word kernel of that
    generator, which raises ValueError on a tuple past its width, and
    one memo for witness_replay, so that each summand replays once.
    Without it the scan builds a kernel for t's size and largest |k|."""
    n, top = t.n, max(map(abs, t.multipliers))
    kernel, signs = census or (_WordKernel(t.generator, n, top), None)
    kernel._fit(n, top)
    for rotation in range(n):
        ks = _image(t.multipliers, rotation, False)
        q, hit = kernel.identity, None
        for m in range(n - 1, 2 if rotation else -1, -1):
            # now the product over the reversed window ks[m:]; at m >= 3
            # its summand b has n + 2 - m entries, a has m
            q = kernel.step(q, ks[m])
            forced = kernel.forced(q, n - m) if hit is None and m >= 3 else None
            if forced is not None:
                hit = (m, *forced)
                if rotation:
                    break
        if not rotation and kernel.identity_sign(q, n) is None:
            raise NotAQuiddity("input word matrix is not +-Id")
        if hit is not None:
            return _replayed_witness(t, ks, rotation, False, *hit, signs)
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
    boundary = {k: w * k for k in pool}
    for reflected, rotation, l in _scan_slots(n):
        ks = _image(t.multipliers, rotation, reflected)
        m = n + 2 - l
        inner = [w * k for k in ks[m:]]
        p = m_product_entries(inner)
        # the (2,2) entry of E(b_l)*P*E(b_1) is -P11 whatever the pair is
        if p.m11 != one and p.m11 != -one:
            continue
        for kb1 in pool:
            right = times_e(p, boundary[kb1])
            # the (2,1) entry of E(b_l)*right is right's (1,1) entry
            if not right.m11.is_zero:
                continue
            for kbl in pool:
                eps = e_times(boundary[kbl], right).pm_identity_sign()
                if eps is None:
                    continue
                return _replayed_witness(t, ks, rotation, reflected, m, eps, kb1, kbl)
    return None
