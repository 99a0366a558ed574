"""The benchmark's workloads: inputs drawn from a seed, the library calls
each job makes, and the checks each job's output must pass.

Every job is a short sequence of public `quiddity` calls, the same calls
the CLI makes, run serially by one client (a closed loop).  The library
receives only the generated inputs.  Checks run after the job's clock
stops and lean on routes independent of the code under test: continuant
divisibility certificates instead of 2x2 products, exact evaluation of
claimed factors, a float root finder that may only confirm answers whose
roots sit clear of the decision boundary, and checked-in known answers.

Workloads, and why each exists:

* census -- field_make, enumerate_quiddities, irreducible_census for one
  generator and bound pair.  The combinatorial hot path: word products
  in core, FieldElement and QPoly arithmetic, meet-in-the-middle in
  classify, the forced-boundary scan in reducibility.  No root
  refinement, so it bypasses the numeric layers.  Fixed anchors with
  known answers dominate its cost (integers at (9,3), whose prefix table
  sets the peak memory, sqrt2 and 1+i at (8,2)); seeded generators from
  strata of degree 1, 2 and 4, real and non-real, integral and not, ride
  along at n_max 7-8 and k_bound 2-3.
* roots -- one field per job: field_make with an isolating box as the
  hint, classify, embed of w and w^2+1 at a fixed bit count, then
  modulus_compare of w against 1 and 2.  Quadtree refinement over
  Gaussian disk counts for non-real roots, bisection for real ones.
  Fields are seeded monic irreducible integer polynomials of degree 4-6
  in fixed strata of degree and root kind (most roots non-real, some
  real), plus the anchor x^6+x^3+1 at its principal root.  Timed jobs
  select upper-half-plane roots; a probe selects a lower-half-plane root,
  on which the library raises (see _pick_root).
* polycrit -- many short jobs on seeded integer polynomials of degree
  3-10: irreducible_over_Q, schur_cohn_count at two radii,
  real_roots_isolated, gauss_disk_count_strict at a seeded Gaussian
  centre.  Small polynomials with little coefficient growth, the
  opposite regime to roots; the many jobs give tail-latency samples.
  A probe at degree 10 takes the slow exact Schur-Cohn fallback.

Probes are inputs that fail or run far over their time limit in the
library as it stands.  They run once per run, outside the timed passes,
under the workload's probe time limit and the same checks; a failure
counts as a failed job but enters no timing, so a later fix shows as
fewer failures and does not read as a slowdown.  Every limit sits far
from the time its jobs take, so a job passes or fails the same way on
every run of a seed, however fast the machine is that minute.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import quiddity as Q
from quiddity.polynomials import GaussRat

import oracles

ANCHORS = json.loads((Path(__file__).parent / "anchors.json").read_text())

WORKLOADS = ("census", "roots", "polycrit")


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    dims: dict
    limit_s: float  # per-job time limit
    # nominal seconds of one pass on a 2-vCPU machine; a run makes
    # round(seconds / pass_s) passes, so the job count is the same on
    # every machine
    pass_s: float
    warmup: list[Job] = field(default_factory=list)
    probes: list[Job] = field(default_factory=list)  # see the module docstring
    probe_limit_s: float = 20.0


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The job list of a workload for a seed; `tiny` shrinks every size
    so that the self-test runs in seconds."""
    rng = random.Random(f"{name}:{seed}")
    return _MAKERS[name](rng, tiny)


def _box(hint) -> Optional[Q.BoxC]:
    return None if hint is None else Q.BoxC.make(*[Fraction(h) for h in hint])


def _poly(coeffs) -> Q.QPoly:
    return Q.QPoly(tuple(Fraction(c) for c in coeffs))


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

# generator pools: label, minimal polynomial (constant term first), root
# hint (re_lo, re_hi, im_lo, im_hi) or None for degree 1
_CENSUS_POOLS = {
    "deg1-int": [
        ("1", (-1, 1), None), ("-1", (1, 1), None),
        ("2", (-2, 1), None), ("3", (-3, 1), None),
    ],
    "deg1-nonint": [
        ("1/2", ("-1/2", 1), None), ("1/3", ("-1/3", 1), None),
        ("3/2", ("-3/2", 1), None),
    ],
    "deg2-real": [
        ("sqrt2", (-2, 0, 1), (1, 2, 0, 0)), ("sqrt3", (-3, 0, 1), (1, 2, 0, 0)),
        ("sqrt5", (-5, 0, 1), (2, 3, 0, 0)), ("golden", (-1, -1, 1), ("3/2", 2, 0, 0)),
        ("1-sqrt2", (-1, -2, 1), (-1, 0, 0, 0)), ("1+sqrt2", (-1, -2, 1), (2, 3, 0, 0)),
    ],
    "deg2-nonreal": [
        ("i", (1, 0, 1), ("-1/2", "1/2", "1/2", "3/2")),
        ("1+i", (2, -2, 1), ("1/2", "3/2", "1/2", "3/2")),
        ("i*sqrt2", (2, 0, 1), ("-1/2", "1/2", 1, 2)),
        ("omega", (1, 1, 1), (-1, 0, "1/2", 1)),
        ("i*sqrt3", (3, 0, 1), ("-1/2", "1/2", "3/2", 2)),
    ],
    "deg2-nonint": [
        ("1/sqrt2", ("-1/2", 0, 1), (0, 1, 0, 0)),
        ("1/sqrt3", ("-1/3", 0, 1), (0, 1, 0, 0)),
        ("(1+i)/2", ("1/2", -1, 1), (0, 1, 0, 1)),
    ],
    "deg4": [
        ("2^(1/4)", (-2, 0, 0, 0, 1), (1, 2, 0, 0)),
        ("3^(1/4)", (-3, 0, 0, 0, 1), (1, 2, 0, 0)),
        ("sqrt(1+sqrt2)", (-1, 0, -2, 0, 1), (1, 2, 0, 0)),
        ("zeta8", (1, 0, 0, 0, 1), (0, 1, 0, 1)),
        ("zeta5", (1, 1, 1, 1, 1), (0, "1/2", "1/2", 1)),
        ("zeta10", (1, -1, 1, -1, 1), ("1/2", 1, "1/4", "3/4")),
    ],
}

# one seeded job per slot: (stratum, bound pairs the seed picks from).
# The pairs in a slot cost about the same, so the pass time does not
# depend on the seed's picks.
_LARGE = ((8, 2), (7, 3))
_CENSUS_SLOTS = (
    ("deg1-int", _LARGE),
    ("deg1-nonint", _LARGE),
    ("deg2-real", _LARGE),
    ("deg2-nonreal", _LARGE),
    ("deg2-nonint", _LARGE),
    ("deg4", ((7, 2),)),
)

# integers at (8,3) is not listed: (9,3) repeats all of its work and
# its known answers cover sizes up to 8 as well
_CENSUS_ANCHORS = (
    ("sqrt2", (-2, 0, 1), (1, 2, 0, 0), 8, 2),
    ("1+i", (2, -2, 1), ("1/2", "3/2", "1/2", "3/2"), 8, 2),
    ("integers", (-1, 1), None, 9, 3),
)


def _canonical(ks: tuple) -> tuple:
    n = len(ks)
    images = [s[r:] + s[:r] for s in (ks, ks[::-1]) for r in range(n)]
    return min(images)


def _census_job(label, coeffs, hint, n_max, k_bound, expect) -> Job:
    poly, box = _poly(coeffs), _box(hint)

    def run():
        field = Q.field_make(poly, root_hint=box)
        report = Q.enumerate_quiddities(field, field.generator(), n_max, k_bound)
        return field, Q.irreducible_census(report)

    def check(out) -> list[str]:
        field, rep = out
        return _check_census(field, rep, n_max, k_bound, expect)

    return Job(f"{label} n_max={n_max} k_bound={k_bound}", run, check)


def _check_census(field, rep, n_max, k_bound, expect) -> list[str]:
    bad: list[str] = []
    w = field.generator()
    tally: dict[int, int] = {}
    irreducible = []
    for m in rep.members:
        ks = m.multipliers
        tally[len(ks)] = tally.get(len(ks), 0) + 1
        if not (2 <= len(ks) <= n_max) or max(abs(k) for k in ks) > k_bound:
            bad.append(f"{ks} outside the bounds")
        if _canonical(ks) != ks:
            bad.append(f"{ks} is not in canonical form")
        t = Q.QuiddityTuple(field, w, ks)
        if not Q.transfer_certificate(t, m.epsilon):
            bad.append(f"{ks} fails the continuant certificate")
        if len(ks) < 3:
            if m.reducible is not None:
                bad.append(f"size-2 member {ks} was split")
            continue
        if m.reducible is None:
            bad.append(f"{ks} was never split")
        elif m.reducible:
            wit = m.witness
            if wit is None or not Q.witness_replay(t, wit):
                bad.append(f"{ks} has a witness that does not replay")
        else:
            irreducible.append(ks)
    if len(set(m.multipliers for m in rep.members)) != len(rep.members):
        bad.append("duplicate members")
    if {int(k): v for k, v in rep.counts.items()} != tally:
        bad.append(f"counts {rep.counts} disagree with the members")
    if sorted(m.multipliers for m in rep.irreducible) != sorted(irreducible):
        bad.append("irreducible list disagrees with the member flags")
    if expect is not None:
        if {int(k): v for k, v in expect["counts"].items()} != tally:
            bad.append(f"counts per size {tally} differ from the known {expect['counts']}")
        if sorted(map(tuple, expect["irreducible"])) != sorted(irreducible):
            bad.append(f"irreducible classes {sorted(irreducible)} differ from the known list")
    return bad


def _build_census(rng: random.Random, tiny: bool) -> Workload:
    if tiny:
        anchors = [("integers", (-1, 1), None, 6, 2)]
        slots = (("deg2-real", ((5, 2),)), ("deg4", ((5, 1),)))
    else:
        anchors, slots = _CENSUS_ANCHORS, _CENSUS_SLOTS
    inputs = []
    for label, coeffs, hint, n_max, k_bound in anchors:
        key = f"{label}({n_max},{k_bound})"
        inputs.append((key, coeffs, hint, n_max, k_bound, ANCHORS.get(key), "anchor"))
    # generators are drawn without replacement within a stratum
    draws = {
        stratum: rng.sample(_CENSUS_POOLS[stratum], sum(s == stratum for s, _ in slots))
        for stratum in dict(slots)
    }
    for stratum, bounds in slots:
        label, coeffs, hint = draws[stratum].pop()
        n_max, k_bound = rng.choice(bounds)
        inputs.append((label, coeffs, hint, n_max, k_bound, None, stratum))
    jobs = [_census_job(*row[:6]) for row in inputs]
    dims = {"jobs": [
        {"input": job.label, "degree": len(row[1]) - 1, "stratum": row[6],
         "n_max": row[3], "k_bound": row[4]}
        for job, row in zip(jobs, inputs)
    ]}
    warm = [_census_job("integers(6,2)", (-1, 1), None, 6, 2, ANCHORS["integers(6,2)"])]
    # integers(9,3) takes 17-31 s untraced and half as long again traced
    return Workload("census", jobs, dims, limit_s=120.0, pass_s=40.0, warmup=warm)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

# At 12 bits embed, including the embeds classify and modulus_compare
# make, takes about two thirds of a pass; at 4 bits it took a quarter.
ROOT_BITS = 12
_ANCHOR_POLY = (1, 0, 0, 1, 0, 0, 1)  # x^6 + x^3 + 1

# (degree, selected root, coefficient bound) per seeded field.  With
# coefficients in [-1, 1] every root has modulus < 2, so classify takes
# its deepest path.  Those degree-4 fields (33 of them) cost within a
# factor of two of each other.  The real roots, with bound 2, mostly
# have a conjugate of modulus >= 2; the anchor is the non-real degree 6
# and takes about two thirds of a pass.  Two degree-4 fields, not more,
# keep a run under a minute.
_ROOT_SLOTS = ((4, "nonreal", 1),) * 2 + ((5, "real", 2), (6, "real", 2))
_ROOT_PROBES = ((4, "lower", 1),)


def _draw_root_field(rng: random.Random, degree: int, kind: str, bound: int, taken: set):
    """A seeded monic irreducible polynomial with coefficients in
    [-bound, bound] and a root of the given kind, not in `taken`; its
    root boxes and the selected index."""
    while True:
        coeffs = tuple([rng.randint(-bound, bound) for _ in range(degree)] + [1])
        if coeffs[0] == 0 or coeffs in taken:
            continue
        p = _poly(coeffs)
        if Q.irreducible_over_Q(p).status != "Proven":
            continue
        n_real = len(Q.real_roots_isolated(p)[0])
        if n_real == (0 if kind == "real" else degree):
            continue
        taken.add(coeffs)
        boxes = Q.isolate_roots(p)
        return coeffs, boxes, _pick_root(rng, boxes, kind)


def _pick_root(rng: random.Random, boxes, kind: str) -> int:
    # Timed non-real selections come from the upper half plane: on a
    # lower-half root of degree 3 or more, refinement raises ValueError
    # from isqrt in numfield._cell_excluded, so those are probes.
    if kind == "real":
        picks = [i for i, b in enumerate(boxes) if b.is_real_line()]
    elif kind == "lower":
        picks = [i for i, b in enumerate(boxes) if b.im.hi < 0]
    else:
        picks = [i for i, b in enumerate(boxes) if b.im.lo > 0]
    return rng.choice(picks)


def _roots_job(coeffs, boxes, index, bits) -> Job:
    poly, hint = _poly(coeffs), boxes[index]

    def run():
        field = Q.field_make(poly, root_hint=hint)
        outcome = Q.classify(field)
        idx = field.selected_root
        w = field.generator()
        embeds = [Q.embed(x, idx, bits) for x in (w, w * w + 1)]
        moduli = [Q.modulus_compare(w, idx, t) for t in (1, 2)]
        return field, outcome, embeds, moduli

    def check(out) -> list[str]:
        return _check_roots(coeffs, hint, bits, *out)

    kind = "real" if hint.is_real_line() else "upper" if hint.im.lo > 0 else "lower"
    return Job(f"x^{len(coeffs) - 1} poly {list(coeffs)} {kind} root", run, check)


def _check_roots(coeffs, hint, bits, field, outcome, embeds, moduli) -> list[str]:
    bad: list[str] = []
    box = field.selected_box()
    if not box.touches(hint):
        bad.append("selected root lies outside the hint")
    tol = Fraction(1, 2 ** bits)
    for name, e in zip(("w", "w^2+1"), embeds):
        if e.re.width > tol or e.im.width > tol:
            bad.append(f"embed of {name} is wider than 2^-{bits}")
    if not embeds[0].touches(box):
        bad.append("embed of w misses the field's isolating box")
    if not embeds[1].touches(embeds[0] * embeds[0] + 1):
        bad.append("embed of w^2+1 is inconsistent with the embed of w")
    for t, got in zip((1, 2), moduli):
        m2 = embeds[0].abs2()
        if (got == "Less" and m2.lo >= t * t) or (got == "Greater" and m2.hi <= t * t):
            bad.append(f"modulus_compare against {t} contradicts the embed box")
    rs = oracles.roots(coeffs)
    if rs is None:
        return bad
    mine = [r for r in rs if oracles.box_contains(hint, r, 1e-12)]
    if len(mine) != 1:
        return bad
    root = mine[0]
    for name, e, value in zip(("w", "w^2+1"), embeds, (root, root * root + 1)):
        if not oracles.box_contains(e, value, 1e-9):
            bad.append(f"embed of {name} misses the root {value:.6g}")
    for t, got in zip((1, 2), moduli):
        want = oracles.verdict(abs(root), t)
        if want is not None and want != got:
            bad.append(f"|w| against {t}: certified {got}, root gives {abs(root):.9g}")
    bad += _check_classification(outcome, root, rs)
    return bad


def _check_classification(outcome, root: complex, rs: list[complex]) -> list[str]:
    biggest = max(abs(r) for r in rs)
    ab = abs(root.real * root.imag)
    near = lambda a, b: abs(a - b) < oracles.MARGIN  # noqa: E731
    rule = (outcome.family, outcome.justification)
    if rule == ("FourTupleFamily", "ModulusGE2"):
        ok = abs(root) > 2 or near(abs(root), 2)
    elif rule == ("FourTupleFamily", "ConjugateModulusGE2"):
        ok = abs(root) < 2 and (biggest > 2 or near(biggest, 2))
    elif rule == ("FourTupleFamily", "ComplexABProductGE1"):
        ok = biggest < 2 and (ab > 1 or near(ab, 1))
    elif rule == ("Unknown", None):
        ok = (biggest < 2 or near(biggest, 2)) and (ab < 1 or near(ab, 1))
    else:
        ok = False
    return [] if ok else [f"classification {rule} contradicts the roots"]


def _build_roots(rng: random.Random, tiny: bool) -> Workload:
    if tiny:
        slots = ((4, "nonreal", 1), (4, "real", 2))
        anchor = (1, 1, 1, 1, 1)  # zeta5
        bits = 2
    else:
        slots, anchor, bits = _ROOT_SLOTS, _ANCHOR_POLY, ROOT_BITS
    dims = {"bits": bits, "jobs": [], "probes": []}
    boxes = Q.isolate_roots(_poly(anchor))
    upper = [i for i, b in enumerate(boxes) if b.im.lo > 0]
    # the principal root: largest real part in the upper half plane
    index = max(upper, key=lambda i: boxes[i].re.lo)
    picks = [(anchor, boxes, index, "anchor")]
    taken: set = set()
    for degree, kind, bound in slots:
        picks.append(_draw_root_field(rng, degree, kind, bound, taken) + (f"|coeff|<={bound}",))
    probes = [
        _draw_root_field(rng, degree, kind, bound, taken) + (f"|coeff|<={bound}",)
        for degree, kind, bound in _ROOT_PROBES
    ]

    def make(rows, key):
        out = []
        for coeffs, boxes, index, note in rows:
            job = _roots_job(coeffs, boxes, index, bits)
            out.append(job)
            dims[key].append({
                "input": job.label, "degree": len(coeffs) - 1,
                "real": boxes[index].is_real_line(), "coefficients": note,
            })
        return out

    jobs = make(picks, "jobs")
    probes = make(probes, "probes")
    warm = [_roots_job((2, 0, 1), Q.isolate_roots(_poly((2, 0, 1))), 1, 2)]
    return Workload("roots", jobs, dims, limit_s=60.0, pass_s=30.0, warmup=warm, probes=probes)


# ---------------------------------------------------------------------------
# polycrit
# ---------------------------------------------------------------------------

_POLY_JOBS = 120
_POLY_COEFF = 9
# shares of a pass: 40% random, 25% products of two factors without a
# rational root, 25% binomials tested just inside and outside their root
# modulus, 10% forced onto the Schur-Cohn fallback at radius 1 at degree
# 4-6.  The fallback takes 1-3 s at degree 8 and 6-30 s at degree 10,
# over the time limit, so degree 10 is a probe.  Its limit is 2 s: the
# probe ran past 4 s at each of seeds 0-39, so it fails at every seed
# whatever the machine's speed, and a fix shows as one failure fewer.
_POLY_PROBE_DEGREES = (10,)
_POLY_PROBE_LIMIT_S = 2.0
_POLY_KINDS = ("random",) * 8 + ("product",) * 5 + ("near-circle",) * 5 + ("unit-circle",) * 2


def _random_poly(rng: random.Random, degree: int) -> list[int]:
    while True:
        coeffs = [rng.randint(-_POLY_COEFF, _POLY_COEFF) for _ in range(degree)]
        coeffs.append(rng.randint(1, 3))
        if coeffs[0] != 0:
            return coeffs


def _factor_without_rational_root(rng: random.Random, degree: int) -> list[int]:
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [1]
        if not oracles.has_rational_root(coeffs):
            return coeffs


def _near_circle(rng: random.Random) -> tuple[list[int], tuple[Fraction, Fraction]]:
    """x^d - c, every root of modulus c^(1/d), with test radii 2^-10 on
    either side of that modulus."""
    degree = rng.randint(3, 8)
    while True:
        c = rng.randint(2, 9)
        if round(c ** (1 / degree)) ** degree != c:
            break
    scale = 1 << 10
    lo = Fraction(math.floor(c ** (1 / degree) * scale), scale)
    while lo ** degree >= c:
        lo -= Fraction(1, scale)
    while (lo + Fraction(1, scale)) ** degree < c:
        lo += Fraction(1, scale)
    return [-c] + [0] * (degree - 1) + [1], (lo, lo + Fraction(1, scale))


def _polycrit_job(kind: str, coeffs, radii, centre, radius) -> Job:
    poly = _poly(coeffs)

    def run():
        verdict = Q.irreducible_over_Q(poly)
        counts = [Q.schur_cohn_count(poly, r) for r in radii]
        real = Q.real_roots_isolated(poly)
        disk = Q.gauss_disk_count_strict(poly, centre, radius)
        return verdict, counts, real, disk

    ref: dict = {}  # references that depend only on the input, made once

    def check(out) -> list[str]:
        if not ref:
            ref["at_zero"] = [Q.gauss_disk_count_strict(poly, GaussRat.of(0), r) for r in radii]
            ref["roots"] = oracles.roots(coeffs)
        return _check_polycrit(kind, coeffs, radii, centre, radius, ref, *out)

    return Job(f"{kind} {coeffs}", run, check)


def _check_polycrit(kind, coeffs, radii, centre, radius, ref, verdict, counts, real, disk):
    bad: list[str] = []
    degree = len(coeffs) - 1
    if kind == "product" and verdict.status == "Proven":
        bad.append("a constructed product was proven irreducible")
    if verdict.status == "Proven" and degree >= 2 and oracles.has_rational_root(coeffs):
        bad.append("proven irreducible but has a rational root")
    if verdict.status == "Disproven":
        f = [Fraction(c) for c in verdict.factor.coeffs]
        if len(f) != 2 or oracles.horner(coeffs, -f[0] / f[1]) != 0:
            bad.append(f"witness factor {verdict.factor!r} does not divide")
    for r, sc, at_zero in zip(radii, counts, ref["at_zero"]):
        if sc.boundary_clear and at_zero is not None and at_zero != sc.count:
            bad.append(f"disk counts at radius {r} disagree: {sc.count} vs {at_zero}")
    intervals, exact = real
    prev = None
    for lo, hi in intervals:
        if prev is not None and lo < prev:
            bad.append("real-root intervals overlap")
        prev = hi
        if oracles.horner(coeffs, lo) * oracles.horner(coeffs, hi) >= 0:
            bad.append(f"no sign change on ({lo}, {hi})")
    n_real = len(intervals) + len(exact)
    if (degree - n_real) % 2:
        bad.append(f"{n_real} real roots for degree {degree}")
    rs = ref["roots"]
    if rs is None:
        return bad
    # a root with a tiny nonzero imaginary part might be either
    if all(abs(z.imag) > oracles.MARGIN or abs(z.imag) < 1e-10 for z in rs):
        want = sum(1 for z in rs if abs(z.imag) < 1e-10)
        if want != n_real:
            bad.append(f"{n_real} real roots isolated, {want} found numerically")
    for r, sc in zip(radii, counts):
        want = oracles.count_in_disk(rs, 0j, float(r))
        if want is not None and want != sc.count:
            bad.append(f"Schur-Cohn count {sc.count} at radius {r}, {want} numerically")
    if disk is not None:
        want = oracles.count_in_disk(rs, complex(centre.re, centre.im), float(radius))
        if want is not None and want != disk:
            bad.append(f"Gaussian disk count {disk}, {want} numerically")
    return bad


def _build_polycrit(rng: random.Random, tiny: bool) -> Workload:
    cycle = tuple(dict.fromkeys(_POLY_KINDS)) if tiny else _POLY_KINDS
    n_jobs = len(cycle) if tiny else _POLY_JOBS
    jobs, degrees = [], []
    kinds = {kind: 0 for kind in cycle}
    for i in range(n_jobs):
        kind = cycle[i % len(cycle)]
        coeffs, radii = _draw_polycrit(rng, kind, kinds[kind])
        while not oracles.is_squarefree(coeffs):
            coeffs, radii = _draw_polycrit(rng, kind, kinds[kind])
        centre = GaussRat.of(Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
        radius = Fraction(rng.randint(2, 8), 4)
        kinds[kind] += 1
        degrees.append(len(coeffs) - 1)
        jobs.append(_polycrit_job(kind, coeffs, radii, centre, radius))
    probes = []
    for degree in () if tiny else _POLY_PROBE_DEGREES:
        coeffs, radii = _unit_circle(rng, degree)
        while not oracles.is_squarefree(coeffs):
            coeffs, radii = _unit_circle(rng, degree)
        centre = GaussRat.of(Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
        probes.append(_polycrit_job("unit-circle", coeffs, radii, centre, Fraction(rng.randint(2, 8), 4)))
    dims = {
        "jobs": len(jobs), "kinds": kinds, "degrees": degrees, "coeff_bound": _POLY_COEFF,
        "probes": [job.label for job in probes],
    }
    warm = [_polycrit_job("random", [1, 0, 1, 1], (Fraction(1), Fraction(2)), GaussRat.of(0), Fraction(1))]
    return Workload("polycrit", jobs, dims, limit_s=10.0, pass_s=7.5, warmup=warm,
                    probes=probes, probe_limit_s=_POLY_PROBE_LIMIT_S)


def _draw_polycrit(rng: random.Random, kind: str, nth: int):
    """Coefficients and the two Schur-Cohn radii of the nth job of a
    kind.  Random and unit-circle degrees cycle instead of being drawn:
    their cost grows steeply with degree, and a fixed mix keeps the
    pass time from varying with the seed."""
    if kind == "near-circle":
        return _near_circle(rng)
    if kind == "unit-circle":
        return _unit_circle(rng, 4 + nth % 3)
    if kind == "random":
        coeffs = _random_poly(rng, 3 + nth % 8)
    else:
        da = rng.randint(2, 4)
        db = rng.randint(2, 10 - da)
        coeffs = oracles.poly_mul(
            _factor_without_rational_root(rng, da),
            _factor_without_rational_root(rng, db),
        )
    return coeffs, (Fraction(rng.randint(3, 6), 7), _radius_off_unit(rng))


def _unit_circle(rng: random.Random, degree: int):
    """|a_0| = |a_n| makes the first Schur-Cohn step at radius 1
    degenerate, so the count takes its exact fallback."""
    coeffs = _random_poly(rng, degree)
    coeffs[0] = rng.choice((1, -1)) * coeffs[-1]
    return coeffs, (Fraction(1), _radius_off_unit(rng))


def _radius_off_unit(rng: random.Random) -> Fraction:
    """A radius in (1, 8/3) with denominator 9.  Like the radii k/7, its
    n-th power never equals |a_0/a_n| for these coefficients, so the
    first Schur-Cohn step cannot degenerate."""
    return Fraction(rng.choice([k for k in range(10, 25) if k % 3]), 9)


_MAKERS = {"census": _build_census, "roots": _build_roots, "polycrit": _build_polycrit}
