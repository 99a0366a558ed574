#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted, traced and
untraced, on every workload; that each per-layer counter is nonzero on
the workload it is meant to move; that each workload's checks catch a
corrupted output; that a failed timed job makes the run incorrect; and
that the time limit stops a stuck job.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    problems: list[str] = []
    run._import_library()
    import layers
    import workloads

    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if per_layer != {k: unit for k, (unit, _) in layers.METRICS.items()}:
        problems.append("BENCHMARK.json per_layer differs from layers.METRICS")
    if [w["name"] for w in SPEC["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in workloads.WORKLOADS:
        plain = run.measure(name, 1, 0, trace=False, tiny=True)
        traced = run.measure(name, 1, 0, trace=True, tiny=True)
        for label, out, want in (("untraced", plain, e2e), ("traced", traced, per_layer)):
            res = out["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} {label}: metrics {sorted(got)} != {sorted(want)}")
            timed = [f for f in out["record"]["failures"] if not f["job"].startswith("probe ")]
            if not res["correct"] or timed:
                problems.append(f"{name} {label}: {out['record']['failures']}")
        for metric, (unit, home) in layers.METRICS.items():
            value = traced["result"]["metrics"][metric]["value"]
            # a ratio of wasted or unresolved work may rightly be 0
            if unit == "ratio" and not metric.startswith("trace."):
                if not 0 <= value <= 1:
                    problems.append(f"{metric} is {value} on {name}")
            elif home == name and not value > 0:
                problems.append(f"{metric} is {value} on {name}")
        for key, value in plain["result"]["metrics"].items():
            if not value["value"] > 0:
                problems.append(f"{key} is {value['value']} on {name}")
        problems += corruption_caught(workloads.build(name, 1, tiny=True))

    problems += limit_enforced(workloads)
    problems += failure_is_incorrect(workloads)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def limit_enforced(workloads) -> list[str]:
    """A job that would run for minutes fails at its time limit: here a
    root hint that holds two roots of x^6+x^3+1."""
    import quiddity as Q
    stuck = workloads.Job(
        "ambiguous hint",
        lambda: Q.field_make(Q.QPoly((1, 0, 0, 1, 0, 0, 1)), root_hint=Q.BoxC.make(0, 1, 0, 1)),
        lambda out: [],
    )
    latency, reason, _ = run.run_job(stuck, 2.0)
    if reason is None or latency > 10:
        return [f"an over-long job was not stopped: {reason} after {latency:.1f} s"]
    return []


def failure_is_incorrect(workloads) -> list[str]:
    """A timed job that raises makes the run incorrect and is counted."""
    build = workloads.build

    def broken(name, seed, tiny=False):
        wl = build(name, seed, tiny)
        wl.jobs[0] = workloads.Job("raises", lambda: 1 / 0, lambda out: [])
        return wl

    workloads.build = broken
    try:
        res = run.measure("polycrit", 1, 0, trace=False, tiny=True)["result"]
    finally:
        workloads.build = build
    if res["correct"] or not res["failed"]:
        return [f"a job that raised left the run correct: {res['correct']}, failed {res['failed']}"]
    return []


def corruption_caught(workload) -> list[str]:
    """Run one job of the workload and feed its checks broken outputs."""
    pick, corrupt = _CORRUPT[workload.name]
    job = next(j for j in workload.jobs if j.label.startswith(pick))
    out = job.run()
    if job.check(out):
        return [f"{workload.name}: the intact output fails its checks"]
    missed = []
    for label, broken in corrupt(out):
        if not job.check(broken):
            missed.append(f"{workload.name}: checks miss {label}")
    return missed


def _census_corruptions(out):
    field, rep = out
    members = list(rep.members)
    big = max(range(len(members)), key=lambda i: members[i].size)
    m = members[big]
    bent = replace(m, multipliers=(m.multipliers[0] + 1,) + m.multipliers[1:])
    yield "a member that is not a quiddity", (field, replace(rep, members=tuple(members[:big] + [bent] + members[big + 1:])))
    yield "a dropped member", (field, replace(rep, members=rep.members[1:]))
    split = next(i for i, m in enumerate(members) if m.reducible)
    wit = members[split].witness
    bad_wit = replace(wit, rotation=(wit.rotation + 1) % members[split].size)
    yield "a witness that does not replay", (field, replace(rep, members=tuple(
        members[:split] + [replace(members[split], witness=bad_wit)] + members[split + 1:])))
    flipped = replace(members[split], reducible=False, witness=None)
    yield "a reducible member listed as irreducible", (field, replace(
        rep, members=tuple(members[:split] + [flipped] + members[split + 1:]),
        irreducible=rep.irreducible + (flipped,)))


def _roots_corruptions(out):
    field, outcome, embeds, moduli = out
    shifted = embeds[0] + Fraction(1, 2)
    yield "a shifted embed box", (field, outcome, [shifted, embeds[1]], moduli)
    # flip a verdict away from the boundary, where the float check applies
    i = next(i for i, m in enumerate(moduli) if m != "Equal")
    flipped = list(moduli)
    flipped[i] = {"Less": "Greater", "Greater": "Less"}[moduli[i]]
    yield "a flipped modulus verdict", (field, outcome, embeds, flipped)
    other = ("Unknown", None) if outcome.family != "Unknown" else ("FourTupleFamily", "ModulusGE2")
    yield "a wrong classification", (field, replace(outcome, family=other[0], justification=other[1]), embeds, moduli)


def _polycrit_corruptions(out):
    verdict, counts, real, disk = out
    forged = replace(verdict, status="Proven", criterion="forged")
    yield "a constructed product proven irreducible", (forged, counts, real, disk)
    yield "a wrong Schur-Cohn count", (verdict, [replace(counts[0], count=counts[0].count + 1), counts[1]], real, disk)
    intervals, exact = real
    yield "a lost real root", (verdict, counts, (intervals[1:], exact) if intervals else ([(Fraction(0), Fraction(1))], exact), disk)


# workload -> (label prefix of the job to corrupt, corruptions)
_CORRUPT = {
    "census": ("integers", _census_corruptions),
    "roots": ("", _roots_corruptions),
    "polycrit": ("product", _polycrit_corruptions),
}


if __name__ == "__main__":
    sys.exit(main())
