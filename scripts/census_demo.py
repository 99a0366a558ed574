#!/usr/bin/env python3
"""Census walkthrough: enumerate, split into reducible/irreducible, and
show one reduction witness per size for a chosen generator.

    python3 scripts/census_demo.py --generator sqrt2 --nmax 8 --kbound 2
    python3 scripts/census_demo.py --generator integers --nmax 6 --kbound 3
"""

import argparse
import sys
import time

from quiddity.classify import enumerate_quiddities, irreducible_census
from quiddity.verify import (
    field_eighth_root,
    field_gauss_unit,
    field_golden,
    field_integers,
    field_inv_sqrt2,
    field_one_minus_sqrt2,
    field_sqrt,
)

GENERATORS = {
    "integers": field_integers,
    "sqrt2": lambda: field_sqrt(2),
    "sqrt3": lambda: field_sqrt(3),
    "one-minus-sqrt2": field_one_minus_sqrt2,
    "gauss-unit": field_gauss_unit,
    "eighth-root": field_eighth_root,
    "inv-sqrt2": field_inv_sqrt2,
    "golden": field_golden,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--generator", choices=sorted(GENERATORS), default="sqrt2")
    parser.add_argument("--nmax", type=int, default=8)
    parser.add_argument("--kbound", type=int, default=2)
    args = parser.parse_args()

    field = GENERATORS[args.generator]()
    w = field.generator()
    start = time.monotonic()
    report = enumerate_quiddities(field, w, args.nmax, args.kbound)
    elapsed = time.monotonic() - start
    report = irreducible_census(report)

    print(f"generator {args.generator}: min poly coefficients "
          f"{[str(c) for c in field.min_poly.coeffs]}")
    print(f"bounds: size <= {args.nmax}, |multiplier| <= {args.kbound}")
    print(f"{len(report.members)} canonical classes "
          f"({elapsed:.2f}s to enumerate)\n")

    print("per-size tally (classes / irreducible):")
    irr_by_size = {}
    for m in report.irreducible:
        irr_by_size[m.size] = irr_by_size.get(m.size, 0) + 1
    for size in sorted(report.counts):
        print(f"  size {size}: {report.counts[size]:4d} / {irr_by_size.get(size, 0)}")

    print("\nirreducible classes:")
    for m in report.irreducible:
        print(f"  {m.multipliers}  sign {m.epsilon:+d}")

    shown = set()
    print("\nsample reduction witnesses (first per size):")
    for m in report.members:
        if not m.reducible or m.size in shown:
            continue
        shown.add(m.size)
        wit = m.witness
        print(f"  {m.multipliers}")
        print(f"    rotation {wit.rotation}, reflected {wit.reflected}, "
              f"split {wit.split_m}+{len(wit.b_multipliers)}")
        print(f"    a = {wit.a_multipliers}, b = {wit.b_multipliers} "
              f"(b sign {wit.epsilon_b:+d})")
    if not shown:
        print("  none: every class within bounds is a pair or irreducible")
    return 0


if __name__ == "__main__":
    sys.exit(main())
