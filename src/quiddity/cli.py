"""Deterministic command-line front end with JSON I/O.

Exit codes follow one contract everywhere: 0 for success (or a true
answer), 1 for a false answer, 2 for malformed input or a propagated
module error.  All JSON output is sorted and indented, so identical
configurations print byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Optional

from .classify import (
    classify,
    enumerate_quiddities,
    irreducible_census,
    parity_audit,
    transfer_theta,
)
from .core import QuiddityTuple, is_quiddity
from .numfield import BoxC, NumberField, field_make
from .polycrit import (
    eisenstein,
    irreducible_over_Q,
    osada,
    rouche_dominant_count,
    schur_cohn_count,
)
from .polynomials import QPoly
from .verify import SUITES, run_suite


def _emit(data) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _diagnostic(exc: BaseException) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc, sort_keys=True, indent=2), file=sys.stderr)
    return 2


def _parse_rats(text: str) -> list[Fraction]:
    # accepts integers, fractions like -5/2, and decimal strings; an empty
    # token would shift every later coefficient, so it is refused
    tokens = [tok.strip() for tok in text.split(",")]
    if "" in tokens:
        raise ValueError(f"empty number in {text!r}")
    return [Fraction(tok) for tok in tokens]


def _field_from_args(args) -> NumberField:
    if getattr(args, "int_field", False):
        if args.min_poly is not None or args.root_hint is not None:
            raise ValueError("--int excludes --min-poly and --root-hint")
        return field_make(QPoly((-1, 1)))
    if not args.min_poly:
        raise ValueError("need --min-poly (or --int where supported)")
    coeffs = _parse_rats(args.min_poly)
    hint: Optional[BoxC] = None
    if args.root_hint:
        parts = _parse_rats(args.root_hint)
        if len(parts) == 2:
            hint = BoxC.make(parts[0], parts[1], 0, 0)
        elif len(parts) == 4:
            hint = BoxC.make(*parts)
        else:
            raise ValueError("--root-hint takes 2 or 4 comma-separated numbers")
    return field_make(QPoly(coeffs), root_hint=hint)


def _load_tuple(args) -> QuiddityTuple:
    if args.tuple_file:
        with open(args.tuple_file) as fh:
            data = json.load(fh)
    else:
        data = json.loads(args.tuple)
    return QuiddityTuple.from_json(data)


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    t = _load_tuple(args)
    eps = is_quiddity(t)
    _emit({"is_quiddity": eps is not None, "epsilon": eps, "n": t.n})
    return 0 if eps is not None else 1


def cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite)
    except KeyError:
        raise ValueError(
            f"unknown suite {args.suite!r}; available: all, "
            + ", ".join(sorted(SUITES))
        )
    if args.json:
        _emit([asdict(r) for r in results])
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_classify(args) -> int:
    if args.transcendental:
        if args.min_poly is not None or args.root_hint is not None:
            raise ValueError("--transcendental excludes --min-poly and --root-hint")
        outcome = classify(None, transcendental=True)
    else:
        field = _field_from_args(args)
        outcome = classify(field)
    _emit(outcome.to_json())
    return 0


def cmd_enumerate(args) -> int:
    field = _field_from_args(args)
    _emit(enumerate_quiddities(field, field.generator(), args.nmax, args.kbound).to_json())
    return 0


def cmd_census(args) -> int:
    field = _field_from_args(args)
    report = enumerate_quiddities(field, field.generator(), args.nmax, args.kbound)
    _emit(irreducible_census(report).to_json())
    return 0


def cmd_transfer(args) -> int:
    t = _load_tuple(args)
    image = transfer_theta(t, args.target_index)
    _emit(
        {
            "tuple": image.to_json(),
            "epsilon": is_quiddity(image),
            "target_index": args.target_index,
        }
    )
    return 0


def cmd_parity(args) -> int:
    field = _field_from_args(args)
    _emit(parity_audit(field, field.generator(), args.nmax, args.kbound).to_json())
    return 0


def cmd_polycrit(args) -> int:
    p = QPoly(_parse_rats(args.poly))
    verdict = irreducible_over_Q(p)
    doc = {
        "poly": [str(c) for c in p.coeffs],
        "irreducible": {
            "status": verdict.status,
            "criterion": verdict.criterion,
            "prime": verdict.prime,
        },
        "eisenstein_prime": eisenstein(p),
        "osada_prime": osada(p),
    }
    if args.radius is not None:
        got = schur_cohn_count(p, Fraction(args.radius))
        doc["disk_count"] = {
            "radius": str(got.radius),
            "count": got.count,
            "boundary_clear": got.boundary_clear,
        }
    if args.dominant is not None:
        radius = Fraction(args.radius) if args.radius is not None else Fraction(2)
        got = rouche_dominant_count(p, args.dominant, radius)
        doc["dominant_term_count"] = (
            None
            if got is None
            else {"radius": str(got.radius), "count": got.count}
        )
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def _add_field_options(sub, with_int_shortcut: bool = False) -> None:
    sub.add_argument(
        "--min-poly",
        help="monic-normalizable minimal polynomial, comma-separated, constant first",
    )
    sub.add_argument(
        "--root-hint",
        help="2 numbers for a real interval or 4 for a complex box",
    )
    if with_int_shortcut:
        sub.add_argument(
            "--int",
            dest="int_field",
            action="store_true",
            help="shortcut for the integer generator 1",
        )


def _add_tuple_options(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--tuple", help="tuple document as inline JSON")
    group.add_argument("--tuple-file", help="path to a tuple document")


def _add_bounds(sub) -> None:
    sub.add_argument("--nmax", type=int, required=True, help="largest size")
    sub.add_argument(
        "--kbound", type=int, required=True, help="largest |multiplier|"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiddity",
        description="exact arithmetic for matrix-word identities over <w>",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="is the tuple document a solution?")
    _add_tuple_options(p)
    p.set_defaults(handler=cmd_check)

    p = subs.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--json", action="store_true", help="machine-readable rows")
    p.set_defaults(handler=cmd_verify)

    p = subs.add_parser("classify", help="place a generator in a family")
    _add_field_options(p)
    p.add_argument(
        "--transcendental",
        action="store_true",
        help="declare the generator transcendental instead of giving a polynomial",
    )
    p.set_defaults(handler=cmd_classify)

    p = subs.add_parser("enumerate", help="canonical solutions within bounds")
    _add_field_options(p, with_int_shortcut=True)
    _add_bounds(p)
    p.set_defaults(handler=cmd_enumerate)

    p = subs.add_parser("census", help="enumerate plus the reducibility split")
    _add_field_options(p, with_int_shortcut=True)
    _add_bounds(p)
    p.set_defaults(handler=cmd_census)

    p = subs.add_parser("transfer", help="carry a tuple to a conjugate root")
    _add_tuple_options(p)
    p.add_argument("--target-index", type=int, required=True)
    p.set_defaults(handler=cmd_transfer)

    p = subs.add_parser("parity", help="odd/even size tally within bounds")
    _add_field_options(p)
    _add_bounds(p)
    p.set_defaults(handler=cmd_parity)

    p = subs.add_parser("polycrit", help="irreducibility and disk-count report")
    p.add_argument("--poly", required=True, help="comma-separated, constant first")
    p.add_argument("--radius", help="disk radius for the exact count")
    p.add_argument(
        "--dominant", type=int, help="term index for the dominant-term bound"
    )
    p.set_defaults(handler=cmd_polycrit)

    return parser


# option values such as coefficient lists routinely start with a minus
# sign; fusing `--flag value` into `--flag=value` keeps argparse from
# reading them as option strings
_VALUE_FLAGS = (
    "--min-poly",
    "--root-hint",
    "--poly",
    "--tuple",
    "--tuple-file",
    "--radius",
)


def _fuse_flag_values(argv: list[str]) -> list[str]:
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            val = next(it, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_fuse_flag_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.handler(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # structured diagnostic, exit 2
        return _diagnostic(exc)


if __name__ == "__main__":
    sys.exit(main())
