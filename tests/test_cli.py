"""Command-line front end: exit codes, JSON shape, input refusals and golden outputs."""

import hashlib
import json

import pytest

from quiddity.cli import main

INT_FIELD = {
    "min_poly": ["-1", "1"],
    "root_hint": {"re": ["1", "1"], "im": ["0", "0"]},
}
SQRT2_FIELD = {
    "min_poly": ["-2", "0", "1"],
    "root_hint": {"re": ["1", "2"], "im": ["0", "0"]},
}


def int_tuple_json(ks):
    return json.dumps(
        {"field": INT_FIELD, "generator": ["1"], "multipliers": list(ks)}
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_zero_pair(self, capsys):
        code, out, _ = run(capsys, "check", "--tuple", int_tuple_json((0, 0)))
        assert code == 0
        doc = json.loads(out)
        assert doc == {"is_quiddity": True, "epsilon": -1, "n": 2}

    def test_1212(self, capsys):
        code, out, _ = run(capsys, "check", "--tuple", int_tuple_json((1, 2, 1, 2)))
        assert code == 0
        assert json.loads(out)["epsilon"] == -1

    def test_non_quiddity_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", "--tuple", int_tuple_json((1, 1)))
        assert code == 1
        assert json.loads(out) == {"is_quiddity": False, "epsilon": None, "n": 2}

    def test_malformed_json_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "--tuple", "{broken")
        assert code == 2
        assert json.loads(err)["error"] == "JSONDecodeError"

    @pytest.mark.parametrize(
        "field, multipliers",
        [
            (INT_FIELD, [1.9, 1, 1]),
            (INT_FIELD, [True, 1, 1]),
            (INT_FIELD, ["1", 1, 1]),
            ({"min_poly": [-0.1, 1]}, [1, 1, 1]),
        ],
        ids=["float", "boolean", "string", "float-coefficient"],
    )
    def test_inexact_number_exits_two(self, capsys, field, multipliers):
        # int(1.9) would check (1, 1, 1), and a JSON float is already rounded
        doc = {"field": field, "generator": ["1"], "multipliers": multipliers}
        code, out, err = run(capsys, "check", "--tuple", json.dumps(doc))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ValueError"

    def test_tuple_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(int_tuple_json((1, 1, 1)))
        code, out, _ = run(capsys, "check", "--tuple-file", str(path))
        assert code == 0 and json.loads(out)["epsilon"] == -1


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "gluing-examples")
        assert code == 0
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "verify", "rouche-examples", "--json")
        assert code == 0
        rows = json.loads(out)
        assert all(r["passed"] for r in rows)
        assert len(rows) == 5

    def test_unknown_suite_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "nope")
        assert code == 2
        assert "available" in json.loads(err)["message"]


class TestClassify:
    def test_golden_ratio_open(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--min-poly", "-1,-1,1", "--root-hint", "1.6,1.7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "Unknown" and doc["notes"]

    def test_conjugate_family(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--min-poly", "-1,-2,1", "--root-hint", "-0.5,-0.4"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["family"], doc["justification"]) == (
            "FourTupleFamily",
            "ConjugateModulusGE2",
        )

    def test_sqrt2(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--min-poly", "-2,0,1", "--root-hint", "1,2"
        )
        assert code == 0
        assert json.loads(out)["sqrt_k"] == 2

    def test_transcendental(self, capsys):
        code, out, _ = run(capsys, "classify", "--transcendental")
        assert code == 0
        assert json.loads(out)["justification"] == "Transcendental"

    @pytest.mark.parametrize(
        "flag", [("--min-poly", "1,1"), ("--root-hint", "0,1"), ("--min-poly", "")]
    )
    def test_transcendental_refuses_a_polynomial(self, capsys, flag):
        # the library refuses a field together with the flag, and so does the CLI
        code, out, err = run(capsys, "classify", "--transcendental", *flag)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ValueError"

    def test_three_number_hint_exits_two(self, capsys):
        code, out, err = run(capsys, "classify", "--min-poly", "-2,0,1", "--root-hint", "1,2,3")
        assert (code, out) == (2, "")
        assert "2 or 4" in json.loads(err)["message"]

    def test_factor_without_rational_root_exits_two(self, capsys):
        # X^4 + X^2 + 1 = (X^2 + X + 1)(X^2 - X + 1)
        code, _, err = run(
            capsys, "classify", "--min-poly", "1,0,1,0,1", "--root-hint", "0,1,0,1"
        )
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "NotIrreducible"
        assert "X^2 + X + 1" in doc["message"]

    def test_reducible_poly_exits_two(self, capsys):
        code, _, err = run(capsys, "classify", "--min-poly", "-1,0,1")
        assert code == 2
        assert json.loads(err)["error"] == "NotIrreducible"


class TestEnumerate:
    def test_includes_zero_alternating_class(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--int", "--nmax", "4", "--kbound", "2"
        )
        assert code == 0
        classes = [tuple(m["multipliers"]) for m in json.loads(out)["members"]]
        assert (-2, 0, 2, 0) in classes  # the class of (0,2,0,-2)
        assert (1, 2, 1, 2) in classes

    @pytest.mark.parametrize("flag", [("--min-poly", "-2,0,1"), ("--root-hint", "1,2")])
    def test_int_refuses_a_polynomial(self, capsys, flag):
        # --int names the generator 1, so a second description of the field
        # would be ignored; it is refused instead
        code, out, err = run(capsys, "enumerate", "--int", *flag, "--nmax", "3", "--kbound", "1")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ValueError"


class TestCensus:
    def test_sqrt2_irreducibles(self, capsys):
        code, out, _ = run(
            capsys,
            "census",
            "--min-poly", "-2,0,1",
            "--root-hint", "1,2",
            "--nmax", "4",
            "--kbound", "2",
        )
        assert code == 0
        doc = json.loads(out)
        got = {tuple(m["multipliers"]) for m in doc["irreducible"]}
        assert (1, 1, 1, 1) in got and (0, 0, 0, 0) in got

    def test_witnesses_serialized(self, capsys):
        code, out, _ = run(
            capsys, "census", "--int", "--nmax", "5", "--kbound", "1"
        )
        assert code == 0
        doc = json.loads(out)
        reducible = [m for m in doc["members"] if m["reducible"]]
        assert reducible and all(m["witness"] for m in reducible)

    def test_two_box_hint_descriptor_reloads(self, capsys):
        # the hint holds the upper root of X^2 + 2 and reaches into the
        # isolating box of the lower one; the descriptor names the
        # isolating box, and as a hint it gives the same run back
        argv = ("census", "--min-poly", "2,0,1", "--nmax", "6", "--kbound", "2")
        code, out, _ = run(capsys, *argv, "--root-hint=-1/2,1/2,-4/3,2")
        assert code == 0
        hint = json.loads(out)["field"]["root_hint"]
        assert hint == {"re": ["0", "0"], "im": ["21/16", "3/2"]}
        code, again, _ = run(capsys, *argv, "--root-hint", ",".join(hint["re"] + hint["im"]))
        assert code == 0 and again == out


class TestTransfer:
    def test_constant_four_to_other_root(self, capsys):
        tup = json.dumps(
            {"field": SQRT2_FIELD, "generator": ["0", "1"], "multipliers": [1, 1, 1, 1]}
        )
        code, out, _ = run(
            capsys, "transfer", "--tuple", tup, "--target-index", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["epsilon"] == -1
        assert doc["tuple"]["multipliers"] == [1, 1, 1, 1]
        # the carried root hint now brackets the negative square root
        hi = doc["tuple"]["field"]["root_hint"]["re"][1]
        assert json.loads(json.dumps(hi)) == hi and hi.startswith("-")

    def test_non_quiddity_exits_two(self, capsys):
        tup = json.dumps(
            {"field": SQRT2_FIELD, "generator": ["0", "1"], "multipliers": [1, 2, 3]}
        )
        code, _, err = run(capsys, "transfer", "--tuple", tup, "--target-index", "0")
        assert code == 2
        assert json.loads(err)["error"] == "NotAQuiddity"


class TestParity:
    def test_eighth_root(self, capsys):
        code, out, _ = run(
            capsys,
            "parity",
            "--min-poly", "1,0,0,0,1",
            "--root-hint", "0,1,0,1",
            "--nmax", "5",
            "--kbound", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["odd_members"] == []
        assert doc["counts"]["2"] == 1


@pytest.mark.parametrize("command", ["enumerate", "census", "parity"])
def test_cache_dir_is_refused(capsys, tmp_path, command):
    # every census is computed; no file is read back into a report
    argv = [
        command, "--min-poly", "-2,0,1", "--root-hint", "1,2",
        "--nmax", "5", "--kbound", "1", "--cache-dir", str(tmp_path),
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("classify",),
        ("enumerate", "--nmax", "3", "--kbound", "1"),
        ("census", "--nmax", "3", "--kbound", "1"),
        ("parity", "--nmax", "3", "--kbound", "1"),
        ("classify", "--root-hint", "1,2"),
    ],
    ids=["classify", "enumerate", "census", "parity", "hint-only"],
)
def test_field_command_without_a_field_exits_two(capsys, argv):
    # with neither --min-poly nor --int there is no generator to work on
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "need --min-poly" in doc["message"]


class TestPolycrit:
    def test_quintic_report(self, capsys):
        code, out, _ = run(
            capsys,
            "polycrit",
            "--poly", "5,0,0,5,10,1",
            "--radius", "2",
            "--dominant", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["eisenstein_prime"] == 5
        assert doc["irreducible"]["status"] == "Proven"
        assert doc["disk_count"]["count"] == 4
        assert doc["dominant_term_count"]["count"] == 4

    def test_septic_osada(self, capsys):
        code, out, _ = run(
            capsys, "polycrit", "--poly", "11,1,-1,2,0,0,5,1", "--dominant", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["osada_prime"] == 11
        assert doc["dominant_term_count"]["count"] == 6

    def test_degenerate_chain_counts(self, capsys):
        # |a0| = |an|: the chain at radius 1 degenerates at its first step
        code, out, _ = run(capsys, "polycrit", "--poly", "1,-8,-6,6,-8,-9,1", "--radius", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["disk_count"] == {"radius": "1", "count": 4, "boundary_clear": True}

    @pytest.mark.parametrize(
        "poly, index", [("1,3", "7"), ("1,1", "-1")], ids=["above", "below"]
    )
    def test_dominant_index_naming_no_term_exits_two(self, capsys, poly, index):
        code, out, err = run(capsys, "polycrit", "--poly", poly, "--dominant", index)
        assert (code, out) == (2, "")
        assert "names no term" in json.loads(err)["message"]

    def test_pseudoprime_constant_term_proves_nothing(self, capsys):
        # (X^2 + X + 399165290221)(X^2 + X + 798330580441): its constant
        # term is a strong pseudoprime to the bases 2..37
        poly = "318665857834031151167461,1197495870662,1197495870663,2,1"
        code, out, _ = run(capsys, "polycrit", "--poly", poly)
        assert code == 0
        doc = json.loads(out)
        assert doc["irreducible"]["status"] == "Unknown" and doc["osada_prime"] is None
        code, out, err = run(
            capsys, "classify", "--min-poly", poly, "--root-hint", "-1,0,600000,700000"
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "NotIrreducible"

    def test_bad_poly_exits_two(self, capsys):
        code, _, err = run(capsys, "polycrit", "--poly", "1,junk")
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [("classify", "--min-poly", "1,,1"), ("polycrit", "--poly", "1,,0,1")],
    ids=["classify", "polycrit"],
)
def test_empty_coefficient_exits_two(capsys, argv):
    # dropping the empty token would read 1 + X and 1 + X^2
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "empty number" in json.loads(err)["message"]


# sha256 of stdout, recorded before the folds that kept every answer the
# same; a refactor that changes one byte of these runs fails here
GOLDEN_STDOUT = [
    (
        ("census", "--int", "--nmax", "7", "--kbound", "2"),
        "9ef10c45ec454f58a0e65c6a599e8b1b99e3d6b8590116bff087dcd4c3d32637",
    ),
    (
        ("census", "--min-poly", "2,-2,1", "--root-hint", "1/2,3/2,1/2,3/2",
         "--nmax", "6", "--kbound", "2"),
        "4168336c2d500a240b280f09dd1c01d94768fc75cd9ad61d56f4ea07b86a0793",
    ),
    (
        ("parity", "--min-poly", "1,0,0,0,1", "--root-hint", "0,1,0,1",
         "--nmax", "6", "--kbound", "2"),
        "9ffe299bc3b88474e347288e3700e60f4be7acfb8dc1e74532228cd89104ca2c",
    ),
    (
        ("polycrit", "--poly", "1,2,3,2,1", "--radius", "1"),
        "4129e0b1e45421eb78e0a11fff32e94a4cc92454378f0822c7c00676ff9c3d17",
    ),
    (
        ("polycrit", "--poly", "5,0,0,5,10,1", "--radius", "2", "--dominant", "4"),
        "7e2265f93397519c89f3ff8f7ed3cee50160969f4d3d893a068dc35c392639f8",
    ),
    (
        # no rational root, and a root mod every prime: settled by isolation
        ("polycrit", "--poly=-36,0,36,0,-11,0,1", "--radius", "1"),
        "68013366e7bd09fa73b306eb38770de127d196768b8c776034d00c0e557d3cdc",
    ),
    (
        # (30030X - 1)(X^3 + X + 1): the root's denominator is the
        # product of the six smallest primes
        ("polycrit", "--poly=-1,30029,30030,-1,30030", "--radius", "1"),
        "ce1875bee78a35ff51d826fe20c79388129af8c2b8c3bcbbb6133bc0ca8462dc",
    ),
    (
        ("verify", "rouche-examples", "--json"),
        "8e98b2d7f122a7743a051d9b254137515741912f1cc91494765b799cdf74cfc8",
    ),
    # censuses over generators that are not algebraic integers, and the
    # integers at a bound where most hits hold their least entry twice
    (
        ("census", "--min-poly=-1/2,1", "--nmax", "8", "--kbound", "3"),
        "290e421442c8c968949e7c06734119558d105c9cafc685e1974f94ebac103912",
    ),
    (
        ("census", "--min-poly", "1/2,-1,1", "--root-hint", "0,1,0,1",
         "--nmax", "7", "--kbound", "2"),
        "f77cff07246fe5b42f9b9eac072e31c01f633d6ef59b93f19ec0f6111726e1e5",
    ),
    (
        ("census", "--int", "--nmax", "9", "--kbound", "3"),
        "70be7443e4b5bc6409f6ce05f3cf7a1d844436013518a03af583128c30732832",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_STDOUT, ids=[" ".join(argv) for argv, _ in GOLDEN_STDOUT]
)
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
