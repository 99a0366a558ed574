"""Guards on the package source and smoke runs of the README scripts."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import quiddity

SRC = pathlib.Path(quiddity.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check inside one proves
    # nothing in an optimized run
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_resultant_route_stays_an_oracle():
    # the resultant route checks equality verdicts from outside; a module
    # that used it would no longer be checked independently
    oracle = {"composed_product", "resultant", "lagrange_interpolate"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "polynomials"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id in oracle)
        or (isinstance(node, ast.Attribute) and node.attr in oracle)
        or (isinstance(node, ast.alias) and node.name in oracle)
    ]
    assert found == []


def test_taylor_expansion_stays_out_of_the_hot_path():
    # Newton reads p(z) and p'(z) off one integer Horner pass and the disk
    # counts recentre on their own integers; the full Taylor expansion at
    # a disk serves only the tests and the benchmark's layer timing
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "polynomials"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "qpoly_at_disk")
        or (isinstance(node, ast.Attribute) and node.attr == "qpoly_at_disk")
        or (isinstance(node, ast.alias) and node.name == "qpoly_at_disk")
    ]
    assert found == []


def test_no_unused_imports():
    # __init__.py imports to re-export; any other module or script that
    # imports a name it never uses keeps a dead dependency
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.parent.name}/{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used
        ]
    assert found == []


def _dead_locals(tree):
    # (line, name) for each name a function binds in its own scope and
    # never reads, nested scopes included; a name read only by its own
    # augmented assignment is dead too, and names starting with _ are exempt
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(fn))
        kept = {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        kept |= {x for n in nodes if isinstance(n, (ast.Global, ast.Nonlocal)) for x in n.names}
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id not in kept and not node.id.startswith("_"):
                    found.append((node.lineno, node.id))
            todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_no_dead_locals():
    # a local that is assigned and never read is dead code, and it keeps
    # alive whatever it names, which test_no_unused_imports then misses
    planted = "def main(field, w, ks):\n    t = QuiddityTuple(field, w, ks)\n    return ks\n"
    assert _dead_locals(ast.parse(planted)) == [(2, "t")]
    found = [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for folder in (SRC, SCRIPTS, TESTS)
        for path in sorted(folder.glob("*.py"))
        for line, name in _dead_locals(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _kernel_defs():
    # the top-level definitions of core.py that make up the word kernel:
    # the class and every helper it names
    top = {}
    for node in ast.parse((SRC / "core.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top[node.name] = node
        elif isinstance(node, ast.Assign):
            top.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    found, todo = {}, ["_WordKernel"]
    while todo:
        name = todo.pop()
        if name in found:
            continue
        found[name] = top[name]
        todo += [
            node.id
            for node in ast.walk(top[name])
            if isinstance(node, ast.Name) and node.id in top and node.id.startswith("_")
        ]
    return found


def _kernel_names():
    # every name of the kernel: its definitions and the kernel's methods
    defs = _kernel_defs()
    methods = {
        node.name
        for node in defs["_WordKernel"].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    }
    return set(defs) | methods


def test_kernel_names_are_complete():
    # a kernel name missing here would let the oracles call it unseen
    assert _kernel_names() == {
        "_WordKernel",
        "_bits",
        "_fit",
        "step",
        "product",
        "identity_sign",
        "inverse_keys",
        "forced",
        "_multiple",
        "words",
    }


def test_inverse_keys_divide_nothing():
    # a suffix one entry shorter than its prefix meets it on d times its
    # held matrix, so the keys are the signed adjugates alone: no loop
    # over digits and no division
    method = next(
        node
        for node in _kernel_defs()["_WordKernel"].body
        if isinstance(node, ast.FunctionDef) and node.name == "inverse_keys"
    )
    found = [
        f"core.py:{node.lineno}"
        for node in ast.walk(method)
        if isinstance(
            node, (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        )
        or (
            isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, (ast.FloorDiv, ast.Div, ast.Mod))
        )
    ]
    assert [arg.arg for arg in method.args.args] == ["self", "m"] and found == []


def _class_stores(tree):
    # lines that set or delete an attribute of the kernel class itself,
    # directly or by setattr
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
            and node.value.id == "_WordKernel"
        )
        or (
            _calls(node, {"setattr", "delattr"})
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "_WordKernel"
        )
    ]


def test_kernel_is_stateless():
    # only __init__ sets what a kernel holds, and nothing sets what the
    # class holds, so no call can change what a later call computes
    planted = "def pick(w, k):\n    _WordKernel.held = (w, k)\n    setattr(_WordKernel, 'held', k)\n"
    assert _class_stores(ast.parse(planted)) == [2, 3]
    kernel = _kernel_defs()["_WordKernel"]
    found = [
        f"core.py:{node.lineno} {method.name}"
        for method in kernel.body
        if isinstance(method, ast.FunctionDef) and method.name != "__init__"
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ]
    found += [
        f"{path.name}:{line} _WordKernel"
        for path in sorted(SRC.glob("*.py"))
        for line in _class_stores(ast.parse(path.read_text(), filename=str(path)))
    ]
    # the class body assigns its __slots__ and nothing else
    found += [
        f"core.py:{node.lineno} class attribute"
        for node in kernel.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and ast.unparse(node.targets[0] if isinstance(node, ast.Assign) else node.target)
        != "__slots__"
    ]
    assert found == []


def test_kernel_has_no_fraction():
    # the kernel runs on ints alone, whatever the generator
    found = [
        f"core.py:{node.lineno}"
        for top in _kernel_defs().values()
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    ]
    assert found == []


def _uses(module, names, used):
    # lines inside the named top-level definitions that name any of used
    tree = ast.parse((SRC / module).read_text())
    defs = [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
    ]
    assert {node.name for node in defs} == set(names)
    return [
        f"{module}:{node.lineno}"
        for top in defs
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id in used)
        or (isinstance(node, ast.Attribute) and node.attr in used)
        or (isinstance(node, ast.alias) and node.name in used)
    ]


def test_brute_force_walk_stays_independent():
    # the walk is the oracle for the word kernel; one that used the
    # kernel would agree with it by construction
    assert _uses("core.py", {"brute_force_quiddities"}, _kernel_names()) == []


def test_certificate_route_stays_independent():
    # every witness the kernel's scan finds is replayed on the Mat2 route,
    # and the brute-force reduction checks that scan; a replay that ran on
    # the kernel would certify the kernel by itself
    route = {
        "Mat2",
        "e_matrix",
        "e_times",
        "times_e",
        "m_product_entries",
        "m_product",
        "is_quiddity",
    }
    assert _uses("core.py", route, _kernel_names()) == []
    replay = {"witness_replay", "brute_force_reduction"}
    assert _uses("reducibility.py", replay, _kernel_names()) == []
    # the field arithmetic under the Mat2 route packs nothing either
    assert _uses("numfield.py", {"FieldElement", "_element"}, _kernel_names()) == []


def test_field_product_has_no_fraction():
    # a product of field elements runs on integer numerators alone, and
    # so does the constructor it returns through; the Fraction product
    # it replaced is the oracle in the tests
    tree = ast.parse((SRC / "numfield.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FieldElement")
    product = [
        node
        for node in (*cls.body, *tree.body)
        if isinstance(node, ast.FunctionDef) and node.name in ("__mul__", "_element")
    ]
    assert len(product) == 2
    found = [
        f"numfield.py:{node.lineno}"
        for top in product
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    ]
    assert found == []


def test_field_elements_hold_one_representation():
    # a field element is its integer numerators over one denominator from
    # end to end: only the constructor and the views that answer in
    # Fractions (coords, rational_value and the repr) build a Fraction or
    # read coords, and the embedding reads the numerators too
    tree = ast.parse((SRC / "numfield.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FieldElement")
    views = {"__init__", "coords", "rational_value", "__repr__"}
    methods = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name not in views]
    embedding = [
        n for n in tree.body
        if isinstance(n, ast.FunctionDef) and n.name in ("embed", "_compare_refined")
    ]
    assert {"min_poly_over_Q", "inverse", "__mul__"} <= {n.name for n in methods}
    assert len(embedding) == 2
    found = [
        f"numfield.py:{node.lineno}"
        for top in methods
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ] + [
        f"numfield.py:{node.lineno}"
        for top in methods + embedding
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "coords"
    ]
    assert found == []


def test_value_types_write_no_equality_or_guard():
    # the value types are frozen dataclasses, which derive equality, the
    # hash and the refusal to assign from the fields they declare
    generated = {"__eq__", "__hash__", "__setattr__"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if (isinstance(node, ast.FunctionDef) and node.name in generated)
        or (isinstance(node, ast.Assign) and any(getattr(t, "id", None) in generated for t in node.targets))
    ]
    assert found == []


def test_searches_run_on_the_kernel():
    # the searches run on the word kernel alone and the Mat2 route only
    # certifies their results; a search that multiplied out a word there
    # would be a second search path, for w = 0 or any other generator
    route = {"Mat2", "is_quiddity", "m_product", "m_product_entries", "e_times", "times_e"}
    assert _uses("classify.py", {"enumerate_quiddities"}, route) == []
    assert _uses("reducibility.py", {"find_reduction"}, route) == []


def test_modp_layer_has_no_fraction():
    # the root sieve and the Frobenius chain run on ints mod p alone
    layer = {
        "_has_root_mod", "_rootless_primes", "_rem_mod", "_polmul_mod", "_polgcd_mod",
        "_frobenius_rows", "_frobenius_step", "modp_irreducible",
    }
    assert _uses("polycrit.py", layer, {"Fraction"}) == []


def test_quadtree_cells_have_no_fraction():
    # cells, their disk counts and their components run on ints; the
    # Fraction and rectangle arithmetic they replaced is the oracle
    cells = {"_split4", "_components", "_hull"}
    used = {"Fraction", "BoxC", "GaussRat", "int_coeffs"}
    counts = {"_disk_count", "_pellet", "_ceil_sqrt"}
    assert _uses("numfield.py", cells, used) + _uses("polycrit.py", counts, used) == []
    # the root enclosures that answer the counts run on no floating point
    # either, nor does the count read off them
    enclosures = {"root_enclosures", "_smith_disks", "_horner"}
    floats = used | {"float", "complex", "cmath", "cos", "sin", "pi"}
    assert _uses("numfield.py", enclosures | {"_enclosure_count"}, floats) == []


def test_enclosures_live_in_numfield_alone():
    # numfield produces, doubles and reads the enclosure disks; polycrit
    # keeps the irreducibility certificates and the disk counts, and
    # numfield takes from it only Pellet's test, its square root bound and
    # the irreducibility side
    enclosures = {"root_enclosures", "_smith_disks", "_horner"}
    named = [
        f"polycrit.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "polycrit.py").read_text()))
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in enclosures)
        or (isinstance(node, ast.Name) and node.id in enclosures)
        or (isinstance(node, ast.Attribute) and node.attr in enclosures)
    ]
    assert named == []
    imported = {
        alias.name
        for node in ast.parse((SRC / "numfield.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.module == "polycrit"
        for alias in node.names
    }
    assert imported == {"_ceil_sqrt", "_pellet", "_trial_division", "irreducible_over_Q"}


def test_quadtree_counts_come_from_the_enclosures_alone():
    # every count of the isolation quadtree is read off the root
    # enclosures; a strict count there would be a second count path, one
    # that the enclosures on a finer grid make unnecessary
    quadtree = {"_cell_excluded", "_holds_one", "_upper_half_roots", "_regrid"}
    strict = {"_disk_count", "gauss_disk_count_strict", "_chain"}
    assert _uses("numfield.py", quadtree, strict) == []


def test_numfield_names_no_schur_cohn_count():
    # Pellet's test alone certifies Newton's disks and the enclosures count
    # the quadtree's cells, so numfield, imports included, names no part of
    # the Schur-Cohn count; and the isolation stops at the limit that the
    # separation bound sets, not at embed's cap on its rounds
    strict = {
        "_chain", "_count", "_disk_count", "_disk_holds_one", "gauss_disk_count_strict",
        "schur_cohn_count",
    }
    found = [
        f"numfield.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "numfield.py").read_text()))
        if (isinstance(node, ast.Name) and node.id in strict)
        or (isinstance(node, ast.Attribute) and node.attr in strict)
        or (isinstance(node, ast.alias) and node.name in strict)
    ]
    assert found == []
    assert _uses("numfield.py", {"_upper_half_roots"}, {"_MAX_DEPTH"}) == []


def test_zero_bound_reads_the_minimal_polynomial_alone():
    # the gap is built from m_x's Cauchy bound, so a comparison refines
    # the compared root alone and embeds no conjugate
    assert _uses("numfield.py", {"_compare_refined"}, {"embed"}) == []


def test_circle_multiplicities_need_no_squarefree_decomposition():
    # the degenerate Schur-Cohn branch counts the circle roots along a gcd
    # chain; Yun's split lives in the oracle alone, on its own gcd, so the
    # oracle's count shares no squarefree split with the one it checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "yun_decomposition"
        in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None))
    ]
    assert found == []
    oracle = ast.parse((TESTS / "fraction_oracle.py").read_text())
    yun = [n for n in oracle.body if isinstance(n, ast.FunctionDef) and n.name == "yun_decomposition"]
    assert len(yun) == 1
    assert not any(isinstance(n, ast.Attribute) and n.attr == "gcd" for n in ast.walk(yun[0]))


def _dedup_layer_uses(tree):
    """Lines of the tree that import from `quiddity.classify` or name the
    canonical form or the canonical-hit test."""
    named = {"canonical_multipliers", "_is_canonical_hit"}
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "quiddity.classify")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "classify" for a in node.names))
        or (isinstance(node, ast.Import) and any(a.name == "quiddity.classify" for a in node.names))
        or (isinstance(node, ast.Name) and node.id in named)
        or (isinstance(node, ast.Attribute) and node.attr in named)
        or (isinstance(node, ast.alias) and node.name in named)
    ]


def test_orbit_oracle_stays_out_of_the_dedup_layer():
    # the word counts check the census's dedup, so they must not reach it
    planted = "from quiddity.classify import enumerate_quiddities\n"
    assert _dedup_layer_uses(ast.parse(planted)) == [1]
    assert _dedup_layer_uses(ast.parse((TESTS / "orbit_oracle.py").read_text())) == []


def test_one_dominance_test_in_polycrit():
    # T_0, the one-root test and the dominant-term count are all Pellet's
    # test; a second copy of its modulus bounds would be a second path
    tree = ast.parse((SRC / "polycrit.py").read_text())
    named = {
        getattr(top, "name", f"line {top.lineno}")
        for top in tree.body
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == "isqrt")
        or (isinstance(node, ast.Attribute) and node.attr == "isqrt")
        or (isinstance(node, ast.alias) and node.name == "isqrt")
    }
    assert named == {"_pellet", "_ceil_sqrt"}


def test_shared_brute_force_walks_stay_shared():
    # conftest.py builds the (6, 2) walks once per session; a test module
    # that built its own, directly or through a local wrapper, would run
    # the slowest oracle again
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        walkers = {"brute_force_quiddities"} | {
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(_calls(inner, {"brute_force_quiddities"}) for inner in ast.walk(node))
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _calls(node, walkers) and _bounds(node) == (6, 2)
        ]
    assert found == []


def test_enumeration_oracle_dedups_by_definition():
    # the brute-force oracle in test_classify.py takes the least dihedral
    # image itself; deduplicating with canonical_multipliers would check
    # the enumeration against the function it calls
    tree = ast.parse((ROOT / "tests" / "test_classify.py").read_text())
    (oracle,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "brute_canonical"
    ]
    nodes = list(ast.walk(oracle))
    assert any(_calls(node, {"dihedral_images"}) for node in nodes)
    assert not any(_calls(node, {"canonical_multipliers", "canonical_form"}) for node in nodes)


def _calls(node, names):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id in names) or (
        isinstance(func, ast.Attribute) and func.attr in names
    )


def _bounds(call):
    # (n_max, k_bound) when both are literals, positional after the
    # generator or by keyword
    named = {kw.arg: kw.value for kw in call.keywords}
    given = call.args[1:3]
    nodes = given + [named.get(k) for k in ("n_max", "k_bound")[len(given):]]
    if all(isinstance(n, ast.Constant) for n in nodes):
        return tuple(n.value for n in nodes)
    return None


def test_verify_suite_passes_optimized():
    # covers the enumeration re-check and the witness replay with asserts off
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "quiddity.cli", "verify", "integer-irreducibles"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAIL" not in done.stdout


def test_package_import_leaves_out_the_command_line():
    # the benchmark imports the package from source on every run, so code
    # only the command line uses stays off that path
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, quiddity; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(ast.literal_eval(done.stdout))
    assert "quiddity" in loaded
    assert not {"quiddity.cli", "quiddity.verify"} & loaded


def _module_constant(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_benchmark_hooks_resolve():
    # the traced benchmark patches these names by lookup, so a deleted or
    # renamed one would break only `--trace 1`; the files are parsed, not
    # imported, so nothing is written under perfbench/
    layers = ast.parse((PERFBENCH / "layers.py").read_text())
    for _, module, name in _module_constant(layers, "_FUNCTIONS"):
        assert callable(getattr(importlib.import_module(module), name)), (module, name)
    for _, module, cls, methods, _ in _module_constant(layers, "_METHODS"):
        owner = getattr(importlib.import_module(module), cls)
        for method in methods:
            assert callable(getattr(owner, method)), (cls, method)
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = {
        node.attr
        for node in ast.walk(workloads)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "Q"
    }
    assert used
    missing = sorted(name for name in used if not hasattr(quiddity, name))
    assert missing == []
    assert callable(importlib.import_module("quiddity.polynomials").GaussRat.of)


def test_benchmark_trajectory_files_parse():
    # each BENCH_<n>.json holds the result lines of perfbench/run.py for
    # every workload, so the trajectory can be read back across changes
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        runs = json.loads(path.read_text())["workloads"]
        assert {"census", "roots", "polycrit"} <= set(runs), path.name
        for workload, sides in runs.items():
            for side in ("parent", "change"):
                assert "wall_s" in sides[side]["metrics"], (path.name, workload, side)


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


def test_census_demo_runs():
    lines = _run_script("census_demo.py", "--generator", "sqrt2", "--nmax", "5", "--kbound", "2")
    assert "  (1, 1, 1, 1)  sign -1" in lines


def test_classify_gallery_runs():
    lines = _run_script("classify_gallery.py")
    assert any(line.split() == ["sqrt2", "SqrtKFamily", "[k=2]"] for line in lines)


def test_readme_library_quickstart_runs():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library quickstart"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("\n```", start)]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "SqrtKFamily" in done.stdout
