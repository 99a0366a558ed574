"""Guards on the package source: certificates never rest on `assert`."""

import ast
import os
import pathlib
import subprocess
import sys

import quiddity

SRC = pathlib.Path(quiddity.__file__).parent


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
