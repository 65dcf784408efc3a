"""The oracle's and the CSV formatter's tests at numpy's AVX2 dispatch level.

Both are exact only where their numpy loops give the same bits in every
call: the oracle forms the subjects at a band's edge again, which needs
exp, log1p and power to give an element the same bits in a whole block
and in a subset; save_dataset writes %.17g's digits from IEEE multiply,
add and rint alone, and takes log10 only as an estimate it checks. Each
test reruns those tests in a fresh interpreter with numpy's AVX512 targets
disabled, where its SIMD loops differ, and is skipped where numpy takes
none of them. CI's steps of the same names run these tests. The
formatter's rerun selects its tests by name, and a check here keeps that
selection whole.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from _pytest.mark.expression import Expression  # what pytest's -k compiles

from pinned import AVX512_TARGETS, takes_avx512, toolchain

ROOT = Path(__file__).resolve().parents[1]

# The tests of tests/test_simulate.py that the formatter's rerun selects,
# as pytest's -k expression
FORMATTER_TESTS = "save or percent or format"

# pytest on the arguments, then the toolchain line of the same interpreter
PYTEST_THEN_TOOLCHAIN = """
import sys
import pytest
code = pytest.main(sys.argv[1:])
from pinned import toolchain
print(toolchain())
sys.exit(code)
"""


def pytest_without_avx512(*args) -> None:
    """Run pytest -q on args from the repository's root in a fresh
    interpreter with numpy's AVX512 targets disabled, and require that it
    passes there and that numpy took none of them."""
    if not takes_avx512(toolchain()):
        pytest.skip(f"numpy takes none of {AVX512_TARGETS} on this CPU")
    env = dict(
        os.environ,
        PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'tests'}",
        NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS),
    )
    proc = subprocess.run(
        [sys.executable, "-c", PYTEST_THEN_TOOLCHAIN, "-q", "-p", "no:cacheprovider", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-6000:] + proc.stderr[-2000:]
    assert "AVX512 loops not dispatched" in proc.stdout.splitlines()[-1], proc.stdout[-2000:]


def test_oracle_counts_at_numpys_avx2_level():
    pytest_without_avx512("tests/test_oracle.py")


def test_csv_formatter_at_numpys_avx2_level():
    pytest_without_avx512("tests/test_simulate.py", "-k", FORMATTER_TESTS)


def formatter_internals() -> set:
    """The module-level names of dohazard/cohort.py that _csv_rows reaches,
    itself included: the CSV formatter's functions and tables."""
    tree = ast.parse((ROOT / "src/dohazard/cohort.py").read_text())
    defined = {}  # each name a function or an assignment defines -> its node
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            names = [name.id for target in node.targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            defined.update(dict.fromkeys(names, node))
    reached, todo = set(), ["_csv_rows"]
    while todo:
        name = todo.pop()
        if name in defined and name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(defined[name]) if isinstance(node, ast.Name)]
    return reached


def test_the_formatter_rerun_selects_every_formatter_test():
    # a formatter test renamed outside FORMATTER_TESTS would drop out of the
    # AVX2 rerun without notice: every test that checks a save against the
    # percent template or names a formatter internal, as an attribute of
    # cohort or as a string to patch, must match it by its name
    names = formatter_internals() | {"assert_saved_as_percent_template"}
    selects = Expression.compile(FORMATTER_TESTS)
    tree = ast.parse((ROOT / "tests/test_simulate.py").read_text())
    tests = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]
    formatter_tests = [
        test.name for test in tests
        if names & {getattr(node, field, None) for node in ast.walk(test) for field in ("id", "attr", "value")}
    ]
    assert "test_save_matches_the_percent_template" in formatter_tests
    assert [name for name in formatter_tests if not selects.evaluate(lambda word: word.lower() in name.lower())] == []


@pytest.mark.parametrize(
    "name, test",
    [
        ("Oracle counts at numpy's AVX2 dispatch level", "test_oracle_counts_at_numpys_avx2_level"),
        ("CSV formatter at numpy's AVX2 dispatch level", "test_csv_formatter_at_numpys_avx2_level"),
    ],
    ids=["oracle", "formatter"],
)
def test_ci_runs_the_avx2_checks(name, test):
    # each AVX2 step of the workflow runs its test here, so CI and a local
    # run check the same
    workflow = (ROOT / ".github/workflows/tests.yml").read_text()
    steps = re.split(r"^      - ", workflow, flags=re.M)[1:]
    [step] = [step for step in steps if f"name: {name}" in step]
    assert f"tests/test_avx2.py::{test}" in step
