"""The package's import layering, and the names the benchmark looks up.

The estimators read cohorts through ``dohazard.cohort`` and JSON files
through ``dohazard._json``, so they do not import the simulator. The
benchmark under ``perfbench/`` imports dohazard names and wraps functions
where the CLI looks them up; a name it needs that went missing would break
only the benchmark, so each one is checked here, and so is a span from each
estimate layer it times. No package module keeps
an import it does not use, so a moved or deleted name leaves no stray
import behind, and the package exports no name that only the tests use.
Every subcommand runs with numpy as the only third-party package.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dohazard
from dohazard import cli

from conftest import make_backdoor_config, make_frontdoor_config
from test_readme import python_blocks

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dohazard"


def imports(path):
    """(module, name) for every import in a file, relative imports resolved
    against dohazard; name is None for a plain import statement."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["dohazard" if node.level else None, node.module]))
            for alias in node.names:
                if module == "dohazard" and (PACKAGE / f"{alias.name}.py").exists():
                    yield f"dohazard.{alias.name}", None  # from . import <module>
                else:
                    yield module, alias.name


@pytest.mark.parametrize("module", ["cohort", "_json", "cox", "backdoor", "frontdoor"])
def test_estimators_and_cohort_io_do_not_import_the_simulator(module):
    assert "dohazard.simulate" not in {m for m, _ in imports(PACKAGE / f"{module}.py")}


@pytest.mark.parametrize("module", ["cox", "cli"])
def test_no_private_name_is_imported_from_the_simulator(module):
    names = [name for m, name in imports(PACKAGE / f"{module}.py") if m == "dohazard.simulate"]
    assert not [name for name in names if name.startswith("_")]


def test_the_simulator_does_no_file_io():
    modules = {m for m, _ in imports(PACKAGE / "simulate.py")}
    assert modules.isdisjoint({"csv", "json", "zipfile", "hashlib"})


def test_one_json_writer_and_one_block_size():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert [name for name, text in sources.items() if "json.dump" in text] == ["_json.py"]
    assert [name for name, text in sources.items() if "\n_BLOCK = " in text] == ["stats.py"]


def test_every_dohazard_name_the_benchmark_imports_exists():
    wanted = [
        (module, name)
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for module, name in imports(path)
        if module.startswith("dohazard")
    ]
    assert ("dohazard.simulate", "load_dataset") in wanted
    for module, name in wanted:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), f"{module}.{name}"


# Each subcommand through dohazard.cli.main, from a fresh interpreter in
# which any scipy import fails; prints each command's exit code.
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
from dohazard import cli
for argv in (
    ["simulate", "backdoor.json", "--out", "backdoor.csv"],
    ["simulate", "frontdoor.json", "--out", "frontdoor.csv"],
    ["fit", "backdoor.csv", "--out", "fit.json"],
    ["backdoor", "backdoor.csv", "--fit", "fit.json", "--contrast", "1,0", "--t", "10", "--out", "backdoor_rr.json"],
    ["frontdoor", "frontdoor.csv", "--contrast", "1,0", "--t", "10", "--out", "frontdoor_rr.json"],
    ["oracle", "backdoor.json", "--x", "1", "--x0", "0", "--n", "5000", "--out", "oracle.json"],
    ["experiment", "backdoor_experiment.json", "--out-dir", "backdoor_experiment"],
    ["experiment", "frontdoor_experiment.json", "--out-dir", "frontdoor_experiment"],
):
    print(argv[0], cli.main([*argv, "--quiet"]))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    for config in (make_backdoor_config(n_subjects=3_000), make_frontdoor_config(n_subjects=3_000)):
        experiment = {"scenario": config.to_dict(), "contrasts": [[1, 0]], "horizon_grid": [10], "oracle_n": 5_000}
        (tmp_path / f"{config.dag_kind}.json").write_text(json.dumps(config.to_dict()))
        (tmp_path / f"{config.dag_kind}_experiment.json").write_text(json.dumps(experiment))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    commands = ["simulate", "simulate", "fit", "backdoor", "frontdoor", "oracle", "experiment", "experiment"]
    assert proc.stdout.splitlines() == [f"{command} 0" for command in commands]


@pytest.fixture()
def spans(monkeypatch):
    """perfbench/spans.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_function_the_benchmark_wraps_exists(spans):
    table = spans._patch_table(spans.Tracer())
    assert (cli, "load_dataset") in [(owner, attr) for owner, attr, *_ in table]
    for owner, attr, *_ in table:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"


def test_every_estimate_layer_the_benchmark_times_records_spans(spans, tmp_path):
    # a wrapper sees only the calls made through the name it replaces, so an
    # estimator called some other way would leave its layer reading zero
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for config in (make_backdoor_config(n_subjects=2_000), make_frontdoor_config(n_subjects=2_000)):
            experiment = {"scenario": config.to_dict(), "contrasts": [[1, 0]], "horizon_grid": [10], "oracle_n": 5_000}
            path = tmp_path / "experiment.json"
            path.write_text(json.dumps(experiment))
            assert cli.main(["experiment", str(path), "--out-dir", str(tmp_path / config.dag_kind), "--quiet"]) == 0
    recorded = {span.name for span in tracer.spans}
    layers = {"cox.fit", "backdoor.compute_az", "backdoor.estimate", "frontdoor.params", "frontdoor.estimate"}
    assert layers <= recorded, sorted(layers - recorded)


# Imported names a module keeps without using them, each with its reason.
UNUSED_IMPORTS_ALLOWED = {
    # perfbench/workloads.py reads saved cohorts back through the simulator
    ("simulate", "load_dataset"),
}


def unused_imports(path):
    """Names a module imports at top level and never uses. A name listed in
    the module's __all__ counts as used, so re-exports are not unused."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path) if (path.stem, name) not in UNUSED_IMPORTS_ALLOWED]
    assert not unused, f"{path.name} imports {unused} without using them"


# Exported names that no package module and no python block of the README
# uses, each with its reason.
EXPORTS_ALLOWED_UNUSED = {
    # the unadjusted comparator of acceptance criteria 2 and 4, kept public
    # while the experiment may still report it (ROADMAP item 6)
    "naive_rr",
}


def test_every_export_is_used_by_the_package_or_the_readme():
    # a public name that only the tests reach belongs with the tests
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for source in sources + python_blocks()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = sorted(set(dohazard.__all__) - used - EXPORTS_ALLOWED_UNUSED)
    assert not unused, f"exported but used by no package module and no README block: {unused}"
