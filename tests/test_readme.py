"""The README's examples run, as written, against the package, and its
module map names every module by its public names alone."""

import json
import re
import shlex
from pathlib import Path

import dohazard as dh
from dohazard import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def fenced_blocks(language: str) -> list:
    """The source of each fenced block of the README in language ('' for
    a bare fence), in order."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    return [source for info, source in blocks if info == language]


def python_blocks() -> list:
    """The source of each python block of the README, in order."""
    return fenced_blocks("python")


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) == 2  # backdoor quick start, then frontdoor; the second reuses the first's import
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        assert isinstance(namespace["rr"], dh.CausalEstimate)


def module_map() -> dict:
    """The module map's rows, as {module: description}."""
    section = README.read_text(encoding="utf-8").split("\n## Module map\n", 1)[1]
    rows = re.findall(r"^\| `dohazard\.(\w+)` \| (.*) \|$", section, re.M)
    assert len(rows) == len(dict(rows)), "a module has two rows"
    return dict(rows)


def test_the_module_map_has_one_row_per_module():
    modules = {path.stem for path in (ROOT / "src" / "dohazard").glob("*.py")} - {"__init__"}
    assert set(module_map()) == modules


def test_the_module_map_names_no_private_name():
    # the how of a private helper belongs in its docstring, not in the README
    private = [
        (module, token)
        for module, description in module_map().items()
        for token in re.findall(r"`([^`]*)`", description)
        if any(part.startswith("_") for part in re.findall(r"[A-Za-z_]\w*", token))
    ]
    assert not private, private


def test_readme_command_lines_parse():
    [usage] = [block for block in fenced_blocks("") if block.startswith("dohazard ")]
    lines = usage.splitlines()
    assert len(lines) == 6  # one per subcommand
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        argv = shlex.split(line.split("#")[0])
        assert argv[0] == "dohazard"
        argv = [re.sub(r"^<(.+)>$", r"\1", arg) for arg in argv[1:]]  # <cohort.csv>: a file name
        commands.add(parser.parse_args(argv).command)
    assert len(commands) == 6


def test_readme_configs_load():
    scenario, experiment = fenced_blocks("json")
    loaded = dh.ScenarioConfig.from_dict(json.loads(scenario))
    experiment = experiment.replace("{ ... as above ... }", scenario.strip())
    assert cli.ExperimentConfig.from_dict(json.loads(experiment)).scenario == loaded
