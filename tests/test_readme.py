"""The README's Python quick start runs, as written, against the package."""

import re
from pathlib import Path

import dohazard as dh

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list:
    """The source of each python block of the README, in order."""
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) == 2  # backdoor quick start, then frontdoor; the second reuses the first's import
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        assert isinstance(namespace["rr"], dh.CausalEstimate)
