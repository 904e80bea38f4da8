"""Every ``python`` code block in README.md runs as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

with open(README, encoding="utf-8") as handle:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", handle.read(), flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {"__name__": "__readme__"})
