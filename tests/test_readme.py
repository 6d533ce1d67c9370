"""Every Python code block of README.md runs as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")

with open(README, encoding="utf-8") as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_python_block_runs(code):
    # each block in a namespace of its own, as a reader pastes it
    exec(compile(code, README, "exec"), {"__name__": "readme"})
