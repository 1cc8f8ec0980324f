"""The README's python blocks run as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# each block's code, with its line numbers in the README kept for tracebacks
BLOCKS = [
    "\n" * TEXT.count("\n", 0, match.start(1)) + match.group(1)
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
