"""The python examples in README.md run against the library as it is."""

from __future__ import annotations

import pathlib
import re

import bfly.phases

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 2
    # an example may register a phase; keep it out of the other tests
    monkeypatch.setattr(bfly.phases, "REGISTRY", dict(bfly.phases.REGISTRY))
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": f"readme_block_{i}"})
