"""The python examples in README.md run against the library as it is."""

from __future__ import annotations

import pathlib
import re

import bfly.cli
import bfly.phases

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 2
    # an example may register a phase; keep it out of the other tests
    monkeypatch.setattr(bfly.phases, "REGISTRY", dict(bfly.phases.REGISTRY))
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": f"readme_block_{i}"})


def test_readme_cli_table_lists_every_key_and_default():
    # README's "Keys and defaults" table against the CLI's one table of
    # keys: the same keys in the same order, a literal default wherever the
    # CLI has one, and none where the key is required or its default
    # depends on the backend
    text = README.read_text()
    table = text[text.index("| key | default | meaning |") :].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    readme = {key.strip().strip("`"): default.strip() for key, default in rows}
    assert list(readme) == list(bfly.cli._KEYS)
    for key, (default, _) in bfly.cli._KEYS.items():
        if default is None:
            assert not readme[key].startswith("`"), key
        else:
            assert readme[key] == f"`{default}`", key
