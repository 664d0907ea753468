"""The README's library example runs against the current API, and its
configuration block lists the config keys."""

import re
from dataclasses import fields
from pathlib import Path

from mildns import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    [example] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)
    exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.startswith("True ")  # picard_solve converged


def test_config_block_lists_every_key_in_order():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration files"):]
    [block] = re.findall(r"^```\n(.*?)^```", section, re.MULTILINE | re.DOTALL)[:1]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()]
    assert keys == [f.name for f in fields(ExperimentConfig)]
