"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    [example] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)
    exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.startswith("True ")  # picard_solve converged
