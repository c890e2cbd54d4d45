"""The README's quick-start examples must run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order(capsys):
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert capsys.readouterr().out
