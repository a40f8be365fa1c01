"""README.md's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    # every ```python block, in order and in one namespace, so that a later
    # block can use what an earlier one built; padding keeps README line numbers
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        padding = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(padding + block.group(1), str(README), "exec"), namespace)
    assert capsys.readouterr().out
