"""README's Python quick start runs as written against the current API."""

from pathlib import Path
import re

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_blocks() -> list[str]:
    text = README.read_text()
    start = text.index("## Quick start")
    section = text[start : text.index("\n## ", start + 1)]
    return re.findall(r"^```python\n(.*?)^```", section, flags=re.MULTILINE | re.DOTALL)


def test_quick_start_python_blocks_run(capsys):
    blocks = _quick_start_blocks()
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    ks = float(capsys.readouterr().out)
    assert 0.0 <= ks <= 0.05
