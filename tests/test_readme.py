"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_tour_runs_as_written():
    """The one python block of README.md runs in a fresh namespace."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
