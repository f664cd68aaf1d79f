"""The README's library tour runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_tour(capsys):
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "(1, 2, 1, 0)" in out
    assert "infinite-dimensional" in out
