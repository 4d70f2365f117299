"""The README's library example runs as written, so it cannot rot unseen."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def section_code(heading: str) -> str:
    """The first python code block under the README heading `heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_runs():
    names: dict = {}
    exec(compile(section_code("Library use"), f"{README} (Library use)", "exec"), names)
    matrix, scores = names["matrix"], names["scores"]
    assert matrix.shape == (len(names["table"]), 10)
    assert scores.shape == (len(names["table"]),)
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert set(np.unique(names["decisions"])) <= {0, 1}
