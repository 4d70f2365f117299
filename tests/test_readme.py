"""The README's library example runs as written, and its Configuration
table lists exactly the config keys, so neither can rot unseen."""

import re
from pathlib import Path

import numpy as np

from skipcast import config

README = Path(__file__).resolve().parent.parent / "README.md"


def section(heading: str) -> str:
    """The README text from the heading `heading` to the next `## ` heading."""
    text = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return text.split("\n## ", 1)[0]


def section_code(heading: str) -> str:
    """The first python code block under the README heading `heading`."""
    return re.search(r"```python\n(.*?)```", section(heading), re.DOTALL).group(1)


def test_library_use_runs():
    names: dict = {}
    exec(compile(section_code("Library use"), f"{README} (Library use)", "exec"), names)
    matrix, scores = names["matrix"], names["scores"]
    assert matrix.shape == (len(names["table"]), 10)
    assert scores.shape == (len(names["table"]),)
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert set(np.unique(names["decisions"])) <= {0, 1}


def test_configuration_table_lists_every_key():
    rows = [line for line in section("Configuration").splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted([*config._KEYS, "lambda"])
