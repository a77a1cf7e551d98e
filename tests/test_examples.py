"""The examples run.

Each ``examples/*.py`` is executed as ``python examples/<name>.py`` would
(``runpy``, ``__name__ == "__main__"``): the README points users at them,
and the reachability gate counts them as entry points, so "reached" has to
mean "runs".
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples")
                  .glob("*.py"))


def test_the_glob_finds_the_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_clean(path, capsys):
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exit_:
        assert not exit_.code, f"{path.name} exited {exit_.code!r}"
    assert capsys.readouterr().out.strip()
