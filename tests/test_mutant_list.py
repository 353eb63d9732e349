"""The mutant list of ``tools/mutants.py`` keeps up with the code: every old text occurs
exactly once in its file, and names are unique.  A refactor that moves an anchored text
fails here in seconds, not only when the mutant suite runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once():
    tool = load_tool()
    assert tool.check(tool.MUTANTS) == []


def test_names_are_unique():
    names = [name for *_, name in load_tool().MUTANTS]
    assert len(names) == len(set(names))
