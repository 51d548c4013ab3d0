"""`tools/mutants.py` stays applicable: each mutant's snippet occurs exactly
once in its module and each test it names exists, so a refactor has to
carry its mutants along.  The harness itself runs outside Tier-1."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_snippet_occurs_once_and_each_named_test_exists(mutant):
    text = (mutants.PACKAGE / mutant.module).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text()
