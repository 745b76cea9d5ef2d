"""The mutation table of ``mutants.py`` stays in step with today's source."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    """A stale or ambiguous old text would mutate nothing, or the wrong place."""
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
