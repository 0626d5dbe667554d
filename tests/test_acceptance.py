"""End-to-end acceptance gate.

Runs every named verification experiment at its pinned tolerances and budget,
printing one pass/fail line per criterion (run pytest with -s to see them).
"""

import pytest

from roughpath import experiments


@pytest.mark.parametrize("name", experiments.CRITERIA_ORDER)
def test_criterion(name):
    result = experiments.run_criterion(name)
    print(experiments.format_result(result))
    assert result.runtime_s < result.budget_s, f"{name} exceeded its runtime budget"
    assert result.passed, experiments.format_result(result)


def test_unknown_criterion_is_a_key_error():
    with pytest.raises(KeyError, match="unknown criterion 'nope'"):
        experiments.run_criterion("nope")
