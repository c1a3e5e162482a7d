"""The orbit-stabilizer identity on class lists past the generation cap.

The classes G of order n in a filter's class give sum n!/|Aut G|
labelled graphs.  These lists take seconds to tens of seconds to
generate, so the file name keeps them out of the default test run; run
them with ``python -m pytest tests/past_cap.py``.
"""

import pytest

from misbench import extremal

from oracles import LABELLED_COUNTS, labelled_total


@pytest.mark.parametrize(
    "n, filter_name, labelled",
    [(9, "none", 2**36), (11, "maxdeg3", 200_375_581_984), (11, "both", 200_297_442_604)],
)
def test_classes_sum_to_labelled_count_past_the_cap(monkeypatch, n, filter_name, labelled):
    assert LABELLED_COUNTS[filter_name](n) == labelled
    # From an empty cache, every order 2..n runs the generator.
    monkeypatch.setattr(extremal, "GENERATION_CAP", n)
    monkeypatch.setattr(extremal, "_class_cache", {})
    extremal.generate_all(n, filter_name)
    for order in range(1, n + 1):
        reps, groups = extremal._class_cache[order, filter_name]
        assert labelled_total(reps, groups) == LABELLED_COUNTS[filter_name](order), order
