"""Acceptance gate: run the full verification suite once and hold every
criterion to its time budget.  One PASS/FAIL line is printed per criterion
as the suite runs."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from smoothwords.checks import run_suite

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
ELAPSED = re.compile(r" \[\d+\.\d+s\]$", re.M)  # the timing `verify` prints

# Wall-clock budgets in seconds, per criterion.
BUDGETS = {
    1: 1, 2: 1, 3: 10, 4: 60, 5: 30, 6: 300,
    7: 60, 8: 60, 9: 120, 10: 5, 11: 1, 12: 5,
}


@pytest.fixture(scope="module")
def results():
    return {r.criterion: r for r in run_suite("all", seed=0)}


@pytest.mark.parametrize("criterion", sorted(BUDGETS))
def test_criterion(results, criterion, capsys):
    r = results[criterion]
    with capsys.disabled():
        print(r.line())
    assert r.passed, r.detail
    assert r.elapsed < BUDGETS[criterion], (
        f"criterion {criterion} took {r.elapsed:.2f}s, "
        f"budget {BUDGETS[criterion]}s")


def test_every_criterion_reported(results):
    assert sorted(results) == list(range(1, 13))


def test_lines_match_golden_capture(results):
    """The suite's text, timings removed, is the golden `verify --suite all`
    output byte for byte."""
    (case,) = [c for c in json.loads(GOLDEN.read_text())["cases"]
               if c.get("suite") == "all"]
    text = "".join(results[k].line() + "\n" for k in sorted(results))
    digest = hashlib.sha256(ELAPSED.sub("", text).encode()).hexdigest()
    assert digest == case["sha256"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_seeded_suite_is_deterministic():
    first = run_suite("oddli", seed=7)
    second = run_suite("oddli", seed=7)
    assert [(r.passed, r.detail) for r in first] == \
           [(r.passed, r.detail) for r in second]
