"""The benchmark's own oracles, on every workload at a shrunken spec.

Each workload answers with the program and checks every answer against its
independent oracle, so a wrong answer fails here rather than only showing
up in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import rounds  # noqa: E402
import specs  # noqa: E402
from spans import Recorder  # noqa: E402
from test_perfbench import small_spec  # noqa: E402


@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_every_answer_passes_its_oracle(workload):
    items = rounds.ITEMS[workload](small_spec(workload))
    rec = Recorder(traced=False)
    rounds.execute(items, rec)
    assert rec.attempted == len(items)
    assert rounds.failures(items, rec) == {}
